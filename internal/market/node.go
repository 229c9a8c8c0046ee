package market

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
)

// Node abstraction: a Store is one *node* of a (possibly single-node)
// market cluster. The global key space is cut into Slots fixed
// partitions by the same FNV-1a hash the shards use, and every node
// owns a contiguous slot range [Lo, Hi). A standalone daemon owns the
// full range, which is the zero-config default — the single-process
// deployment is just the one-node cluster.
//
// Range ownership is part of the ingestion contract, not routing
// advice: a node *refuses* events whose key slot falls outside its
// range with ErrNotOwner (HTTP 421), permanently. Were it to accept
// them, the same key could be admitted on two nodes — the per-key
// dedup window lives on the owning node, so a misrouted retry would
// double-count, and a federated verdict would no longer match the
// single-node reference. The range is persisted in meta.json next to
// the shard count and pinned the same way: a restart whose flags
// disagree with the directory refuses to start rather than silently
// re-partitioning history (see checkMeta).
//
// The router tier that fans batches out across nodes lives in
// internal/market/cluster; it discovers each node's descriptor from
// GET /v1/node and uses the same Slot function, so router and node
// can never disagree about ownership.

// ErrNotOwner rejects an ingest whose key slot is outside the node's
// shard range. Permanent for this node (HTTP 421): the event must go
// to the owning node; retrying here can never succeed.
var ErrNotOwner = errors.New("market: key outside this node's shard range")

// DefaultSlots is the cluster key-space partition count used when
// Config.Slots is zero. All nodes of one cluster must agree on it —
// it is pinned in meta.json alongside the range.
const DefaultSlots = 256

// Slot maps an event key onto the cluster partition space: FNV-1a of
// the key, modulo slots. Router and node both use this exact function
// (it is the ownership contract), and it is deliberately independent
// of the node-internal key→shard mapping, so a node may change its
// shard count story without moving cluster ownership.
func Slot(key string, slots int) int {
	return int(fnv32a(key) % uint32(slots))
}

// fnv32a is 32-bit FNV-1a over key, equal to hash/fnv's New32a without
// its allocation.
func fnv32a(key string) uint32 {
	const (
		offset32 = 2166136261
		prime32  = 16777619
	)
	h := uint32(offset32)
	for i := 0; i < len(key); i++ {
		h ^= uint32(key[i])
		h *= prime32
	}
	return h
}

// ShardRange is a half-open slot interval [Lo, Hi) a node owns. The
// zero value means "the full range" and is resolved against
// Config.Slots at Open.
type ShardRange struct {
	Lo int `json:"lo"`
	Hi int `json:"hi"`
}

// IsZero reports whether the range is the unset zero value.
func (r ShardRange) IsZero() bool { return r.Lo == 0 && r.Hi == 0 }

// Contains reports whether slot falls inside [Lo, Hi).
func (r ShardRange) Contains(slot int) bool { return slot >= r.Lo && slot < r.Hi }

// Len is the number of owned slots.
func (r ShardRange) Len() int { return r.Hi - r.Lo }

// String renders the range in the "lo:hi" flag syntax.
func (r ShardRange) String() string { return fmt.Sprintf("%d:%d", r.Lo, r.Hi) }

// ParseShardRange parses the "lo:hi" flag syntax (hi exclusive).
func ParseShardRange(s string) (ShardRange, error) {
	lo, hi, ok := strings.Cut(s, ":")
	if !ok {
		return ShardRange{}, fmt.Errorf("market: shard range %q not in lo:hi form", s)
	}
	l, err := strconv.Atoi(strings.TrimSpace(lo))
	if err != nil {
		return ShardRange{}, fmt.Errorf("market: shard range %q: bad lo: %v", s, err)
	}
	h, err := strconv.Atoi(strings.TrimSpace(hi))
	if err != nil {
		return ShardRange{}, fmt.Errorf("market: shard range %q: bad hi: %v", s, err)
	}
	if l < 0 || h <= l {
		return ShardRange{}, fmt.Errorf("market: shard range %q: want 0 <= lo < hi", s)
	}
	return ShardRange{Lo: l, Hi: h}, nil
}

// NodeDesc is a node's self-description, served at GET /v1/node. The
// router reads it at startup to learn the membership geometry instead
// of trusting a config file to agree with N meta.json files; the
// federation-affecting knobs (Threshold, TimelineCap) ride along so
// the router can refuse a cluster whose nodes would merge
// inconsistently.
type NodeDesc struct {
	NodeID        string  `json:"node_id"`
	Slots         int     `json:"slots"`
	RangeLo       int     `json:"range_lo"`
	RangeHi       int     `json:"range_hi"`
	Shards        int     `json:"shards"`
	Threshold     int     `json:"threshold"`
	TimelineCap   int     `json:"timeline_cap"`
	SimilarityTau float64 `json:"similarity_tau"`
	SimilarityK   int     `json:"similarity_k"`
}

// Range returns the descriptor's shard range.
func (d NodeDesc) Range() ShardRange { return ShardRange{Lo: d.RangeLo, Hi: d.RangeHi} }

// NodeDesc reports this store's cluster-facing descriptor.
func (st *Store) NodeDesc() NodeDesc {
	return NodeDesc{
		NodeID:        st.cfg.NodeID,
		Slots:         st.cfg.Slots,
		RangeLo:       st.cfg.Range.Lo,
		RangeHi:       st.cfg.Range.Hi,
		Shards:        st.cfg.Shards,
		Threshold:     st.cfg.Threshold,
		TimelineCap:   st.cfg.TimelineCap,
		SimilarityTau: st.cfg.SimilarityTau,
		SimilarityK:   st.cfg.SimilarityK,
	}
}

// checkOwnership refuses a batch whose event keys include one outside
// the node's range. Full-range nodes skip the per-event hash entirely,
// so the standalone hot path is unchanged. The check runs before any reservation: ownership is a
// routing contract violation, and admitting the in-range half of a
// misrouted batch would mask it.
func (st *Store) checkOwnership(keys []string) error {
	if st.fullRange {
		return nil
	}
	for _, key := range keys {
		if slot := Slot(key, st.cfg.Slots); !st.cfg.Range.Contains(slot) {
			return fmt.Errorf("%w: key %q is slot %d, node %q owns %s",
				ErrNotOwner, key, slot, st.cfg.NodeID, st.cfg.Range)
		}
	}
	return nil
}

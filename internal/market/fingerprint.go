package market

import (
	"encoding/json"
	"errors"
	"fmt"
	"sort"

	"bombdroid/internal/market/similarity"
)

// Fingerprints are the market's static detection channel (see
// internal/market/similarity): each upload carries the app's
// per-entry resource digests, the store keeps the latest set per app,
// and near-duplicate queries plus the fused verdict read the derived
// inverted index. Writes are durable exactly like report events —
// through the owning shard's queue, group commit, and WAL flush — so
// a 200 means the fingerprint survives a restart, and replay rebuilds
// the index identically.
//
// Unlike report events, which partition by the full event key, a
// fingerprint's cluster slot is Slot(app): one node owns every
// fingerprint write for an app, and the per-app last-write-wins order
// is serialized by that node's owning shard.

var (
	// ErrNoFingerprint is returned by fingerprint reads for an app that
	// never uploaded one (HTTP 404).
	ErrNoFingerprint = errors.New("market: no fingerprint for app")
	// ErrFingerprintTooLarge rejects an upload with more digests than
	// MaxFingerprintEntries (or one that would overflow a WAL record).
	// Permanent: retrying unchanged can never succeed (HTTP 413).
	ErrFingerprintTooLarge = errors.New("market: fingerprint too large")
)

// fpRecordTag is the first byte of a fingerprint WAL record. Event
// records are bare JSON objects and always start with '{', so one
// out-of-band byte disambiguates the two record kinds in a shared log.
const fpRecordTag = 0x01

// Fingerprint is one app's resource fingerprint: the canonical
// (sorted, deduped) set of per-entry SHA-256 digests from its apk
// manifest.
type Fingerprint struct {
	App     string   `json:"app"`
	Digests []string `json:"digests"`
}

// FingerprintAck answers a fingerprint upload. Updated is false when
// the uploaded set was byte-identical to the stored one (a dedup hit:
// nothing was written).
type FingerprintAck struct {
	App     string `json:"app"`
	Entries int    `json:"entries"`
	Updated bool   `json:"updated"`
}

// Similar answers a near-duplicate query: the app's top-K weighted-
// Jaccard neighbors in (score desc, app asc) order, plus the τ the
// fusion rule applies to them.
type Similar struct {
	App       string                `json:"app"`
	Known     bool                  `json:"known"`
	Tau       float64               `json:"tau"`
	Neighbors []similarity.Neighbor `json:"neighbors"`
}

// ProbeRequest asks a node for its local candidates sharing at least
// one digest with the query — the candidate-generation half of a
// federated similar-read (see cluster).
type ProbeRequest struct {
	Digests []string `json:"digests"`
	Exclude string   `json:"exclude,omitempty"`
}

// ProbeResponse carries a node's candidates (sorted by app) and its
// local fingerprint-corpus size, which the router sums across nodes.
type ProbeResponse struct {
	Apps       int64         `json:"apps"`
	Candidates []Fingerprint `json:"candidates"`
}

// DFRequest asks a node for its local document frequencies of a
// digest set — the weighting half of a federated similar-read.
type DFRequest struct {
	Digests []string `json:"digests"`
}

// DFResponse maps each requested digest to how many of the node's
// fingerprints contain it (zero-count digests are omitted).
type DFResponse struct {
	Apps int64            `json:"apps"`
	DF   map[string]int64 `json:"df"`
}

func encodeFingerprint(fp *Fingerprint) ([]byte, error) {
	b, err := json.Marshal(fp)
	if err != nil {
		return nil, err
	}
	return append([]byte{fpRecordTag}, b...), nil
}

func decodeFingerprint(p []byte) (Fingerprint, error) {
	var fp Fingerprint
	if err := json.Unmarshal(p[1:], &fp); err != nil {
		return Fingerprint{}, err
	}
	return fp, nil
}

// digestsEqual compares two canonical digest slices.
func digestsEqual(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// PutFingerprint stores app's fingerprint (canonicalized, last write
// wins) through the owning shard's WAL. It returns after the record
// is flushed — or, for an upload identical to the stored set, after
// the worker confirms the dedup without writing. Ownership, closed,
// degraded, backpressure, and size gates mirror Ingest.
func (st *Store) PutFingerprint(fp Fingerprint) (FingerprintAck, error) {
	st.mu.RLock()
	if st.closed {
		st.mu.RUnlock()
		return FingerprintAck{}, ErrClosed
	}
	if fp.App == "" {
		st.mu.RUnlock()
		return FingerprintAck{}, fmt.Errorf("market: fingerprint without an app")
	}
	if !st.fullRange {
		if slot := Slot(fp.App, st.cfg.Slots); !st.cfg.Range.Contains(slot) {
			st.misroute.Inc()
			st.mu.RUnlock()
			return FingerprintAck{}, fmt.Errorf("%w: app %q is slot %d, node %q owns %s",
				ErrNotOwner, fp.App, slot, st.cfg.NodeID, st.cfg.Range)
		}
	}
	digests := similarity.Canonical(fp.Digests)
	if len(digests) > st.cfg.MaxFingerprintEntries {
		st.mu.RUnlock()
		return FingerprintAck{}, fmt.Errorf("%w: %d digests (max %d)",
			ErrFingerprintTooLarge, len(digests), st.cfg.MaxFingerprintEntries)
	}
	i := st.shardFor(fp.App)
	s := st.shards[i]
	if s.degraded.Load() {
		st.mu.RUnlock()
		return FingerprintAck{}, fmt.Errorf("%w: shard %d", ErrDegraded, i)
	}
	if s.depth.Add(1) > int64(st.cfg.QueueCap) {
		s.depth.Add(-1)
		st.rejects.Inc()
		st.mu.RUnlock()
		return FingerprintAck{}, ErrBackpressure
	}
	req := ingestReq{fp: &Fingerprint{App: fp.App, Digests: digests}, done: make(chan ingestRes, 1)}
	s.ch <- req
	st.mu.RUnlock()
	res := <-req.done
	if res.err != nil {
		return FingerprintAck{}, res.err
	}
	return FingerprintAck{App: fp.App, Entries: len(digests), Updated: res.accepted > 0}, nil
}

// Fingerprint reads app's stored canonical digest set. The slice is
// shared with the index — read only.
func (st *Store) Fingerprint(app string) (Fingerprint, error) {
	digests, ok := st.idx.Get(app)
	if !ok {
		return Fingerprint{}, fmt.Errorf("%w: %q", ErrNoFingerprint, app)
	}
	return Fingerprint{App: app, Digests: digests}, nil
}

// Similar answers app's top-K weighted-Jaccard neighbors: candidate
// generation through the inverted index (sub-quadratic), exact
// rescoring only on the candidates, both under one index read lock.
// ErrNoFingerprint when the app never uploaded one.
func (st *Store) Similar(app string) (Similar, error) {
	ranked, ok := st.idx.Rank(app)
	if !ok {
		return Similar{}, fmt.Errorf("%w: %q", ErrNoFingerprint, app)
	}
	ns := similarity.TopK(ranked, st.cfg.SimilarityK)
	return Similar{App: app, Known: true, Tau: st.cfg.SimilarityTau, Neighbors: ns}, nil
}

// Probe serves the federation candidate round: every local app
// sharing at least one digest with the query, with its fingerprint,
// sorted by app for a deterministic wire shape.
func (st *Store) Probe(req ProbeRequest) ProbeResponse {
	cands, apps := st.idx.Candidates(similarity.Canonical(req.Digests), req.Exclude)
	out := ProbeResponse{Apps: apps}
	for app, digests := range cands {
		out.Candidates = append(out.Candidates, Fingerprint{App: app, Digests: digests})
	}
	sort.Slice(out.Candidates, func(i, j int) bool {
		return out.Candidates[i].App < out.Candidates[j].App
	})
	return out
}

// DFQuery serves the federation weighting round: local document
// frequencies for the requested digests, read under one index lock.
// Digests no local fingerprint contains are omitted.
func (st *Store) DFQuery(req DFRequest) DFResponse {
	df, apps := st.idx.DocFreqs(similarity.Canonical(req.Digests))
	return DFResponse{Apps: apps, DF: df}
}

// Package market is the market-operator half of the paper's
// decentralized repackaging-detection loop: the app store that the
// devices' detonation reports flow back to. The device side
// (internal/report, internal/sim) retries through outages and
// dedups per device; this side must hold up at market scale — many
// apps, many devices, bursty traffic — without ever losing a report
// it acknowledged.
//
// The design is a sharded, WAL-backed ingestion store:
//
//   - incoming events are partitioned across Shards by Event.Key(),
//     so one hot app cannot stall the others;
//   - each shard admits events through a dedup window, appends the
//     novel ones to an append-only checksummed WAL (group commit, one
//     flush per batch), and only then acks — a 200 from the daemon
//     means the report is on disk;
//   - each shard periodically commits a checkpoint snapshot (dedup
//     window + tallies + WAL position) with an atomic temp/fsync/
//     rename protocol, so Open restores the snapshot, replays only the
//     WAL tail, and compacts segments behind it — restart is
//     O(checkpoint + tail), not O(total history);
//   - admission is gated by a per-shard queue bound: when a shard is
//     saturated the store refuses with ErrBackpressure (HTTP 429)
//     instead of dropping, pushing the retry into the device-side
//     pipeline where it already has backoff and a breaker; requests
//     that could never be admitted — a batch bigger than a shard's
//     queue, an event bigger than a WAL record — are refused
//     permanently instead (ErrBatchTooLarge / ErrEventTooLarge,
//     HTTP 413), so clients split rather than retry forever;
//   - a shard whose disk stops cooperating (failed WAL append,
//     repeated checkpoint failures) degrades to read-only instead of
//     crashing the daemon: its ingests fail fast with ErrDegraded
//     (HTTP 503 + Retry-After), verdicts still serve, the other
//     shards carry on, and Health/healthz report the split;
//   - all disk access goes through marketfs.FS, so the crash-recovery
//     torture tests run these exact code paths against a fault-
//     injecting in-memory filesystem.
package market

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"sync"
	"time"

	"bombdroid/internal/market/marketfs"
	"bombdroid/internal/market/similarity"
	"bombdroid/internal/obs"
	"bombdroid/internal/report"
)

var (
	// ErrBackpressure rejects an ingest when a target shard's queue is
	// full. The request is safe to retry after a beat.
	ErrBackpressure = errors.New("market: shard queue full")
	// ErrBatchTooLarge rejects a batch that maps more events to one
	// shard than its QueueCap — it could never be admitted, so unlike
	// ErrBackpressure a retry of the same batch is pointless: the
	// caller must split it (HTTP 413, not 429).
	ErrBatchTooLarge = errors.New("market: batch exceeds shard queue capacity")
	// ErrEventTooLarge rejects an event whose JSON encoding exceeds
	// MaxEventBytes. Permanent for that event: retrying unchanged can
	// never succeed (HTTP 413).
	ErrEventTooLarge = errors.New("market: event too large")
	// ErrDegraded rejects ingests that target a shard in read-only
	// degraded mode (persistent disk failure). Retryable in principle
	// (HTTP 503 + Retry-After) — the operator may replace the disk and
	// restart — but not clearing on its own.
	ErrDegraded = errors.New("market: shard degraded, ingestion suspended")
	// ErrClosed rejects operations on a closed store.
	ErrClosed = errors.New("market: store closed")
)

// MaxEventBytes bounds one event's JSON encoding. WAL replay treats a
// record length beyond this as a torn tail or corruption, so an
// oversized event must be refused at ingestion — were it written and
// acked, the next restart would truncate it (losing acked records) or
// refuse to open. Client-supplied fields (Info above all) are
// unbounded on the wire, hence the explicit gate.
const MaxEventBytes = maxWALRecord

// Config tunes a Store. The zero value of every field except Dir
// resolves to a default; Dir is required.
type Config struct {
	// Dir is the data directory. Each shard keeps its WAL and
	// checkpoints in Dir/shard-NNN; Dir/meta.json pins the shard count.
	Dir string
	// Shards is the partition count (default 4). It is fixed at first
	// Open: reopening a directory with a different count is an error,
	// because the key→shard mapping would silently change.
	Shards int
	// QueueCap bounds each shard's enqueued-but-uncommitted events;
	// past it Ingest returns ErrBackpressure (default 4096).
	QueueCap int
	// DedupWindow is the per-generation key capacity of each shard's
	// dedup window; a key is remembered for between one and two
	// windows' worth of admissions (default 65536).
	DedupWindow int
	// SegmentBytes rotates a shard's WAL segment past this size
	// (default 64 MiB).
	SegmentBytes int64
	// Threshold is how many admitted detections mark an app
	// repackaged in Verdict (default 3) — the market-response knob:
	// one report could be a fluke, Threshold distinct detonations are
	// a takedown case.
	Threshold int
	// Fsync syncs the WAL on every batch commit. Off by default: the
	// ack guarantee is then "in the OS" (survives a process kill, not
	// a machine crash), which is the deployment's usual trade. The
	// checkpoint commit protocol always syncs, regardless.
	Fsync bool
	// MaxBatch bounds events per group commit (default 4096).
	MaxBatch int
	// CheckpointEvery snapshots a shard after this many WAL records
	// since the last snapshot (default 65536). Negative disables
	// checkpointing entirely, including the shutdown snapshot.
	CheckpointEvery int
	// CheckpointBytes snapshots a shard after this many WAL bytes
	// since the last snapshot, whichever of the two triggers first
	// (default SegmentBytes).
	CheckpointBytes int64
	// TimelineCap bounds each (shard, app) verdict-timeline history
	// (default 256). The earliest Threshold entries are never evicted
	// (so first-report and threshold-crossing stay exact); past the
	// cap, the oldest post-threshold entries are dropped and counted.
	// Must exceed Threshold.
	TimelineCap int
	// NodeID names this node within a cluster (default "": standalone).
	// Pinned in meta.json once set: a restart under a different name
	// refuses to start.
	NodeID string
	// Slots is the cluster key-space partition count (default
	// DefaultSlots). Every node of a cluster must agree on it; like
	// Shards it is fixed at first Open.
	Slots int
	// Range is the slot range [Lo, Hi) this node owns. The zero value
	// resolves to the full range — a standalone daemon is the one-node
	// cluster. Events whose key slot falls outside the range are
	// refused with ErrNotOwner (HTTP 421). Pinned in meta.json: see
	// checkMeta.
	Range ShardRange
	// SimilarityTau is the similarity channel's score threshold τ: an
	// app is similarity-flagged when a top-K neighbor scoring ≥ τ is
	// itself reports-flagged (default 0.6). Every node of a cluster
	// must agree on it, like Threshold.
	SimilarityTau float64
	// SimilarityK bounds how many neighbors GET /v1/apps/{app}/similar
	// returns — and how many the fusion rule considers (default 10).
	// Cluster-wide agreement required.
	SimilarityK int
	// MaxFingerprintEntries bounds one fingerprint's digest count;
	// larger uploads are refused permanently with
	// ErrFingerprintTooLarge (default 4096 — comfortably inside one
	// WAL record).
	MaxFingerprintEntries int
	// FS is the filesystem the store runs on (default the real OS).
	// Tests substitute marketfs.Fault to crash it mid-operation.
	FS marketfs.FS
	// Obs receives the store's metrics (default: a private registry).
	Obs *obs.Registry
}

func (c Config) withDefaults() Config {
	if c.Shards == 0 {
		c.Shards = 4
	}
	if c.QueueCap == 0 {
		c.QueueCap = 4096
	}
	if c.DedupWindow == 0 {
		c.DedupWindow = 1 << 16
	}
	if c.SegmentBytes == 0 {
		c.SegmentBytes = 64 << 20
	}
	if c.Threshold == 0 {
		c.Threshold = 3
	}
	if c.MaxBatch == 0 {
		c.MaxBatch = 4096
	}
	if c.CheckpointEvery == 0 {
		c.CheckpointEvery = 1 << 16
	}
	if c.CheckpointBytes == 0 {
		c.CheckpointBytes = c.SegmentBytes
	}
	if c.TimelineCap == 0 {
		c.TimelineCap = 256
	}
	if c.Slots == 0 {
		c.Slots = DefaultSlots
	}
	if c.SimilarityTau == 0 {
		c.SimilarityTau = 0.6
	}
	if c.SimilarityK == 0 {
		c.SimilarityK = 10
	}
	if c.MaxFingerprintEntries == 0 {
		c.MaxFingerprintEntries = 4096
	}
	if c.Range.IsZero() {
		c.Range = ShardRange{Lo: 0, Hi: c.Slots}
	}
	if c.FS == nil {
		c.FS = marketfs.OS{}
	}
	if c.Obs == nil {
		c.Obs = obs.NewRegistry()
	}
	return c
}

// Validate applies the same defaulting Open does, then rejects
// configurations the store cannot run with. Exported so flag-driven
// callers (cmd/marketd) can fail fast with a message; because zero
// fields validate as their defaults, only explicitly out-of-range
// values (negative, Shards past 1024) fail.
func (c Config) Validate() error {
	c = c.withDefaults()
	switch {
	case c.Dir == "":
		return fmt.Errorf("market: Dir is required")
	case c.Shards < 1 || c.Shards > 1024:
		return fmt.Errorf("market: Shards %d outside [1,1024]", c.Shards)
	case c.QueueCap < 1:
		return fmt.Errorf("market: QueueCap %d < 1", c.QueueCap)
	case c.DedupWindow < 1:
		return fmt.Errorf("market: DedupWindow %d < 1", c.DedupWindow)
	case c.SegmentBytes < 1:
		return fmt.Errorf("market: SegmentBytes %d < 1", c.SegmentBytes)
	case c.Threshold < 1:
		return fmt.Errorf("market: Threshold %d < 1", c.Threshold)
	case c.MaxBatch < 1:
		return fmt.Errorf("market: MaxBatch %d < 1", c.MaxBatch)
	case c.CheckpointBytes < 1 && c.CheckpointEvery >= 0:
		return fmt.Errorf("market: CheckpointBytes %d < 1", c.CheckpointBytes)
	case c.TimelineCap <= c.Threshold:
		return fmt.Errorf("market: TimelineCap %d must exceed Threshold %d (head retention)",
			c.TimelineCap, c.Threshold)
	case c.Slots < 1 || c.Slots > 1<<16:
		return fmt.Errorf("market: Slots %d outside [1,65536]", c.Slots)
	case c.SimilarityTau <= 0 || c.SimilarityTau > 1:
		return fmt.Errorf("market: SimilarityTau %g outside (0,1]", c.SimilarityTau)
	case c.SimilarityK < 1:
		return fmt.Errorf("market: SimilarityK %d < 1", c.SimilarityK)
	case c.MaxFingerprintEntries < 1:
		return fmt.Errorf("market: MaxFingerprintEntries %d < 1", c.MaxFingerprintEntries)
	case c.Range.Lo < 0 || c.Range.Hi <= c.Range.Lo || c.Range.Hi > c.Slots:
		return fmt.Errorf("market: Range %s not within [0,%d)", c.Range, c.Slots)
	}
	return nil
}

// Store is the ingestion engine: Ingest partitions, dedups, logs, and
// acks; Verdict reads the per-app tallies the log implies.
type Store struct {
	cfg    Config
	shards []*shard
	// idx is the store-global fingerprint registry and near-duplicate
	// index (the similarity detection channel). Writes flow through the
	// owning shard's WAL first; the index itself is derived state,
	// rebuilt from checkpoints + replay on every open.
	idx *similarity.Index
	// fullRange caches Range == [0, Slots): the standalone case, where
	// admission skips the per-event ownership hash entirely.
	fullRange bool

	mu       sync.RWMutex // guards closed vs in-flight Ingest
	closed   bool
	rejects  *obs.Counter
	misroute *obs.Counter
}

// storeMeta is the on-disk pinning record: shard count, slot count,
// node id and owned range. A meta.json that decodes with Slots == 0
// predates multi-node ownership and is refused (see checkMeta).
type storeMeta struct {
	Shards  int    `json:"shards"`
	Slots   int    `json:"slots,omitempty"`
	NodeID  string `json:"node_id,omitempty"`
	RangeLo int    `json:"range_lo"`
	RangeHi int    `json:"range_hi,omitempty"`
}

// Open validates cfg, restores every shard under cfg.Dir (newest
// valid checkpoint + WAL tail, full replay as fallback), and starts
// the shard workers. The returned ReplayStats summarize the recovery
// (segments scanned, records restored, checkpoints used, torn tails
// truncated, segments compacted).
func Open(cfg Config) (*Store, ReplayStats, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, ReplayStats{}, err
	}
	if err := cfg.FS.MkdirAll(cfg.Dir); err != nil {
		return nil, ReplayStats{}, err
	}
	if err := checkMeta(cfg); err != nil {
		return nil, ReplayStats{}, err
	}
	st := &Store{
		cfg:       cfg,
		idx:       similarity.NewIndex(cfg.Obs),
		fullRange: cfg.Range.Lo == 0 && cfg.Range.Hi == cfg.Slots,
		rejects:   cfg.Obs.Counter("market_backpressure_rejects_total"),
		misroute:  cfg.Obs.Counter("market_misrouted_rejects_total"),
	}
	var stats ReplayStats
	for i := 0; i < cfg.Shards; i++ {
		s, ss, err := newShard(i, cfg, st.idx)
		if err != nil {
			for _, prev := range st.shards {
				prev.close()
			}
			return nil, ReplayStats{}, err
		}
		st.shards = append(st.shards, s)
		stats.add(ss)
	}
	return st, stats, nil
}

// checkMeta pins the on-disk identity across restarts: the shard
// count (the key→shard mapping is part of the on-disk format) and,
// since multi-node ownership, the slot count, node id, and owned
// range. Range ownership is pinned exactly like the shard count: a
// directory that was node n1 owning 0:86 cannot silently come back as
// 86:171 — the WAL holds keys the new range would disown, and a
// federated verdict would drift from the reference. A mismatch
// refuses to start; re-ranging is an explicit wipe-or-migrate
// operation, never a flag change.
//
// A meta.json without a slot count was written before ranges existed;
// no such directory ever shipped, so it is refused with an error that
// names the file rather than upgraded. A new NodeID may be adopted
// set-once onto a directory that never had one (atomic rewrite, so a
// crash mid-write leaves the old, still-valid file).
func checkMeta(cfg Config) error {
	path := cfg.Dir + "/meta.json"
	b, err := cfg.FS.ReadFile(path)
	switch {
	case err == nil:
		var m storeMeta
		if err := json.Unmarshal(b, &m); err != nil {
			return fmt.Errorf("market: corrupt %s: %w", path, err)
		}
		if m.Shards != cfg.Shards {
			return fmt.Errorf("market: %s was written with %d shards, reopened with %d",
				cfg.Dir, m.Shards, cfg.Shards)
		}
		if m.Slots == 0 {
			return fmt.Errorf("market: %s pins no slot count (a pre-cluster meta.json); "+
				"that schema is not supported", path)
		}
		if m.Slots != cfg.Slots {
			return fmt.Errorf("market: %s was written with %d slots, reopened with %d",
				cfg.Dir, m.Slots, cfg.Slots)
		}
		if m.RangeLo != cfg.Range.Lo || m.RangeHi != cfg.Range.Hi {
			return fmt.Errorf("market: %s owns shard range %d:%d, reopened claiming %s",
				cfg.Dir, m.RangeLo, m.RangeHi, cfg.Range)
		}
		if m.NodeID != cfg.NodeID && m.NodeID != "" {
			return fmt.Errorf("market: %s belongs to node %q, reopened as %q",
				cfg.Dir, m.NodeID, cfg.NodeID)
		}
		if m.NodeID == cfg.NodeID && len(b) > 0 && jsonEqualsMeta(b, m) {
			return nil // schema current and identical; no rewrite
		}
		// Set-once NodeID adoption, or the same record in another
		// encoding: rewrite it canonically.
		m.NodeID = cfg.NodeID
		return writeMeta(cfg, m)
	case errors.Is(err, fs.ErrNotExist):
		return writeMeta(cfg, storeMeta{
			Shards:  cfg.Shards,
			Slots:   cfg.Slots,
			NodeID:  cfg.NodeID,
			RangeLo: cfg.Range.Lo,
			RangeHi: cfg.Range.Hi,
		})
	default:
		return err
	}
}

// jsonEqualsMeta reports whether raw already encodes exactly m under
// the current schema, so unchanged restarts skip the meta rewrite.
func jsonEqualsMeta(raw []byte, m storeMeta) bool {
	cur, _ := json.Marshal(m)
	return string(cur)+"\n" == string(raw)
}

func writeMeta(cfg Config, m storeMeta) error {
	b, _ := json.Marshal(m)
	return writeFileAtomic(cfg.FS, cfg.Dir, "meta.json", append(b, '\n'))
}

// writeFileAtomic commits dir/name through the same temp, fsync,
// rename, fsync-dir protocol the checkpoints use: after a crash the
// file either does not exist or holds the complete payload — never a
// torn prefix (which for meta.json would brick every later Open).
func writeFileAtomic(fsys marketfs.FS, dir, name string, data []byte) error {
	tmp := dir + "/" + name + ".tmp"
	f, err := fsys.Create(tmp)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := fsys.Rename(tmp, dir+"/"+name); err != nil {
		return err
	}
	return fsys.SyncDir(dir)
}

func (st *Store) shardFor(key string) int {
	return int(fnv32a(key) % uint32(len(st.shards)))
}

// partition splits evs and their keys by shard, keeping arrival order
// within each shard. Both sides are carved out of one array each.
func (st *Store) partition(evs []report.Event, keys []string) ([][]report.Event, [][]string) {
	shardOf := make([]int, len(evs))
	counts := make([]int, len(st.shards))
	for i, key := range keys {
		shardOf[i] = st.shardFor(key)
		counts[shardOf[i]]++
	}
	sortedEvs := make([]report.Event, len(evs))
	sortedKeys := make([]string, len(evs))
	parts := make([][]report.Event, len(st.shards))
	partKeys := make([][]string, len(st.shards))
	off := 0
	for i, n := range counts {
		parts[i] = sortedEvs[off : off : off+n]
		partKeys[i] = sortedKeys[off : off : off+n]
		off += n
	}
	for i, ev := range evs {
		j := shardOf[i]
		parts[j] = append(parts[j], ev)
		partKeys[j] = append(partKeys[j], keys[i])
	}
	return parts, partKeys
}

// Ingest admits a batch of events: partition by key, reserve queue
// room on every target shard, enqueue, and wait for the shard workers
// to commit. It returns how many events were newly admitted and how
// many were dedup hits.
//
// Admission is all-or-nothing at the reservation stage: if any target
// shard is saturated, nothing is enqueued and the whole batch fails
// with ErrBackpressure, so a client retry cannot half-apply (the
// dedup window would absorb it anyway, but the 429 path stays cheap).
// A batch that maps more than QueueCap events to a single shard could
// never reserve even against an idle queue; that is ErrBatchTooLarge
// — a permanent rejection the caller must resolve by splitting, not
// retrying. A batch carrying any event whose key slot is outside the
// node's shard range is refused whole with ErrNotOwner (it reached
// the wrong node; see node.go). A batch touching a degraded shard is
// refused up front with ErrDegraded. A WAL failure on any shard is returned as the
// batch's error; events on other shards that did commit stay
// committed and a retry of the full batch dedups them.
//
// The store lock is held only through enqueue — a shard worker stuck
// on a wedged disk delays this call's ack, but never blocks Close or
// CloseTimeout from proceeding.
func (st *Store) Ingest(evs []report.Event) (accepted, dups int, err error) {
	st.mu.RLock()
	if st.closed {
		st.mu.RUnlock()
		return 0, 0, ErrClosed
	}
	if len(evs) == 0 {
		st.mu.RUnlock()
		return 0, 0, nil
	}
	// Each key is built once here and rides the request through
	// commit, dedup, admit and the timeline.
	keys := make([]string, len(evs))
	for i, ev := range evs {
		keys[i] = ev.Key()
	}
	if err := st.checkOwnership(keys); err != nil {
		st.misroute.Inc()
		st.mu.RUnlock()
		return 0, 0, err
	}
	parts, partKeys := st.partition(evs, keys)
	for i, p := range parts {
		if len(p) == 0 {
			continue
		}
		if len(p) > st.cfg.QueueCap {
			st.mu.RUnlock()
			return 0, 0, fmt.Errorf("%w: %d events map to shard %d (QueueCap %d)",
				ErrBatchTooLarge, len(p), i, st.cfg.QueueCap)
		}
		if st.shards[i].degraded.Load() {
			st.mu.RUnlock()
			return 0, 0, fmt.Errorf("%w: shard %d", ErrDegraded, i)
		}
	}
	var reserved []int
	for i, p := range parts {
		if len(p) == 0 {
			continue
		}
		s := st.shards[i]
		if s.depth.Add(int64(len(p))) > int64(st.cfg.QueueCap) {
			s.depth.Add(-int64(len(p)))
			for _, j := range reserved {
				st.shards[j].depth.Add(-int64(len(parts[j])))
			}
			st.rejects.Inc()
			st.mu.RUnlock()
			return 0, 0, ErrBackpressure
		}
		reserved = append(reserved, i)
	}
	// The reservation guarantees queue room (channel capacity is
	// QueueCap requests and each request carries ≥1 reserved event), so
	// these sends cannot block; the lock can drop before the waits.
	dones := make([]chan ingestRes, 0, len(reserved))
	for _, i := range reserved {
		req := ingestReq{evs: parts[i], keys: partKeys[i], done: make(chan ingestRes, 1)}
		st.shards[i].ch <- req
		dones = append(dones, req.done)
	}
	st.mu.RUnlock()
	for _, done := range dones {
		res := <-done
		accepted += res.accepted
		dups += res.dups
		if res.err != nil && err == nil {
			err = res.err
		}
	}
	if err != nil {
		return 0, 0, err
	}
	return accepted, dups, nil
}

// Verdict is one app's standing with the market: the fused result of
// every detection channel, plus the per-channel breakdown. Flagged is
// the OR across channels. The struct is comparable (no slices or
// maps), so determinism tests compare verdicts with ==.
type Verdict struct {
	App      string          `json:"app"`
	Flagged  bool            `json:"flagged"`
	Channels VerdictChannels `json:"channels"`
}

// VerdictChannels is the per-channel breakdown of a fused verdict.
type VerdictChannels struct {
	Reports    ReportsChannel    `json:"reports"`
	Similarity SimilarityChannel `json:"similarity"`
}

// ReportsChannel is the dynamic channel: bomb-report detonation
// tallies versus the configured threshold.
type ReportsChannel struct {
	Detections int64 `json:"detections"`
	Threshold  int   `json:"threshold"`
	Flagged    bool  `json:"flagged"`
}

// SimilarityChannel is the static channel: the app is flagged when a
// top-K resource-fingerprint neighbor scoring ≥ τ is itself flagged by
// the reports channel. Neighbor/Score name the first such neighbor in
// (score desc, app asc) order; with no fingerprint or no qualifying
// neighbor, Neighbor is empty and Score 0.
type SimilarityChannel struct {
	Neighbor string  `json:"neighbor,omitempty"`
	Score    float64 `json:"score"`
	Tau      float64 `json:"tau"`
	Flagged  bool    `json:"flagged"`
}

// Verdict fuses the channels for one app: reports (admitted
// detections across shards vs. threshold) OR similarity (a ≥ τ
// near-duplicate that is itself reports-flagged). Degraded shards
// still serve their (frozen) tallies.
func (st *Store) Verdict(app string) Verdict {
	reports := st.reportsChannel(app)
	sim := st.similarityChannel(app)
	return Verdict{
		App:     app,
		Flagged: reports.Flagged || sim.Flagged,
		Channels: VerdictChannels{
			Reports:    reports,
			Similarity: sim,
		},
	}
}

// reportsChannel sums the app's admitted detections across shards and
// compares against the configured threshold.
func (st *Store) reportsChannel(app string) ReportsChannel {
	var n int64
	for _, s := range st.shards {
		n += s.appCount(app)
	}
	return ReportsChannel{
		Detections: n,
		Threshold:  st.cfg.Threshold,
		Flagged:    n >= int64(st.cfg.Threshold),
	}
}

// similarityChannel walks the app's top-K neighbors (the same list
// Similar serves) and flags on the first one scoring ≥ τ whose
// reports-channel tally crosses the threshold. Only the reports
// channel of the neighbor counts — flag propagation through
// similarity itself would recurse.
func (st *Store) similarityChannel(app string) SimilarityChannel {
	out := SimilarityChannel{Tau: st.cfg.SimilarityTau}
	ranked, _ := st.idx.Rank(app)
	for _, n := range similarity.TopK(ranked, st.cfg.SimilarityK) {
		if n.Score < st.cfg.SimilarityTau {
			break // sorted by score desc: nothing below τ qualifies
		}
		if st.reportsChannel(n.App).Flagged {
			out.Neighbor, out.Score, out.Flagged = n.App, n.Score, true
			break
		}
	}
	return out
}

// Health reports how many shards are ingesting normally and how many
// are in read-only degraded mode.
func (st *Store) Health() (ok, degraded int) {
	for _, s := range st.shards {
		if s.degraded.Load() {
			degraded++
		} else {
			ok++
		}
	}
	return ok, degraded
}

// Shards reports the store's partition count.
func (st *Store) Shards() int { return len(st.shards) }

// Obs exposes the store's metrics registry (the configured one, or
// the private default).
func (st *Store) Obs() *obs.Registry { return st.cfg.Obs }

// Threshold reports the configured detection threshold.
func (st *Store) Threshold() int { return st.cfg.Threshold }

// Close drains the shard queues, takes shutdown checkpoints, seals
// every WAL, and rejects further ingests. Safe to call once;
// concurrent Ingests finish first. It waits indefinitely — a bounded
// drain is CloseTimeout.
func (st *Store) Close() error {
	_, err := st.CloseTimeout(0)
	return err
}

// CloseTimeout is Close with a drain deadline (0 = wait forever).
// Shards are drained and sealed concurrently; shards that miss the
// deadline are returned by index, along with an error. The store is
// marked closed either way — a wedged shard's worker may still be
// blocked on its disk afterward, but no new work can reach it.
func (st *Store) CloseTimeout(d time.Duration) (missed []int, err error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.closed {
		return nil, nil
	}
	st.closed = true

	errs := make([]error, len(st.shards))
	done := make(chan struct{})
	var wg sync.WaitGroup
	for i, s := range st.shards {
		wg.Add(1)
		go func(i int, s *shard) {
			defer wg.Done()
			errs[i] = s.close()
		}(i, s)
	}
	go func() { wg.Wait(); close(done) }()

	var deadline <-chan time.Time
	if d > 0 {
		t := time.NewTimer(d)
		defer t.Stop()
		deadline = t.C
	}
	select {
	case <-done:
		for _, e := range errs {
			if e != nil {
				return nil, e
			}
		}
		return nil, nil
	case <-deadline:
		for i, s := range st.shards {
			if !s.sealed.Load() {
				missed = append(missed, i)
			}
		}
		return missed, fmt.Errorf("market: %d shard(s) missed the %v close deadline", len(missed), d)
	}
}

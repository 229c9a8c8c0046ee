package market

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"bombdroid/internal/market/similarity"
	"bombdroid/internal/obs"
	"bombdroid/internal/report"
)

// ingestReq is one Ingest call's slice of events for a single shard,
// with keys[i] == evs[i].Key() computed once by Ingest — or, when fp is
// set, one fingerprint upload riding the same queue, group commit, and
// WAL flush as the report firehose. done is buffered (cap 1), so the
// worker never blocks acking.
type ingestReq struct {
	evs  []report.Event
	keys []string
	fp   *Fingerprint
	done chan ingestRes
}

// size is the request's weight against the shard's queue reservation:
// its event count, or 1 for a fingerprint upload.
func (r ingestReq) size() int {
	if r.fp != nil {
		return 1
	}
	return len(r.evs)
}

type ingestRes struct {
	accepted int
	dups     int
	err      error
}

// shard owns one partition of the key space: a WAL, a dedup window,
// per-app tallies, and the checkpoints that snapshot all three. A
// single worker goroutine consumes its queue, so everything past the
// channel is single-writer; only depth (the admission gate), degraded
// and sealed (read by Ingest/Health/CloseTimeout), and the aggregates
// (read by Verdict) need atomics or locks.
type shard struct {
	id   int
	cfg  Config
	dir  string
	w    *wal
	ckpt shardCkptState

	ch     chan ingestReq
	depth  atomic.Int64 // events enqueued but not yet committed
	exited chan struct{}

	// degraded flips when the shard's disk stops cooperating — a WAL
	// append fails (the bufio stack's state is then unknown, so no
	// further append can be trusted) or checkpointing fails repeatedly.
	// A degraded shard keeps serving reads and keeps draining its queue,
	// but fails every ingest with ErrDegraded instead of crashing the
	// daemon; the other shards carry on.
	degraded atomic.Bool
	// sealed flips once close() has sealed the WAL — CloseTimeout uses
	// it to name the shards that missed the drain deadline.
	sealed atomic.Bool

	// Two-generation dedup window: lookups check both sets, inserts go
	// to cur, and when cur reaches DedupWindow keys the generations
	// rotate (prev is dropped and its memory becomes the new cur, the
	// old cur becomes prev). A key is therefore remembered for at least
	// DedupWindow and at most 2×DedupWindow admissions. Replay
	// re-inserts every WAL record in order, which reproduces the
	// rotation sequence — and so the window's exact state — from the
	// log alone; a checkpoint snapshots both sets, so restoring one and
	// replaying the tail lands in the identical state.
	cur, prev keySet

	// Worker-owned scratch for commit, reused across batches: the keys
	// already taken by the batch being committed, and the key hashes of
	// the events it admits.
	inBatch keySet
	hashes  []uint32

	// fps is the shard's slice of the fingerprint registry: latest
	// canonical digest set per owned app (last write wins, serialized
	// by this worker). Worker-owned like cur/prev; reads go through the
	// store-global idx, which mirrors every shard's fps and is synced
	// in bulk after open and per-write during commit.
	fps map[string][]string
	idx *similarity.Index

	mu   sync.Mutex
	apps map[string]int64        // app → admitted (unique, in-window) detections
	tls  map[string]*appTimeline // app → bounded verdict timeline (see timeline.go)

	cEvents    *obs.Counter
	cDups      *obs.Counter
	cRecords   *obs.Counter
	cBatches   *obs.Counter
	gDepth     *obs.Gauge
	gDegraded  *obs.Gauge
	cCkpts     *obs.Counter
	cCkptFails *obs.Counter
	cCompacted *obs.Counter
	gWALSegs   *obs.Gauge
	hFlushUs   *obs.Histogram
	hCkptUs    *obs.Histogram
	hCkptPhase [len(ckptPhases)]*obs.Histogram
	cCkptBytes *obs.Counter
}

// ckptPhases name the stretches of one checkpoint, in order:
// syncing the WAL through the snapshot position, copying the state
// the worker shares with readers, encoding, and committing the file
// (create, write, fsync, rename, directory fsync).
var ckptPhases = [...]string{"wal_sync", "copy", "encode", "write"}

// shardCkptState is the worker-owned checkpoint bookkeeping.
type shardCkptState struct {
	seq          uint64 // last committed checkpoint's sequence
	lastPos      walPos // position that checkpoint covers
	records      int64  // cumulative WAL records behind the window+tallies
	sinceRecords int    // records appended since the last checkpoint
	sinceBytes   int64  // bytes appended since the last checkpoint
	failures     int    // consecutive checkpoint failures
}

// ckptFailureLimit is how many consecutive checkpoint failures degrade
// the shard. One failure is a blip the next snapshot absorbs (restart
// just replays a longer tail); a disk that cannot commit any snapshot
// is the same broken disk that will fail appends soon enough.
const ckptFailureLimit = 3

func newShard(id int, cfg Config, idx *similarity.Index) (*shard, ReplayStats, error) {
	label := fmt.Sprintf("%d", id)
	s := &shard{
		id:     id,
		cfg:    cfg,
		idx:    idx,
		ch:     make(chan ingestReq, cfg.QueueCap),
		exited: make(chan struct{}),
		fps:    make(map[string][]string),
		apps:   make(map[string]int64),
		tls:    make(map[string]*appTimeline),

		cEvents:    cfg.Obs.Counter(obs.L("market_ingest_events_total", "shard", label)),
		cDups:      cfg.Obs.Counter(obs.L("market_ingest_duplicates_total", "shard", label)),
		cRecords:   cfg.Obs.Counter(obs.L("market_wal_records_total", "shard", label)),
		cBatches:   cfg.Obs.Counter(obs.L("market_commit_batches_total", "shard", label), obs.Volatile()),
		gDepth:     cfg.Obs.Gauge(obs.L("market_shard_queue_depth", "shard", label), obs.Volatile()),
		gDegraded:  cfg.Obs.Gauge(obs.L("market_shard_degraded", "shard", label)),
		cCkpts:     cfg.Obs.Counter(obs.L("market_checkpoints_total", "shard", label)),
		cCkptFails: cfg.Obs.Counter(obs.L("market_checkpoint_failures_total", "shard", label)),
		cCompacted: cfg.Obs.Counter(obs.L("market_compacted_segments_total", "shard", label)),
		// Live WAL segment files: rotation adds one, compaction behind
		// a checkpoint removes some, and when checkpoints fall depends
		// on group-commit boundaries — hence Volatile.
		gWALSegs: cfg.Obs.Gauge(obs.L("market_wal_segments", "shard", label), obs.Volatile()),
		// Unlabeled and shared across shards: one histogram of WAL
		// group-commit flush durations for the whole store (wall clock,
		// hence Volatile) — the "group-commit flush" leg of the
		// per-report latency breakdown.
		hFlushUs: cfg.Obs.Histogram("market_commit_flush_us", obs.ExpBuckets(50, 4, 12), obs.Volatile()),
		// A checkpoint stalls its shard's worker for its whole write,
		// so each attempt gets its wall time (ack_us buckets) and the
		// snapshot bytes it wrote. Snapshot size depends on where
		// group-commit boundaries fell, so the byte count is Volatile
		// too.
		hCkptUs:    cfg.Obs.Histogram(obs.L("market_checkpoint_us", "shard", label), obs.ExpBuckets(50, 4, 12), obs.Volatile()),
		cCkptBytes: cfg.Obs.Counter(obs.L("market_checkpoint_bytes_total", "shard", label), obs.Volatile()),
	}
	// The same duration split by phase, so a slow checkpoint shows
	// whether the disk (wal_sync, write) or the worker's own copy and
	// encode dominate.
	for i, phase := range ckptPhases {
		s.hCkptPhase[i] = cfg.Obs.Histogram(obs.L("market_checkpoint_phase_us", "shard", label, "phase", phase),
			obs.ExpBuckets(50, 4, 12), obs.Volatile())
	}
	s.dir = cfg.Dir + "/" + fmt.Sprintf("shard-%03d", id)

	stats, err := s.open()
	if err != nil {
		return nil, ReplayStats{}, err
	}
	// The shard's recovered fingerprint slice enters the store-global
	// index in one pass, before the worker starts taking live writes.
	// App → shard is a fixed hash, so no two shards ever sync the same
	// app.
	for app, digests := range s.fps {
		idx.Set(app, digests)
	}
	s.cRecords.Add(stats.Records)
	s.gWALSegs.Set(int64(s.w.live))
	go s.run()
	return s, stats, nil
}

// replayRecord dispatches one raw WAL record: fingerprint records
// carry a leading tag byte (fpRecordTag — JSON events always start
// with '{'), everything else decodes as a report event and goes
// through the same dedup gate the live commit path uses. For a
// healthy log the gate never fires (commit only appends
// in-window-novel keys, and replay reproduces the window state record
// by record), but a crash between a successful WAL flush and the ack
// can leave a retried event in the log twice — admitting both would
// double-count it after every restart. Fingerprint replay needs no
// gate: last write wins, and replay preserves write order.
func (s *shard) replayRecord(p []byte) error {
	if len(p) > 0 && p[0] == fpRecordTag {
		fp, err := decodeFingerprint(p)
		if err != nil {
			return err
		}
		s.fps[fp.App] = fp.Digests
		s.ckpt.records++
		return nil
	}
	ev, err := report.DecodeJSON(p)
	if err != nil {
		return err
	}
	key := ev.Key()
	if h := ksHash(key); !s.isDup(key, h) {
		s.admit(ev, key, h)
	}
	s.ckpt.records++
	return nil
}

// open restores the shard's state: newest valid checkpoint plus WAL
// tail when possible, older checkpoints on corruption, full replay as
// the last resort. After a successful checkpointed open it compacts
// segments wholly behind the restored position.
func (s *shard) open() (ReplayStats, error) {
	if err := s.cfg.FS.MkdirAll(s.dir); err != nil {
		return ReplayStats{}, err
	}
	// A crash can abandon a ckpt-*.tmp mid-commit; it was never
	// renamed, so it holds nothing durable. Clear them out.
	if tmps, err := s.cfg.FS.Glob(s.dir, "ckpt-*.tmp"); err == nil {
		for _, tmp := range tmps {
			s.cfg.FS.Remove(tmp)
		}
	}

	for _, cand := range s.listCheckpoints() {
		raw, err := s.cfg.FS.ReadFile(cand.path)
		if err != nil {
			continue
		}
		c, err := decodeCheckpoint(raw)
		if err != nil {
			continue // torn or garbage snapshot: try the next-older one
		}
		s.cur, s.prev, s.apps, s.tls, s.fps = c.cur, c.prev, c.apps, c.tls, c.fps
		for _, tl := range s.tls {
			tl.split(s.tlHead())
		}
		s.ckpt.records = c.records
		w, stats, err := openWAL(s.cfg.FS, s.dir, s.cfg.SegmentBytes, s.cfg.Fsync, c.pos, s.replayRecord)
		if errors.Is(err, errBadStart) {
			// The snapshot decodes but the WAL cannot honor its position
			// (stale checkpoint over truncated segments). errBadStart is
			// guaranteed pre-replay, so resetting here is complete.
			s.cur, s.prev, s.apps = keySet{}, keySet{}, make(map[string]int64)
			s.tls = make(map[string]*appTimeline)
			s.fps = make(map[string][]string)
			s.ckpt.records = 0
			continue
		}
		if err != nil {
			return ReplayStats{}, err
		}
		s.w = w
		s.ckpt.seq = c.seq
		s.ckpt.lastPos = c.pos
		s.ckpt.sinceRecords = int(stats.TailRecords) // a long tail re-snapshots promptly
		stats.Records += c.records                   // cumulative = covered + tail
		stats.Checkpoints = 1
		if n, err := w.RemoveBehind(c.pos.Seg); err == nil && n > 0 {
			stats.CompactedSegments = n
			s.cCompacted.Add(int64(n))
		}
		return stats, nil
	}

	// No usable checkpoint: full replay from the first segment. lastPos
	// stays zero, so the close-time snapshot covers the replayed history
	// even when nothing new is ingested — the next open is fast anyway.
	w, stats, err := openWAL(s.cfg.FS, s.dir, s.cfg.SegmentBytes, s.cfg.Fsync, walPos{}, s.replayRecord)
	if err != nil {
		return ReplayStats{}, err
	}
	s.w = w
	return stats, nil
}

type ckptFile struct {
	seq  uint64
	path string
}

// listCheckpoints returns the shard's committed checkpoint files,
// newest first.
func (s *shard) listCheckpoints() []ckptFile {
	names, err := s.cfg.FS.Glob(s.dir, "ckpt-????????")
	if err != nil {
		return nil
	}
	out := make([]ckptFile, 0, len(names))
	for _, name := range names {
		var seq uint64
		if _, err := fmt.Sscanf(baseName(name), "ckpt-%08d", &seq); err != nil {
			continue
		}
		out = append(out, ckptFile{seq: seq, path: name})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].seq > out[j].seq })
	return out
}

// admit records one event, whose Key() is key and whose ksHash is h,
// as accepted: it enters the dedup window and its app's tally. Called
// — behind the same isDup gate, in identical order — for every event
// the worker commits and for every record the WAL replays; the two
// paths must stay byte-for-byte the same or a restart would change
// verdicts.
func (s *shard) admit(ev report.Event, key string, h uint32) {
	if s.cur.len() >= s.cfg.DedupWindow {
		s.cur, s.prev = s.prev, s.cur
		s.cur.reset()
	}
	s.cur.add(key, h)
	s.mu.Lock()
	s.apps[ev.App]++
	s.tlInsertLocked(ev, key)
	s.mu.Unlock()
}

func (s *shard) isDup(key string, h uint32) bool {
	return s.cur.has(key, h) || s.prev.has(key, h)
}

// appCount reads one app's tally (Verdict path).
func (s *shard) appCount(app string) int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.apps[app]
}

// degrade flips the shard into read-only degraded mode.
func (s *shard) degrade() {
	if !s.degraded.Swap(true) {
		s.gDegraded.Set(1)
	}
}

// run is the shard worker: it takes one queued request, greedily
// drains whatever else is already queued (group commit, bounded by
// MaxBatch events), and commits the lot with a single WAL flush.
func (s *shard) run() {
	defer close(s.exited)
	for {
		req, ok := <-s.ch
		if !ok {
			return
		}
		batch := []ingestReq{req}
		n := req.size()
	drain:
		for n < s.cfg.MaxBatch {
			select {
			case r, ok := <-s.ch:
				if !ok {
					break drain
				}
				batch = append(batch, r)
				n += r.size()
			default:
				break drain
			}
		}
		s.commit(batch, n)
		s.maybeCheckpoint()
	}
}

// commit deduplicates the batch, appends every novel event to the WAL
// as one flush, and only then — after the bytes are handed to the OS —
// admits the events and acks the requests. On a WAL error nothing is
// admitted, so the dedup window and tallies never get ahead of the
// log: an acked event is always replayable, and a failed one is
// retryable without tripping the dedup window. An event too large for
// a WAL record fails only its own request (ErrEventTooLarge) and is
// skipped; the request's other events still commit, and a split-up
// retry dedups them.
//
// A WAL append failure degrades the shard: a bufio flush that errored
// partway leaves an unknown number of bytes in the kernel, so the only
// honest append position is "none — reopen and replay".
func (s *shard) commit(batch []ingestReq, total int) {
	if s.degraded.Load() {
		s.failAll(batch, total, fmt.Errorf("%w: shard %d", ErrDegraded, s.id))
		return
	}
	results := make([]ingestRes, len(batch))
	payloads := make([][]byte, 0, total)
	admitted := make([]report.Event, 0, total)
	admittedKeys := make([]string, 0, total)
	var fpApplied []*Fingerprint
	s.inBatch.reset()
	s.hashes = s.hashes[:0]
	// Every event record is encoded into buf; each payload is a capped
	// slice of it. Should buf outgrow its estimate, earlier payloads
	// keep pointing into the old array, whose bytes never change.
	buf := make([]byte, 0, encodedSizeHint(batch))
	var encErr error
	oversized := 0
	for bi, req := range batch {
		if req.fp != nil {
			// A fingerprint identical to the stored one is a dup: no WAL
			// record, no state change, so re-uploading a corpus is free.
			if digestsEqual(s.fps[req.fp.App], req.fp.Digests) {
				results[bi].dups++
				continue
			}
			b, err := encodeFingerprint(req.fp)
			if err != nil {
				encErr = err
				break
			}
			if len(b) > MaxEventBytes {
				// Mirrors the oversized-event gate: a record the WAL
				// cannot replay must never be acked. Permanent.
				results[bi].err = fmt.Errorf("%w: app %q encodes to %d bytes (max %d)",
					ErrFingerprintTooLarge, req.fp.App, len(b), MaxEventBytes)
				oversized++
				continue
			}
			payloads = append(payloads, b)
			fpApplied = append(fpApplied, req.fp)
			results[bi].accepted++
			continue
		}
		for ei, ev := range req.evs {
			key := req.keys[ei]
			h := ksHash(key)
			if s.inBatch.has(key, h) || s.isDup(key, h) {
				results[bi].dups++
				continue
			}
			lo := len(buf)
			buf = ev.AppendJSON(buf)
			if len(buf)-lo > MaxEventBytes {
				// The WAL cannot hold this record (replay would read it
				// as corruption), so it must never be acked. Permanent
				// rejection for this request only; sibling requests in
				// the group commit are unaffected.
				results[bi].err = fmt.Errorf("%w: event %q encodes to %d bytes (max %d)",
					ErrEventTooLarge, key, len(buf)-lo, MaxEventBytes)
				buf = buf[:lo]
				oversized++
				continue
			}
			s.inBatch.add(key, h)
			payloads = append(payloads, buf[lo:len(buf):len(buf)])
			admitted = append(admitted, ev)
			admittedKeys = append(admittedKeys, key)
			s.hashes = append(s.hashes, h)
			results[bi].accepted++
		}
	}
	err := encErr
	if err == nil && len(payloads) > 0 {
		flushStart := time.Now()
		if werr := s.w.Append(payloads); werr != nil {
			s.degrade()
			err = fmt.Errorf("%w: shard %d wal append: %v", ErrDegraded, s.id, werr)
		}
		s.hFlushUs.Observe(time.Since(flushStart).Microseconds())
		s.gWALSegs.Set(int64(s.w.live))
	}
	if err != nil {
		for bi := range results {
			results[bi] = ingestRes{err: err}
		}
	} else {
		for i, ev := range admitted {
			s.admit(ev, admittedKeys[i], s.hashes[i])
		}
		// Fingerprints apply in WAL order (last write wins), to the
		// worker-owned slice and the store-global index together.
		for _, fp := range fpApplied {
			s.fps[fp.App] = fp.Digests
			s.idx.Set(fp.App, fp.Digests)
		}
		s.ckpt.records += int64(len(payloads))
		s.ckpt.sinceRecords += len(payloads)
		for _, p := range payloads {
			s.ckpt.sinceBytes += walHeaderLen + int64(len(p))
		}
		s.cEvents.Add(int64(len(admitted)))
		s.cDups.Add(int64(total - len(admitted) - len(fpApplied) - oversized))
		s.cRecords.Add(int64(len(payloads)))
		s.cBatches.Inc()
	}
	s.depth.Add(-int64(total))
	s.gDepth.Set(s.depth.Load())
	for bi, req := range batch {
		req.done <- results[bi]
	}
}

// failAll rejects every request in the batch with err, keeping the
// depth/ack bookkeeping identical to a committed batch.
func (s *shard) failAll(batch []ingestReq, total int, err error) {
	s.depth.Add(-int64(total))
	s.gDepth.Set(s.depth.Load())
	for _, req := range batch {
		req.done <- ingestRes{err: err}
	}
}

// maybeCheckpoint snapshots when enough records or bytes accumulated
// since the last snapshot. Worker goroutine only.
func (s *shard) maybeCheckpoint() {
	if s.cfg.CheckpointEvery < 0 || s.degraded.Load() {
		return
	}
	if s.ckpt.sinceRecords < s.cfg.CheckpointEvery && s.ckpt.sinceBytes < s.cfg.CheckpointBytes {
		return
	}
	s.takeCheckpoint()
}

// takeCheckpoint commits one snapshot: sync the WAL through the
// current position, write temp, fsync, rename, fsync dir. On success
// it retires checkpoints beyond the retention pair and compacts
// segments the new snapshot strands; ckptFailureLimit consecutive
// failures degrade the shard. Worker goroutine only (or post-drain
// close).
func (s *shard) takeCheckpoint() {
	pos := s.w.Position()
	if pos == s.ckpt.lastPos {
		return // nothing new to cover
	}
	t0 := time.Now()
	n, err := s.writeCheckpoint(pos)
	s.hCkptUs.Observe(time.Since(t0).Microseconds())
	s.cCkptBytes.Add(int64(n))
	if err != nil {
		s.cCkptFails.Inc()
		s.ckpt.failures++
		if s.ckpt.failures >= ckptFailureLimit {
			s.degrade()
		}
		return
	}
	s.ckpt.seq++
	s.ckpt.lastPos = pos
	s.ckpt.sinceRecords = 0
	s.ckpt.sinceBytes = 0
	s.ckpt.failures = 0
	s.cCkpts.Inc()

	// Retention + compaction, both best-effort: a failure here costs
	// disk space, not correctness, and the next snapshot retries.
	for _, old := range s.listCheckpoints() {
		if old.seq+1 < s.ckpt.seq {
			s.cfg.FS.Remove(old.path)
		}
	}
	if n, err := s.w.RemoveBehind(pos.Seg); err == nil && n > 0 {
		s.cCompacted.Add(int64(n))
	}
	s.gWALSegs.Set(int64(s.w.live))
}

// writeCheckpoint commits the snapshot covering pos and returns the
// bytes it wrote to the snapshot file. Each phase that completes is
// observed into its market_checkpoint_phase_us series.
func (s *shard) writeCheckpoint(pos walPos) (int, error) {
	t := time.Now()
	phaseDone := func(i int) {
		now := time.Now()
		s.hCkptPhase[i].Observe(now.Sub(t).Microseconds())
		t = now
	}
	// The snapshot must never claim bytes the disk does not hold: sync
	// the WAL first, even when routine commits run without Fsync.
	if err := s.w.Sync(); err != nil {
		return 0, err
	}
	phaseDone(0)
	s.mu.Lock()
	apps := make(map[string]int64, len(s.apps))
	for app, n := range s.apps {
		apps[app] = n
	}
	tls := make(map[string]*appTimeline, len(s.tls))
	for app, tl := range s.tls {
		tls[app] = tl.flat()
	}
	s.mu.Unlock()
	// Digest slices are immutable once stored, so the map copy is
	// shallow; the worker owns s.fps and the dedup sets, so they need
	// no lock, and the encode below finishes before the worker admits
	// again.
	fps := make(map[string][]string, len(s.fps))
	for app, digests := range s.fps {
		fps[app] = digests
	}
	phaseDone(1)
	c := &checkpoint{
		seq:     s.ckpt.seq + 1,
		pos:     pos,
		records: s.ckpt.records,
		apps:    apps,
		cur:     s.cur,
		prev:    s.prev,
		tls:     tls,
		fps:     fps,
	}
	enc := c.encode()
	phaseDone(2)

	final := s.dir + "/" + ckptName(c.seq)
	tmp := final + ".tmp"
	f, err := s.cfg.FS.Create(tmp)
	if err != nil {
		return 0, err
	}
	n, err := f.Write(enc)
	if err != nil {
		f.Close()
		return n, err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return n, err
	}
	if err := f.Close(); err != nil {
		return n, err
	}
	if err := s.cfg.FS.Rename(tmp, final); err != nil {
		return n, err
	}
	if err := s.cfg.FS.SyncDir(s.dir); err != nil {
		return n, err
	}
	phaseDone(3)
	return n, nil
}

// close stops the worker (after the queue drains), takes a farewell
// checkpoint so the next open replays nothing, and seals the WAL. A
// failed farewell snapshot is not an error — the WAL is already
// durable and the next open falls back to an older snapshot or a full
// replay.
func (s *shard) close() error {
	close(s.ch)
	<-s.exited
	if s.cfg.CheckpointEvery >= 0 && !s.degraded.Load() {
		s.takeCheckpoint()
	}
	err := s.w.Close()
	s.sealed.Store(true)
	return err
}

// encodedSizeHint estimates the WAL bytes of the batch's events: their
// field lengths plus the JSON keys, quotes and widest time_ms. Only
// escaping makes an event longer than that.
func encodedSizeHint(batch []ingestReq) int {
	const overhead = len(`{"app":"","bomb":"","user":"","time_ms":-9223372036854775808,"info":""}`)
	n := 0
	for _, req := range batch {
		for _, ev := range req.evs {
			n += overhead + len(ev.App) + len(ev.Bomb) + len(ev.User) + len(ev.Info)
		}
	}
	return n
}

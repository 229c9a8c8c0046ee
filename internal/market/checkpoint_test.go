package market

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"bombdroid/internal/market/marketfs"
	"bombdroid/internal/obs"
	"bombdroid/internal/report"
)

// TestCheckpointEncodeDecode round-trips the binary format, including
// the awkward corners: empty maps, a nil prev generation, binary-ish
// keys.
func TestCheckpointEncodeDecode(t *testing.T) {
	c := &checkpoint{
		seq:     7,
		pos:     walPos{Seg: 3, Off: 12345},
		records: 99,
		apps:    map[string]int64{"app.a": 4, "app\x00weird": 1},
		cur:     keySetOf("k1", ""),
		prev:    keySetOf("older-key"),
	}
	got, err := decodeCheckpoint(c.encode())
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if got.seq != c.seq || got.pos != c.pos || got.records != c.records {
		t.Errorf("header round-trip: got %+v", got)
	}
	if len(got.apps) != 2 || got.apps["app.a"] != 4 {
		t.Errorf("apps round-trip: %v", got.apps)
	}
	if !got.cur.has("", ksHash("")) || got.cur.len() != 2 {
		t.Errorf("cur round-trip: %q", ksKeys(&got.cur))
	}
	if !got.prev.has("older-key", ksHash("older-key")) {
		t.Errorf("prev round-trip: %q", ksKeys(&got.prev))
	}

	empty := &checkpoint{seq: 1, pos: walPos{}, apps: map[string]int64{}}
	if _, err := decodeCheckpoint(empty.encode()); err != nil {
		t.Fatalf("empty checkpoint: %v", err)
	}

	// Corruption in any byte must fail the decode, not mis-parse.
	enc := c.encode()
	for _, i := range []int{0, len(ckptMagic) + 1, len(ckptMagic) + 5, len(enc) / 2, len(enc) - 1} {
		bad := append([]byte(nil), enc...)
		bad[i] ^= 0xff
		if _, err := decodeCheckpoint(bad); err == nil {
			t.Errorf("flip at %d: decode accepted corrupt checkpoint", i)
		}
	}
	if _, err := decodeCheckpoint(enc[:len(enc)-3]); err == nil {
		t.Error("truncated checkpoint decoded")
	}
}

// TestCheckpointRestartFast: the core promise — a clean shutdown
// writes a snapshot, and the next open restores it without replaying
// any tail, with identical verdicts and dedup state.
func TestCheckpointRestartFast(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Dir: dir, Shards: 2}
	st, _ := mustOpen(t, cfg)
	writeEvents(t, st, "app.fast", 100)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2, stats := mustOpen(t, cfg)
	defer st2.Close()
	if stats.Checkpoints != 2 {
		t.Errorf("Checkpoints = %d, want 2 (both shards restored)", stats.Checkpoints)
	}
	if stats.TailRecords != 0 {
		t.Errorf("TailRecords = %d, want 0 after a clean shutdown", stats.TailRecords)
	}
	if stats.Records != 100 {
		t.Errorf("Records = %d, want 100", stats.Records)
	}
	if v := st2.Verdict("app.fast"); v.Channels.Reports.Detections != 100 {
		t.Errorf("Detections = %d, want 100", v.Channels.Reports.Detections)
	}
	// Dedup window restored from the snapshot alone: full resubmit dedups.
	var evs []report.Event
	for i := 0; i < 100; i++ {
		evs = append(evs, ev("app.fast", fmt.Sprintf("bomb-%d", i), "user-1"))
	}
	if a, d, err := st2.Ingest(evs); err != nil || a != 0 || d != 100 {
		t.Fatalf("resubmit = (%d, %d, %v), want (0, 100, nil)", a, d, err)
	}
}

// TestCheckpointSeries: the farewell checkpoint Close forces moves
// its shard's duration histogram once and its byte counter by the
// snapshot file's size.
func TestCheckpointSeries(t *testing.T) {
	dir := t.TempDir()
	reg := obs.NewRegistry()
	st, _ := mustOpen(t, Config{Dir: dir, Shards: 1, Obs: reg})
	hUs := reg.Histogram(obs.L("market_checkpoint_us", "shard", "0"), obs.ExpBuckets(50, 4, 12), obs.Volatile())
	cBytes := reg.Counter(obs.L("market_checkpoint_bytes_total", "shard", "0"), obs.Volatile())
	writeEvents(t, st, "app.series", 50)
	if hUs.Count() != 0 || cBytes.Value() != 0 {
		t.Fatalf("before any checkpoint: %d observations, %d bytes", hUs.Count(), cBytes.Value())
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter(obs.L("market_checkpoints_total", "shard", "0")).Value(); got != 1 {
		t.Fatalf("market_checkpoints_total = %d, want 1", got)
	}
	if hUs.Count() != 1 {
		t.Errorf("market_checkpoint_us observations = %d, want 1", hUs.Count())
	}
	fi, err := os.Stat(filepath.Join(dir, "shard-000", ckptName(1)))
	if err != nil {
		t.Fatal(err)
	}
	if cBytes.Value() != fi.Size() || fi.Size() == 0 {
		t.Errorf("market_checkpoint_bytes_total = %d, want the snapshot's %d bytes", cBytes.Value(), fi.Size())
	}
}

// TestCheckpointAtSegmentEdge: with segments so small every batch
// rotates, mid-run checkpoints land exactly on segment boundaries
// (position = start of a fresh segment). Open must honor a checkpoint
// pointing at offset 0 of a later segment, and compaction must keep
// that segment.
func TestCheckpointAtSegmentEdge(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Dir: dir, Shards: 1, SegmentBytes: 1, CheckpointEvery: 1}
	st, _ := mustOpen(t, cfg)
	// One event per Ingest: every commit overflows the 1-byte segment,
	// rotates, and then checkpoints at (seg+1, 0).
	for i := 0; i < 10; i++ {
		if _, _, err := st.Ingest([]report.Event{ev("app.edge", fmt.Sprintf("b%d", i), "u")}); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2, stats := mustOpen(t, cfg)
	defer st2.Close()
	if stats.Checkpoints != 1 {
		t.Errorf("Checkpoints = %d, want 1", stats.Checkpoints)
	}
	if stats.TailRecords != 0 {
		t.Errorf("TailRecords = %d, want 0", stats.TailRecords)
	}
	if stats.Records != 10 {
		t.Errorf("Records = %d, want 10", stats.Records)
	}
	if v := st2.Verdict("app.edge"); v.Channels.Reports.Detections != 10 {
		t.Errorf("Detections = %d, want 10", v.Channels.Reports.Detections)
	}
}

// TestCheckpointTailReplayMidSegment: a crash after the last
// checkpoint leaves durable records past it in the same segment; Open
// must restore the snapshot and replay exactly that mid-segment tail.
func TestCheckpointTailReplayMidSegment(t *testing.T) {
	fa := marketfs.NewFault(nil, 11)
	cfg := Config{Dir: "data", Shards: 1, Fsync: true, CheckpointEvery: 5, FS: fa}
	st, _, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// 5 events trip the checkpoint; 3 more are tail-only.
	for i := 0; i < 8; i++ {
		if _, _, err := st.Ingest([]report.Event{ev("app.tail", fmt.Sprintf("b%d", i), "u")}); err != nil {
			t.Fatal(err)
		}
	}
	fa.Crash()
	st.Close() // errors ignored: the machine is dead
	fa.Recover()

	st2, stats, err := Open(cfg)
	if err != nil {
		t.Fatalf("reopen after crash: %v", err)
	}
	defer st2.Close()
	if stats.Checkpoints != 1 {
		t.Errorf("Checkpoints = %d, want 1", stats.Checkpoints)
	}
	if stats.TailRecords != 3 {
		t.Errorf("TailRecords = %d, want 3 (records 6..8)", stats.TailRecords)
	}
	if stats.Records != 8 {
		t.Errorf("Records = %d, want 8", stats.Records)
	}
	if v := st2.Verdict("app.tail"); v.Channels.Reports.Detections != 8 {
		t.Errorf("Detections = %d, want 8", v.Channels.Reports.Detections)
	}
}

// TestCompactionReclaimsSegments: rotated segments wholly behind a
// checkpoint are deleted; the segment holding the checkpoint position
// is never touched, and restart state is unaffected.
func TestCompactionReclaimsSegments(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Dir: dir, Shards: 1, SegmentBytes: 256, CheckpointEvery: 10}
	st, _ := mustOpen(t, cfg)
	writeEvents(t, st, "app.gc", 60) // many 256-byte segments, several checkpoints
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	shardDir := filepath.Join(dir, "shard-000")
	segs, _ := filepath.Glob(filepath.Join(shardDir, "wal-*.log"))
	if len(segs) == 0 {
		t.Fatal("no segments left at all")
	}
	// Compaction ran: the log does not start at segment zero anymore.
	if _, err := os.Stat(filepath.Join(shardDir, segName(0))); !os.IsNotExist(err) {
		t.Errorf("segment 0 still present (%v) — compaction reclaimed nothing", err)
	}
	// Retention keeps at most the two newest checkpoints.
	ckpts, _ := filepath.Glob(filepath.Join(shardDir, "ckpt-????????"))
	if len(ckpts) == 0 || len(ckpts) > 2 {
		t.Errorf("checkpoint files on disk = %d, want 1..2", len(ckpts))
	}

	st2, stats := mustOpen(t, cfg)
	defer st2.Close()
	if stats.Records != 60 {
		t.Errorf("Records = %d, want 60 after compaction", stats.Records)
	}
	if v := st2.Verdict("app.gc"); v.Channels.Reports.Detections != 60 {
		t.Errorf("Detections = %d, want 60", v.Channels.Reports.Detections)
	}
	// The checkpoint's own segment survived: reopening found it (no
	// errBadStart fallback, which would have shown as Checkpoints = 0).
	if stats.Checkpoints != 1 {
		t.Errorf("Checkpoints = %d, want 1", stats.Checkpoints)
	}
}

// TestCheckpointCorruptionFallsBack: a torn/garbage newest checkpoint
// falls back to the previous one (replaying the longer tail); when
// every checkpoint is bad, Open falls back to a full WAL replay. No
// verdict changes either way.
func TestCheckpointCorruptionFallsBack(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Dir: dir, Shards: 1}
	st, _ := mustOpen(t, cfg)
	writeEvents(t, st, "app.fb", 10)
	st.Close() // ckpt seq 1 covers 10 records

	st, _ = mustOpen(t, cfg)
	writeEvents(t, st, "app.fb2", 5)
	st.Close() // ckpt seq 2 covers 15

	shardDir := filepath.Join(dir, "shard-000")
	newest := filepath.Join(shardDir, ckptName(2))
	b, err := os.ReadFile(newest)
	if err != nil {
		t.Fatalf("expected checkpoint %s: %v", newest, err)
	}
	b[len(b)-1] ^= 0xff
	if err := os.WriteFile(newest, b, 0o644); err != nil {
		t.Fatal(err)
	}

	st2, stats := mustOpen(t, cfg)
	if stats.Checkpoints != 1 {
		t.Errorf("Checkpoints = %d, want 1 (the older snapshot)", stats.Checkpoints)
	}
	if stats.TailRecords != 5 {
		t.Errorf("TailRecords = %d, want 5 (replayed past the older snapshot)", stats.TailRecords)
	}
	if v := st2.Verdict("app.fb"); v.Channels.Reports.Detections != 10 {
		t.Errorf("Detections(app.fb) = %d, want 10", v.Channels.Reports.Detections)
	}
	if v := st2.Verdict("app.fb2"); v.Channels.Reports.Detections != 5 {
		t.Errorf("Detections(app.fb2) = %d, want 5", v.Channels.Reports.Detections)
	}
	st2.Close() // writes ckpt seq 3

	// Now break every checkpoint: full-replay fallback.
	ckpts, _ := filepath.Glob(filepath.Join(shardDir, "ckpt-????????"))
	if len(ckpts) == 0 {
		t.Fatal("no checkpoints to corrupt")
	}
	for _, p := range ckpts {
		if err := os.WriteFile(p, []byte("garbage"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	st3, stats := mustOpen(t, cfg)
	defer st3.Close()
	if stats.Checkpoints != 0 {
		t.Errorf("Checkpoints = %d, want 0 (full replay)", stats.Checkpoints)
	}
	if stats.Records != 15 {
		t.Errorf("Records = %d, want 15", stats.Records)
	}
	if v := st3.Verdict("app.fb"); v.Channels.Reports.Detections != 10 {
		t.Errorf("full-replay Detections(app.fb) = %d, want 10", v.Channels.Reports.Detections)
	}
}

// TestCheckpointDedupRotationEquivalence: with a tiny dedup window and
// a dup-heavy stream crossing several generation rotations, a store
// that restarts through checkpoints must end in exactly the state of
// one that never restarted — the snapshot carries both generations,
// not an approximation.
func TestCheckpointDedupRotationEquivalence(t *testing.T) {
	mkEvents := func(lo, hi int) []report.Event {
		var evs []report.Event
		for i := lo; i < hi; i++ {
			// i%13 forces frequent dup hits and window churn.
			evs = append(evs, ev("app.rotck", fmt.Sprintf("b%d", i%13), fmt.Sprintf("u%d", i%5)))
		}
		return evs
	}
	feed := func(st *Store, lo, hi int) (int, int) {
		a, d, err := st.Ingest(mkEvents(lo, hi))
		if err != nil {
			t.Fatal(err)
		}
		return a, d
	}

	// Control: one store lifetime, no restarts, no checkpoints.
	plain, _ := mustOpen(t, Config{Dir: t.TempDir(), Shards: 1, DedupWindow: 8, CheckpointEvery: -1, MaxBatch: 1})
	ap1, dp1 := feed(plain, 0, 40)
	ap2, dp2 := feed(plain, 40, 80)
	wantVerdict := plain.Verdict("app.rotck")
	plain.Close()

	// Same stream, but with a checkpointed restart in the middle.
	dir := t.TempDir()
	cfg := Config{Dir: dir, Shards: 1, DedupWindow: 8, CheckpointEvery: 7, MaxBatch: 1}
	st, _ := mustOpen(t, cfg)
	ac1, dc1 := feed(st, 0, 40)
	st.Close()
	st2, stats := mustOpen(t, cfg)
	if stats.Checkpoints != 1 {
		t.Fatalf("restart did not use a checkpoint (stats %+v)", stats)
	}
	ac2, dc2 := feed(st2, 40, 80)
	got := st2.Verdict("app.rotck")
	st2.Close()

	if ac1 != ap1 || dc1 != dp1 || ac2 != ap2 || dc2 != dp2 {
		t.Errorf("accept/dup sequence diverged: plain (%d,%d)+(%d,%d), checkpointed (%d,%d)+(%d,%d)",
			ap1, dp1, ap2, dp2, ac1, dc1, ac2, dc2)
	}
	if got != wantVerdict {
		t.Errorf("verdict diverged: plain %+v, checkpointed %+v", wantVerdict, got)
	}

	// And a full replay of the same log (checkpoints deleted) agrees too.
	ckpts, _ := filepath.Glob(filepath.Join(dir, "shard-000", "ckpt-????????"))
	for _, p := range ckpts {
		os.Remove(p)
	}
	st3, stats := mustOpen(t, Config{Dir: dir, Shards: 1, DedupWindow: 8, CheckpointEvery: -1, MaxBatch: 1})
	defer st3.Close()
	if stats.Checkpoints != 0 {
		t.Fatalf("expected full replay, got %+v", stats)
	}
	if v := st3.Verdict("app.rotck"); v != wantVerdict {
		t.Errorf("full replay verdict %+v, want %+v", v, wantVerdict)
	}
}

// TestCheckpointPhasesEveryCheckpoint: with checkpoints mid-run as
// well as at Close, every checkpoint observes each phase of
// market_checkpoint_phase_us exactly once, and the phases sum to no
// more than market_checkpoint_us.
func TestCheckpointPhasesEveryCheckpoint(t *testing.T) {
	reg := obs.NewRegistry()
	st, _ := mustOpen(t, Config{Dir: t.TempDir(), Shards: 1, CheckpointEvery: 10, Obs: reg})
	for i := 0; i < 5; i++ {
		writeEvents(t, st, fmt.Sprintf("app.phase%d", i), 12)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	n := reg.Counter(obs.L("market_checkpoints_total", "shard", "0")).Value()
	if n < 2 {
		t.Fatalf("market_checkpoints_total = %d, want several", n)
	}
	hUs := reg.Histogram(obs.L("market_checkpoint_us", "shard", "0"), obs.ExpBuckets(50, 4, 12), obs.Volatile())
	var phaseSum int64
	for _, phase := range ckptPhases {
		h := reg.Histogram(obs.L("market_checkpoint_phase_us", "shard", "0", "phase", phase), obs.ExpBuckets(50, 4, 12), obs.Volatile())
		if h.Count() != n {
			t.Errorf("phase %q observed %d times over %d checkpoints", phase, h.Count(), n)
		}
		phaseSum += h.Sum()
	}
	if phaseSum > hUs.Sum() {
		t.Errorf("checkpoint phases sum to %dus, more than the %dus total", phaseSum, hUs.Sum())
	}
}

// TestWALSegmentsGauge: market_wal_segments counts the segment files
// on disk — set at open, raised by rotation, lowered by the
// compaction behind a checkpoint.
func TestWALSegmentsGauge(t *testing.T) {
	dir := t.TempDir()
	shardDir := filepath.Join(dir, "shard-000")
	onDisk := func() int64 {
		segs, _ := filepath.Glob(filepath.Join(shardDir, "wal-*.log"))
		return int64(len(segs))
	}
	open := func() (*Store, *obs.Gauge) {
		reg := obs.NewRegistry()
		st, _ := mustOpen(t, Config{Dir: dir, Shards: 1, SegmentBytes: 256, CheckpointEvery: 1000, CheckpointBytes: 1 << 30, Obs: reg})
		return st, reg.Gauge(obs.L("market_wal_segments", "shard", "0"), obs.Volatile())
	}
	st, g := open()
	if g.Value() != 1 {
		t.Fatalf("fresh store: gauge = %d, want 1", g.Value())
	}
	for i := 0; i < 20; i++ {
		writeEvents(t, st, fmt.Sprintf("app.seg%d", i), 3) // each commit rotates a 256-byte segment
	}
	before := g.Value()
	if before < 10 || before != onDisk() {
		t.Fatalf("after rotations: gauge = %d, %d segment files on disk", before, onDisk())
	}
	if err := st.Close(); err != nil { // the farewell checkpoint compacts
		t.Fatal(err)
	}
	if after := g.Value(); after >= before || after != onDisk() {
		t.Fatalf("after a compacting checkpoint: gauge = %d (was %d), %d segment files on disk", after, before, onDisk())
	}
	st, g = open()
	defer st.Close()
	if g.Value() != onDisk() {
		t.Fatalf("reopened: gauge = %d, %d segment files on disk", g.Value(), onDisk())
	}
}

// sealCheckpoint wraps body in the magic, length and a valid CRC, so
// only the structural checks can reject it.
func sealCheckpoint(body []byte) []byte {
	out := append([]byte(ckptMagic), make([]byte, 8)...)
	binary.LittleEndian.PutUint32(out[len(ckptMagic):], uint32(len(body)))
	binary.LittleEndian.PutUint32(out[len(ckptMagic)+4:], crc32.Checksum(body, castagnoli))
	return append(out, body...)
}

// hugeAppsCheckpoint is a 60-byte checkpoint with a valid CRC whose
// apps section claims 2^32−1 entries. A decoder that sizes its map
// from the count before checking the bytes left exhausts memory.
func hugeAppsCheckpoint() []byte {
	body := make([]byte, 44)
	binary.LittleEndian.PutUint32(body[28:], 1<<32-1)
	return sealCheckpoint(body)
}

// TestDecodeCheckpointHugeCounts: a count no remaining bytes could
// hold, in any section, is errBadCheckpoint — before anything is
// allocated from it.
func TestDecodeCheckpointHugeCounts(t *testing.T) {
	raw := hugeAppsCheckpoint()
	if len(raw) != 60 {
		t.Fatalf("regression file is %d bytes, want 60", len(raw))
	}
	if _, err := decodeCheckpoint(raw); !errors.Is(err, errBadCheckpoint) {
		t.Fatalf("2^32-1 apps: err = %v, want errBadCheckpoint", err)
	}
	// The empty checkpoint's body is the 28-byte header and five zero
	// counts: apps, cur, prev, timelines, fingerprints.
	empty := (&checkpoint{}).encode()[len(ckptMagic)+8:]
	for i, section := range []string{"apps", "cur", "prev", "timelines", "fingerprints"} {
		body := append(append([]byte(nil), empty...), make([]byte, 12)...)
		binary.LittleEndian.PutUint32(body[28+4*i:], 1<<32-1)
		if _, err := decodeCheckpoint(sealCheckpoint(body)); !errors.Is(err, errBadCheckpoint) {
			t.Errorf("%s count 2^32-1: err = %v, want errBadCheckpoint", section, err)
		}
	}
	// A generation that names one key twice is not a set.
	dup := &checkpoint{apps: map[string]int64{}, cur: keySetOf("k")}
	dup.cur.slab = append(dup.cur.slab, dup.cur.slab...)
	dup.cur.n = 2
	if _, err := decodeCheckpoint(dup.encode()); !errors.Is(err, errBadCheckpoint) {
		t.Errorf("duplicate dedup key: err = %v, want errBadCheckpoint", err)
	}
}

// realCheckpoint returns the farewell checkpoint of a small shard that
// has rotated its dedup window and holds tallies, evicting timelines
// and fingerprints.
func realCheckpoint(tb testing.TB) []byte {
	dir := tb.TempDir()
	st, _, err := Open(Config{Dir: dir, Shards: 1, DedupWindow: 6, TimelineCap: 4, Threshold: 2})
	if err != nil {
		tb.Fatal(err)
	}
	feedState(tb, st, 2)
	if err := st.Close(); err != nil {
		tb.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(dir, "shard-000", ckptName(1)))
	if err != nil {
		tb.Fatal(err)
	}
	return raw
}

// feedState ingests a fixed stream of batches of ten events —
// tallies, duplicates, out-of-order event times, dedup rotations — and
// two fingerprints.
func feedState(tb testing.TB, st *Store, batches int) {
	for b := 0; b < batches; b++ {
		var evs []report.Event
		for i := 0; i < 10; i++ {
			k := (b*7 + i*3) % 25
			evs = append(evs, tev(fmt.Sprintf("app.%d", k%3), fmt.Sprintf("b%d", k), int64((k*37)%50)))
		}
		if _, _, err := st.Ingest(evs); err != nil {
			tb.Fatal(err)
		}
	}
	for _, app := range []string{"app.1", "app.0"} {
		if _, err := st.PutFingerprint(Fingerprint{App: app, Digests: fpDigests(app, 2)}); err != nil {
			tb.Fatal(err)
		}
	}
}

// FuzzDecodeCheckpoint: any input is rejected with errBadCheckpoint, or
// it decodes, re-encodes and decodes again to the same state. Nothing
// panics and no count sizes an allocation past the input. Each input
// is tried as a whole file and, sealed with a valid CRC, as a body —
// the CRC would otherwise hide the structure from the mutator.
func FuzzDecodeCheckpoint(f *testing.F) {
	for _, raw := range [][]byte{hugeAppsCheckpoint(), realCheckpoint(f)} {
		f.Add(raw)
		f.Add(raw[len(ckptMagic)+8:])
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		for _, raw := range [][]byte{in, sealCheckpoint(in)} {
			c, err := decodeCheckpoint(raw)
			if err != nil {
				if !errors.Is(err, errBadCheckpoint) {
					t.Fatalf("decode error %v does not wrap errBadCheckpoint", err)
				}
				continue
			}
			again, err := decodeCheckpoint(c.encode())
			if err != nil {
				t.Fatalf("re-encoded checkpoint does not decode: %v", err)
			}
			if !reflect.DeepEqual(c, again) {
				t.Fatalf("state changed across re-encode:\n first %+v\n again %+v", c, again)
			}
		}
	})
}

// TestCheckpointBytesDeterministic: two stores fed the same events
// write byte-identical checkpoint files — sections in sorted app
// order, dedup keys in admission order.
func TestCheckpointBytesDeterministic(t *testing.T) {
	dirs := []string{t.TempDir(), t.TempDir()}
	for _, dir := range dirs {
		st, _ := mustOpen(t, Config{Dir: dir, Shards: 2, DedupWindow: 16, TimelineCap: 8, Threshold: 2})
		feedState(t, st, 6)
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
	}
	for shard := 0; shard < 2; shard++ {
		name := filepath.Join(fmt.Sprintf("shard-%03d", shard), ckptName(1))
		a, errA := os.ReadFile(filepath.Join(dirs[0], name))
		b, errB := os.ReadFile(filepath.Join(dirs[1], name))
		if errA != nil || errB != nil {
			t.Fatalf("reading %s: %v, %v", name, errA, errB)
		}
		if !bytes.Equal(a, b) {
			t.Errorf("%s differs between two stores fed the same events", name)
		}
	}
}

// TestCheckpointShuffledKeysRestore: checkpoints whose key sections are
// in any order — map order, as older writers left them — restore the
// same dedup answers as the insertion-ordered original.
func TestCheckpointShuffledKeysRestore(t *testing.T) {
	cfg := func(dir string) Config {
		return Config{Dir: dir, Shards: 1, DedupWindow: 16, TimelineCap: 8, Threshold: 2, MaxBatch: 1}
	}
	dirs := []string{t.TempDir(), t.TempDir()}
	for _, dir := range dirs {
		st, _ := mustOpen(t, cfg(dir))
		feedState(t, st, 6)
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
	}
	path := filepath.Join(dirs[1], "shard-000", ckptName(1))
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	c, err := decodeCheckpoint(raw)
	if err != nil {
		t.Fatal(err)
	}
	if c.prev.len() == 0 {
		t.Fatal("fixture never rotated its dedup window")
	}
	rng := rand.New(rand.NewSource(5))
	for _, set := range []*keySet{&c.cur, &c.prev} {
		keys := ksKeys(set)
		rng.Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
		*set = keySetOf(keys...)
	}
	shuffled := c.encode()
	if bytes.Equal(shuffled, raw) {
		t.Fatal("shuffle left the key sections in order")
	}
	if err := os.WriteFile(path, shuffled, 0o644); err != nil {
		t.Fatal(err)
	}

	// Both restored stores see one probe stream, one event per commit:
	// old keys, new keys, and enough of them to rotate again.
	var got [2][]string
	for i, dir := range dirs {
		st, stats := mustOpen(t, cfg(dir))
		if stats.Checkpoints != 1 {
			t.Fatalf("store %d did not restore its checkpoint: %+v", i, stats)
		}
		for k := 0; k < 60; k++ {
			a, d, err := st.Ingest([]report.Event{tev(fmt.Sprintf("app.%d", k%3), fmt.Sprintf("b%d", k%40), int64(k))})
			if err != nil {
				t.Fatal(err)
			}
			got[i] = append(got[i], fmt.Sprintf("%d/%d", a, d))
		}
		for app := 0; app < 3; app++ {
			got[i] = append(got[i], fmt.Sprintf("%+v", st.Timeline(fmt.Sprintf("app.%d", app))))
		}
		st.Close()
	}
	if !reflect.DeepEqual(got[0], got[1]) {
		t.Errorf("shuffled key order changed dedup answers:\n ordered  %v\n shuffled %v", got[0], got[1])
	}
}

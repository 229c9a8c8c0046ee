package market

import (
	"fmt"
	"os"
	"path/filepath"
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
		cur:     map[string]struct{}{"k1": {}, "": {}},
		prev:    map[string]struct{}{"older-key": {}},
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
	if _, ok := got.cur[""]; !ok || len(got.cur) != 2 {
		t.Errorf("cur round-trip: %v", got.cur)
	}
	if _, ok := got.prev["older-key"]; !ok {
		t.Errorf("prev round-trip: %v", got.prev)
	}

	empty := &checkpoint{seq: 1, pos: walPos{}, apps: map[string]int64{},
		cur: map[string]struct{}{}, prev: nil}
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

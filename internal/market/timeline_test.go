package market

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"bombdroid/internal/report"
)

// tev builds a timeline-test event with an explicit event time.
func tev(app, bomb string, atMs int64) report.Event {
	return report.Event{App: app, Bomb: bomb, User: "u", TimeMs: atMs, Info: "k"}
}

// requireMonotone asserts the timeline invariants every consumer leans
// on: event times sorted, counts strictly increasing, kinds exactly
// placed, and a header and final count that agree with the verdict's
// reports channel — the timeline is that channel's history, so the
// fused flag (which similarity can raise) is never compared.
func requireMonotone(t *testing.T, st *Store, tl Timeline) {
	t.Helper()
	thr := int64(tl.Threshold)
	var prevAt, prevCount int64 = -1 << 62, 0
	for i, e := range tl.Entries {
		if e.AtMs < prevAt {
			t.Fatalf("entry %d: at_ms %d < previous %d", i, e.AtMs, prevAt)
		}
		if e.Count <= prevCount {
			t.Fatalf("entry %d: count %d not above previous %d", i, e.Count, prevCount)
		}
		// "threshold" marks the crossing (it wins over "first" when the
		// very first report crosses); "first" marks entry 0 otherwise;
		// everything else is "report".
		want := "report"
		switch {
		case e.Count >= thr && prevCount < thr:
			want = "threshold"
		case i == 0:
			want = "first"
		}
		if e.Kind != want {
			t.Fatalf("entry %d (count %d) has kind %q, want %q", i, e.Count, e.Kind, want)
		}
		prevAt, prevCount = e.AtMs, e.Count
	}
	rc := st.Verdict(tl.App).Channels.Reports
	if tl.Threshold != rc.Threshold || tl.Detections != rc.Detections || tl.Repackaged != rc.Flagged {
		t.Fatalf("timeline (%d, %d, %v) disagrees with reports channel (%d, %d, %v)",
			tl.Threshold, tl.Detections, tl.Repackaged, rc.Threshold, rc.Detections, rc.Flagged)
	}
	if prevCount != rc.Detections {
		t.Fatalf("final count %d != verdict detections %d", prevCount, rc.Detections)
	}
	if crossed := tl.TimeToVerdictMs >= 0; crossed != rc.Flagged {
		t.Fatalf("time_to_verdict_ms = %d but reports channel flagged = %v", tl.TimeToVerdictMs, rc.Flagged)
	}
}

func TestTimelineBasic(t *testing.T) {
	st, _ := mustOpen(t, Config{Dir: t.TempDir(), Shards: 2, Threshold: 3})
	defer st.Close()

	// Submit out of event-time order: the timeline must still come back
	// sorted by event time with exact cumulative counts.
	evs := []report.Event{
		tev("app.tl", "b3", 3000),
		tev("app.tl", "b1", 1000),
		tev("app.tl", "b5", 5000),
		tev("app.tl", "b2", 2000),
		tev("app.tl", "b4", 4000),
	}
	if _, _, err := st.Ingest(evs); err != nil {
		t.Fatal(err)
	}

	tl := st.Timeline("app.tl")
	requireMonotone(t, st, tl)
	if len(tl.Entries) != 5 || tl.Evicted != 0 {
		t.Fatalf("entries = %d (evicted %d), want 5 (0)", len(tl.Entries), tl.Evicted)
	}
	if tl.Entries[0].Kind != "first" || tl.Entries[0].AtMs != 1000 {
		t.Errorf("first entry = %+v, want kind first at 1000", tl.Entries[0])
	}
	// Threshold 3 crosses at the third-earliest report, event time 3000.
	if tl.Entries[2].Kind != "threshold" || tl.Entries[2].AtMs != 3000 {
		t.Errorf("threshold entry = %+v, want crossing at 3000", tl.Entries[2])
	}
	if tl.TimeToVerdictMs != 2000 {
		t.Errorf("time_to_verdict_ms = %d, want 2000", tl.TimeToVerdictMs)
	}
	if !tl.Repackaged || tl.Detections != 5 {
		t.Errorf("verdict summary = (%d, %v), want (5, true)", tl.Detections, tl.Repackaged)
	}

	// Unknown apps get an empty, not-crossed timeline.
	empty := st.Timeline("app.unknown")
	if len(empty.Entries) != 0 || empty.Repackaged || empty.TimeToVerdictMs != -1 {
		t.Errorf("unknown-app timeline = %+v, want empty", empty)
	}
}

// TestTimelineHeadRetention: with far more reports than TimelineCap,
// the head (earliest Threshold entries, with the first report and the
// threshold crossing) survives eviction with exact counts, the merged
// count still ends at the verdict tally, and Evicted reports the gap.
func TestTimelineHeadRetention(t *testing.T) {
	st, _ := mustOpen(t, Config{Dir: t.TempDir(), Shards: 2, Threshold: 3, TimelineCap: 8})
	defer st.Close()

	const n = 100
	evs := make([]report.Event, 0, n)
	for i := 0; i < n; i++ {
		evs = append(evs, tev("app.big", fmt.Sprintf("b%03d", i), int64(1000+i*10)))
	}
	if _, _, err := st.Ingest(evs); err != nil {
		t.Fatal(err)
	}

	tl := st.Timeline("app.big")
	requireMonotone(t, st, tl)
	if tl.Detections != n {
		t.Fatalf("detections = %d, want %d", tl.Detections, n)
	}
	if tl.Evicted == 0 {
		t.Fatal("expected mid-history eviction at cap 8 with 100 reports")
	}
	retained := 0
	for _, s := range st.shards {
		entries, _ := s.tlSnapshot("app.big")
		if len(entries) > st.cfg.TimelineCap {
			t.Fatalf("shard holds %d entries past cap %d", len(entries), st.cfg.TimelineCap)
		}
		retained += len(entries)
	}
	if int64(retained)+tl.Evicted != n {
		t.Fatalf("retained %d + evicted %d != %d admitted", retained, tl.Evicted, n)
	}
	// Head exactness: entries 1..3 are the globally earliest reports,
	// so the crossing is at the 3rd event time with count exactly 3.
	if tl.Entries[0].AtMs != 1000 || tl.Entries[0].Count != 1 {
		t.Errorf("first entry = %+v, want count 1 at 1000", tl.Entries[0])
	}
	if tl.Entries[2].Kind != "threshold" || tl.Entries[2].AtMs != 1020 || tl.Entries[2].Count != 3 {
		t.Errorf("threshold entry = %+v, want count 3 at 1020", tl.Entries[2])
	}
	if tl.TimeToVerdictMs != 20 {
		t.Errorf("time_to_verdict_ms = %d, want 20", tl.TimeToVerdictMs)
	}
	// The tail is the latest reports; the final entry is the last event.
	if last := tl.Entries[len(tl.Entries)-1]; last.AtMs != int64(1000+(n-1)*10) || last.Count != n {
		t.Errorf("last entry = %+v, want count %d at %d", last, n, 1000+(n-1)*10)
	}
}

// TestTimelineOrderIndependence: the served timeline is a pure
// function of the admitted multiset — feeding the same events in
// shuffled orders and batchings yields byte-identical JSON.
func TestTimelineOrderIndependence(t *testing.T) {
	const n = 60
	base := make([]report.Event, 0, n)
	for i := 0; i < n; i++ {
		// Duplicate event times exercise the tie hash.
		base = append(base, tev("app.ord", fmt.Sprintf("b%03d", i), int64(1000+(i%7)*10)))
	}

	serve := func(seed int64) string {
		st, _ := mustOpen(t, Config{Dir: t.TempDir(), Shards: 2, Threshold: 3, TimelineCap: 16})
		defer st.Close()
		evs := append([]report.Event(nil), base...)
		rng := rand.New(rand.NewSource(seed))
		rng.Shuffle(len(evs), func(i, j int) { evs[i], evs[j] = evs[j], evs[i] })
		for len(evs) > 0 {
			k := 1 + rng.Intn(5)
			if k > len(evs) {
				k = len(evs)
			}
			if _, _, err := st.Ingest(evs[:k]); err != nil {
				t.Fatal(err)
			}
			evs = evs[k:]
		}
		tl := st.Timeline("app.ord")
		requireMonotone(t, st, tl)
		b, err := json.Marshal(tl)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}

	want := serve(1)
	for seed := int64(2); seed <= 5; seed++ {
		if got := serve(seed); got != want {
			t.Fatalf("seed %d timeline diverged:\n got %s\nwant %s", seed, got, want)
		}
	}
}

// TestTimelineRestartIdentical: a clean restart (checkpoint restore,
// no tail) and a checkpoint-less restart (full WAL replay) both serve
// timelines byte-identical to the pre-restart store's.
func TestTimelineRestartIdentical(t *testing.T) {
	for _, ckpt := range []int{0, -1} { // default cadence vs. disabled
		name := "checkpoint"
		if ckpt < 0 {
			name = "full-replay"
		}
		t.Run(name, func(t *testing.T) {
			cfg := Config{Dir: t.TempDir(), Shards: 2, Threshold: 3,
				TimelineCap: 8, CheckpointEvery: ckpt}
			st, _ := mustOpen(t, cfg)
			for i := 0; i < 50; i++ {
				if _, _, err := st.Ingest([]report.Event{
					tev("app.rs", fmt.Sprintf("b%03d", i), int64(1000+i*3)),
				}); err != nil {
					t.Fatal(err)
				}
			}
			want, err := json.Marshal(st.Timeline("app.rs"))
			if err != nil {
				t.Fatal(err)
			}
			if err := st.Close(); err != nil {
				t.Fatal(err)
			}

			st2, _ := mustOpen(t, cfg)
			defer st2.Close()
			got, err := json.Marshal(st2.Timeline("app.rs"))
			if err != nil {
				t.Fatal(err)
			}
			if string(got) != string(want) {
				t.Fatalf("timeline changed across restart:\n got %s\nwant %s", got, want)
			}
		})
	}
}

// TestCheckpointTimelineRoundTrip covers the BDCKPT3 timelines section
// of the binary codec, including an empty timeline map and a v1-magic
// file being rejected outright.
func TestCheckpointTimelineRoundTrip(t *testing.T) {
	c := &checkpoint{
		seq:  3,
		pos:  walPos{Seg: 1, Off: 77},
		apps: map[string]int64{"a": 2},
		cur:  keySetOf("k"),
		tls: map[string]*appTimeline{
			"a": {head: []tlEntry{{at: 5, tie: 9}, {at: 7, tie: 1}}, evicted: 4},
			"b": {},
		},
	}
	got, err := decodeCheckpoint(c.encode())
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !reflect.DeepEqual(got.tls["a"], c.tls["a"]) {
		t.Errorf("timeline a round-trip: got %+v, want %+v", got.tls["a"], c.tls["a"])
	}
	if tl := got.tls["b"]; tl == nil || len(tl.head) != 0 || tl.evicted != 0 {
		t.Errorf("empty timeline b round-trip: %+v", tl)
	}

	// A nil tls map (as old in-memory states might build) encodes as a
	// zero-count section and decodes to an empty map.
	noTL := &checkpoint{seq: 1, apps: map[string]int64{}}
	got, err = decodeCheckpoint(noTL.encode())
	if err != nil {
		t.Fatalf("decode nil-tls: %v", err)
	}
	if got.tls == nil || len(got.tls) != 0 {
		t.Errorf("nil-tls decode = %v, want empty map", got.tls)
	}

	// A v1 file (old magic) must fail the magic check, not mis-decode.
	enc := c.encode()
	v1 := append([]byte("BDCKPT1\n"), enc[len(ckptMagic):]...)
	if _, err := decodeCheckpoint(v1); err == nil {
		t.Error("v1-magic checkpoint decoded under v3")
	}

	// An entry count claiming more than the remaining bytes must fail
	// cleanly instead of allocating or over-reading — with the CRC
	// recomputed so the structural guard, not the checksum, catches it.
	single := &checkpoint{seq: 1, apps: map[string]int64{},
		tls: map[string]*appTimeline{"a": {head: []tlEntry{{at: 5, tie: 9}}}}}
	bad := single.encode()
	body := bad[len(ckptMagic)+8:]
	// The entry count sits before the 16-byte entry and the trailing
	// empty fingerprint section (4 bytes).
	binary.LittleEndian.PutUint32(body[len(body)-4-16-4:], 1<<20) // inflate entry count
	binary.LittleEndian.PutUint32(bad[len(ckptMagic)+4:], crc32.Checksum(body, castagnoli))
	if _, err := decodeCheckpoint(bad); err == nil {
		t.Error("oversized entry count decoded")
	}
}

// oracleTimeline is the sorted-slice timeline the head-plus-ring one
// replaced, kept as the reference it must match: insert in (at, tie)
// order, then past cap drop the entry at index h.
type oracleTimeline struct {
	entries []tlEntry
	evicted int64
}

func (o *oracleTimeline) insert(e tlEntry, h, cap int) {
	i := sort.Search(len(o.entries), func(i int) bool { return !tlLess(o.entries[i], e) })
	o.entries = append(o.entries, tlEntry{})
	copy(o.entries[i+1:], o.entries[i:])
	o.entries[i] = e
	if len(o.entries) > cap {
		o.entries = append(o.entries[:h], o.entries[h+1:]...)
		o.evicted++
	}
}

// TestTimelineRingMatchesOracle feeds random arrival orders — in
// order, reversed, shuffled, with late stragglers and repeated
// entries — to the ring timeline and the oracle, over random caps and
// head lengths, and requires identical entries and evicted counts
// after every insert. Some runs start from a flat timeline of any
// length, split as a checkpoint load splits it, which covers a tail
// longer than the ring's room.
func TestTimelineRingMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 3000; trial++ {
		cap := 1 + rng.Intn(24)
		h := rng.Intn(cap)
		n := rng.Intn(120)
		times := make([]tlEntry, n)
		for i := range times {
			times[i] = tlEntry{at: int64(rng.Intn(40)), tie: uint64(rng.Intn(4))}
		}
		switch rng.Intn(4) {
		case 0:
			sort.Slice(times, func(i, j int) bool { return tlLess(times[i], times[j]) })
		case 1:
			sort.Slice(times, func(i, j int) bool { return tlLess(times[j], times[i]) })
		case 2:
			// Mostly in order, a few late arrivals.
			sort.Slice(times, func(i, j int) bool { return tlLess(times[i], times[j]) })
			for k := 0; k < n/8; k++ {
				i, j := rng.Intn(n), rng.Intn(n)
				times[i], times[j] = times[j], times[i]
			}
		}
		var tl appTimeline
		var o oracleTimeline
		if rng.Intn(3) == 0 {
			flat := make([]tlEntry, rng.Intn(cap+6))
			for i := range flat {
				flat[i] = tlEntry{at: int64(rng.Intn(40)), tie: uint64(rng.Intn(4))}
			}
			sort.Slice(flat, func(i, j int) bool { return tlLess(flat[i], flat[j]) })
			ev := int64(rng.Intn(5))
			o = oracleTimeline{entries: append([]tlEntry(nil), flat...), evicted: ev}
			tl = appTimeline{head: flat, evicted: ev}
			tl.split(h)
		}
		for i, e := range times {
			tl.insert(e, h, cap-h)
			o.insert(e, h, cap)
			got := tl.appendEntries(nil)
			if !reflect.DeepEqual(got, o.entries) && (len(got) != 0 || len(o.entries) != 0) || tl.evicted != o.evicted {
				t.Fatalf("trial %d (cap %d, head %d) after insert %d of %v:\n ring   %v evicted %d\n oracle %v evicted %d",
					trial, cap, h, i, e, got, tl.evicted, o.entries, o.evicted)
			}
		}
	}
}

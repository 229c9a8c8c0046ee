package obs

import (
	"testing"
)

// TestMergeIntoLabeledSeriesStayDistinct: merging registries must
// treat same-name-different-labels series as distinct metrics — the
// label set is part of the identity, not decoration.
func TestMergeIntoLabeledSeriesStayDistinct(t *testing.T) {
	a := NewRegistry()
	b := NewRegistry()
	a.Counter(L("ingest_total", "shard", "0")).Add(5)
	a.Counter(L("ingest_total", "shard", "1")).Add(7)
	b.Counter(L("ingest_total", "shard", "0")).Add(11)
	b.Counter(L("ingest_total", "shard", "2")).Add(13)

	dst := NewRegistry()
	a.MergeInto(dst)
	b.MergeInto(dst)

	snap := dst.Snapshot()
	want := map[string]int64{
		`ingest_total{shard="0"}`: 16,
		`ingest_total{shard="1"}`: 7,
		`ingest_total{shard="2"}`: 13,
	}
	for name, n := range want {
		if got := snap.Counters[name]; got != n {
			t.Errorf("%s = %d, want %d", name, got, n)
		}
	}
	if len(snap.Counters) != len(want) {
		t.Errorf("got %d counters (%v), want %d", len(snap.Counters), snap.Counters, len(want))
	}
}

func TestMergeIntoLabeledHistogramsExact(t *testing.T) {
	bounds := []int64{10, 100}
	a := NewRegistry()
	b := NewRegistry()
	a.Histogram(L("lat_us", "node", "n0"), bounds).Observe(5)
	a.Histogram(L("lat_us", "node", "n0"), bounds).Observe(50)
	b.Histogram(L("lat_us", "node", "n0"), bounds).Observe(500)
	b.Histogram(L("lat_us", "node", "n1"), bounds).Observe(7)

	dst := NewRegistry()
	// Merge order must not matter.
	b.MergeInto(dst)
	a.MergeInto(dst)

	snap := dst.Snapshot()
	h0 := snap.Histograms[`lat_us{node="n0"}`]
	if h0.Count != 3 || h0.Sum != 555 {
		t.Errorf(`lat_us{node="n0"} count/sum = %d/%d, want 3/555`, h0.Count, h0.Sum)
	}
	if got := h0.Buckets[0].N; got != 1 { // ≤10: the 5
		t.Errorf("bucket le=10 = %d, want 1", got)
	}
	h1 := snap.Histograms[`lat_us{node="n1"}`]
	if h1.Count != 1 || h1.Sum != 7 {
		t.Errorf(`lat_us{node="n1"} count/sum = %d/%d, want 1/7`, h1.Count, h1.Sum)
	}
}

func TestMergeIntoPreservesVolatility(t *testing.T) {
	src := NewRegistry()
	src.Counter("flaky_total", Volatile()).Add(3)
	src.Counter("stable_total").Add(4)
	dst := NewRegistry()
	src.MergeInto(dst)
	det := dst.SnapshotDeterministic()
	if _, ok := det.Counters["flaky_total"]; ok {
		t.Error("volatile counter leaked into the deterministic snapshot after merge")
	}
	if det.Counters["stable_total"] != 4 {
		t.Errorf("stable_total = %d, want 4", det.Counters["stable_total"])
	}
}

func windowTotals(w *WindowedHistogram) (retained int64, windows []int64) {
	for _, ws := range w.Windows() {
		retained += ws.Hist.Count
		windows = append(windows, ws.Index)
	}
	return retained, windows
}

// TestWindowedMergeDisjointWindows: windows merge by absolute index,
// so two sources observing different periods interleave losslessly.
func TestWindowedMergeDisjointWindows(t *testing.T) {
	bounds := []int64{10, 100}
	a := NewWindowedHistogram(bounds, 1000, 8)
	b := NewWindowedHistogram(bounds, 1000, 8)
	a.Observe(5, 0)     // window 0
	a.Observe(5, 2500)  // window 2
	b.Observe(50, 1200) // window 1
	b.Observe(50, 3700) // window 3

	dst := NewWindowedHistogram(bounds, 1000, 8)
	a.MergeInto(dst)
	b.MergeInto(dst)

	retained, windows := windowTotals(dst)
	if retained != 4 {
		t.Fatalf("retained = %d, want 4", retained)
	}
	if len(windows) != 4 || windows[0] != 0 || windows[3] != 3 {
		t.Fatalf("windows = %v, want [0 1 2 3]", windows)
	}
	if dst.Dropped() != 0 {
		t.Errorf("dropped = %d, want 0", dst.Dropped())
	}

	// Same-index windows add bucket-wise.
	c := NewWindowedHistogram(bounds, 1000, 8)
	c.Observe(500, 1100) // window 1 again
	c.MergeInto(dst)
	for _, ws := range dst.Windows() {
		if ws.Index == 1 && (ws.Hist.Count != 2 || ws.Hist.Sum != 550) {
			t.Errorf("window 1 count/sum = %d/%d, want 2/550", ws.Hist.Count, ws.Hist.Sum)
		}
	}
}

// TestWindowedMergeRespectsHorizon: a merge that advances the horizon
// evicts stale windows on both sides into the dropped count — exactly
// what would have happened had the observations arrived late.
func TestWindowedMergeRespectsHorizon(t *testing.T) {
	bounds := []int64{10}
	old := NewWindowedHistogram(bounds, 1000, 2) // keep 2 windows
	old.Observe(1, 0)                            // window 0 — far behind by merge time
	old.Observe(1, 1000)

	fresh := NewWindowedHistogram(bounds, 1000, 2)
	fresh.Observe(1, 9000) // window 9

	dst := NewWindowedHistogram(bounds, 1000, 2)
	old.MergeInto(dst)   // dst now holds windows 0 and 1
	fresh.MergeInto(dst) // horizon jumps to window 9; 0 and 1 fall out

	retained, windows := windowTotals(dst)
	if retained != 1 || len(windows) != 1 || windows[0] != 9 {
		t.Fatalf("retained/windows = %d/%v, want 1/[9]", retained, windows)
	}
	if dst.Dropped() != 2 {
		t.Errorf("dropped = %d, want 2 (both stale windows folded)", dst.Dropped())
	}

	// Commutativity of the totals: merging in the other order retains
	// the same windows and the same retained+dropped accounting.
	dst2 := NewWindowedHistogram(bounds, 1000, 2)
	fresh.MergeInto(dst2)
	old.MergeInto(dst2)
	retained2, windows2 := windowTotals(dst2)
	if retained2 != retained || len(windows2) != len(windows) || windows2[0] != windows[0] {
		t.Errorf("order-dependent retention: %d/%v vs %d/%v", retained, windows, retained2, windows2)
	}
	if dst2.Dropped() != dst.Dropped() {
		t.Errorf("order-dependent drops: %d vs %d", dst.Dropped(), dst2.Dropped())
	}
}

func TestWindowedMergeCarriesDroppedCounts(t *testing.T) {
	bounds := []int64{10}
	src := NewWindowedHistogram(bounds, 1000, 2)
	src.Observe(1, 5000)
	src.Observe(1, 100) // straggler: dropped at the source
	if src.Dropped() != 1 {
		t.Fatalf("source dropped = %d, want 1", src.Dropped())
	}
	dst := NewWindowedHistogram(bounds, 1000, 2)
	src.MergeInto(dst)
	if dst.Dropped() != 1 {
		t.Errorf("dropped = %d, want the source's straggler carried over", dst.Dropped())
	}
}

func TestWindowedMergeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("merging mismatched widths did not panic")
		}
	}()
	a := NewWindowedHistogram([]int64{10}, 1000, 2)
	b := NewWindowedHistogram([]int64{10}, 2000, 2)
	a.MergeInto(b)
}

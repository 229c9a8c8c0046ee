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

package main

import (
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"sort"
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	for _, tc := range []struct{ q, want float64 }{
		{0.01, 1}, {0.1, 1}, {0.11, 2}, {0.5, 5}, {0.9, 9}, {0.91, 10}, {1, 10},
	} {
		if got := percentile(xs, tc.q); got != tc.want {
			t.Errorf("percentile(%v) = %v, want %v", tc.q, got, tc.want)
		}
	}
	if xs[0] != 10 {
		t.Error("percentile sorted its input in place")
	}
	hundred := make([]float64, 100)
	for i := range hundred {
		hundred[i] = float64(i + 1)
	}
	if got := percentile(hundred, 0.9); got != 90 {
		t.Errorf("p90 of 1..100 = %v, want 90", got)
	}
	if percentile(nil, 0.5) != 0 {
		t.Error("percentile of no samples is not 0")
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(data, n=4) for each input.
	for _, tc := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{4, 1, 3, 2}, [3]float64{1.25, 2.5, 3.75}},
		{[]float64{2, 1}, [3]float64{0.75, 1.5, 2.25}}, // the method extrapolates
		{[]float64{7}, [3]float64{7, 7, 7}},
	} {
		q1, q2, q3 := quartiles(tc.xs)
		if [3]float64{q1, q2, q3} != tc.want {
			t.Errorf("quartiles(%v) = %v %v %v, want %v", tc.xs, q1, q2, q3, tc.want)
		}
	}
}

func TestTailRankKeepsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{5, 0.5}, {39, 0.5}, {40, 0.75}, {99, 0.75}, {100, 0.9}, {999, 0.9}, {1000, 0.99}, {10_000, 0.999},
	} {
		if got := tailRank(tc.n); got != tc.want {
			t.Errorf("tailRank(%d) = %v, want %v", tc.n, got, tc.want)
		}
	}
}

func TestOpenLoopTimesFromDueTime(t *testing.T) {
	// One worker at 100 requests/s: request 0 stalls for 60 ms, so
	// requests 1–5 fall due while the worker is busy and go out late.
	const rate = 100
	stall := 60 * time.Millisecond
	start, reqs := openLoop(context.Background(), 8, rate, 1, func(_, i int, send func() time.Time) error {
		send()
		if i == 0 {
			time.Sleep(stall)
		}
		return nil
	})
	for i, r := range reqs {
		want := start.Add(time.Duration(i) * time.Second / rate)
		if !r.due.Equal(want) {
			t.Fatalf("request %d due %v after start, want %v", i, r.due.Sub(start), want.Sub(start))
		}
	}
	// Request 1 was due at 10 ms and sent after the 60 ms stall: its
	// latency counts the wait, not just its own (near-zero) service.
	if got := reqs[1].latencyMs(); got < 45 {
		t.Errorf("request 1 latency %.1f ms, want at least the 50 ms it waited", got)
	}
	if got := reqs[1].lateMs(); got < 45 {
		t.Errorf("request 1 sent %.1f ms late, want at least 45", got)
	}
	counted, failed, latePct := openLoopStats(start, reqs, 15*time.Millisecond)
	if failed != 0 || len(counted) != 6 || counted[0] != 2 {
		t.Fatalf("stats: counted %v, %d failed; want requests 2–7, after the warm-up", counted, failed)
	}
	if latePct < 50 {
		t.Errorf("late share %.0f%%, want the stalled requests (1–5 of 2–7) counted late", latePct)
	}
}

func TestOpenLoopLatencyIsMedianOverWindows(t *testing.T) {
	m := newMeter(&config{seed: 1, seconds: 10})
	window := func(scale float64) []float64 {
		w := make([]float64, 100)
		for i := range w {
			w[i] = scale * float64(i+1)
		}
		return w
	}
	// One window in five is hit by a burst that makes it ten times slower.
	m.windows = [][]float64{window(1), window(10), window(1), {}, window(1), window(1)}
	for _, w := range m.windows {
		m.lat = append(m.lat, w...)
	}
	if got := m.latency(0.9); got != 90 {
		t.Errorf("windowed p90 = %v, want 90, the unhit windows' p90", got)
	}
	if got := percentile(m.lat, 0.9); got <= 90 {
		t.Errorf("whole-phase p90 = %v; the burst should have moved it", got)
	}
	m.windows = nil
	if got, want := m.latency(0.5), percentile(m.lat, 0.5); got != want {
		t.Errorf("closed-loop p50 = %v, want the plain percentile %v", got, want)
	}
}

func TestOpenLoopCountsFailures(t *testing.T) {
	start, reqs := openLoop(context.Background(), 4, 1000, 2, func(_, i int, send func() time.Time) error {
		send()
		if i%2 == 0 {
			return errors.New("refused")
		}
		return nil
	})
	counted, failed, _ := openLoopStats(start, reqs, 0)
	if failed != 2 || len(counted) != 2 {
		t.Errorf("%d failed, %d counted; want 2 and 2", failed, len(counted))
	}
}

func TestSelfTimeSubtractsUnionOfChildren(t *testing.T) {
	spans := []span{
		{id: 1, name: "bench", start: 0, end: 100},
		{id: 2, parent: 1, name: "a", start: 10, end: 40},
		{id: 3, parent: 1, name: "a", start: 30, end: 60},   // overlaps the first child
		{id: 4, parent: 1, name: "b", start: 90, end: 120},  // runs past its parent
		{id: 5, parent: 2, name: "c", start: 20, end: 25},   // grandchild
		{id: 6, parent: 9, name: "lost", start: 0, end: 50}, // parent never recorded
	}
	if got := covered(0, 100, spans[1:4]); got != 60 {
		t.Errorf("covered = %d, want 60 ([10,60) and [90,100))", got)
	}
	self, rootNs := selfTimes(spans)
	want := map[string]float64{"bench": 40, "a": 25 + 30, "b": 30, "c": 5, "lost": 50}
	for k, v := range want {
		if self[k] != v {
			t.Errorf("self[%s] = %v, want %v", k, self[k], v)
		}
	}
	if rootNs != 100 {
		t.Errorf("root time %v, want 100", rootNs)
	}
}

func TestServerSharePerRoute(t *testing.T) {
	spans := []span{
		{id: 1, name: "bench", start: 0, end: 100},
		{id: 2, parent: 1, name: "http.client", route: "verdict", start: 10, end: 90},
		{id: 3, parent: 2, name: "market.handler", route: "verdict", start: 30, end: 70},
	}
	if got := serverShares(spans)["verdict"]; got != 50 {
		t.Errorf("verdict server share %v%%, want 50%%", got)
	}
}

func runs(vals ...float64) map[int64]float64 {
	m := map[int64]float64{}
	for i, v := range vals {
		m[int64(i+1)] = v
	}
	return m
}

func TestVerdicts(t *testing.T) {
	a := runs(100, 101, 99, 100, 102, 98, 100, 101, 99, 100)
	for _, tc := range []struct {
		name        string
		b           map[int64]float64
		lowerBetter bool
		want        string
	}{
		{"same", runs(101, 100, 100, 99, 102, 99, 100, 100, 101, 100), true, "same"},
		{"worse beyond bound", runs(112, 113, 111, 112, 114, 110, 112, 113, 111, 112), true, "worse"},
		{"worse within bound", runs(104, 105, 103, 104, 106, 102, 104, 105, 103, 104), true, "same"},
		{"better", runs(90, 91, 89, 90, 92, 88, 90, 91, 89, 90), true, "better"},
		{"higher is better", runs(90, 91, 89, 90, 92, 88, 90, 91, 89, 90), false, "worse"},
		{"spread beyond bound", runs(70, 130, 80, 120, 100, 60, 140, 100, 90, 110), true, "unresolved"},
		{"wide but every run better", runs(50, 80, 55, 75, 60, 65, 52, 78, 58, 70), true, "better"},
	} {
		if got, _, _ := verdict(a, tc.b, tc.lowerBetter, 0.08); got != tc.want {
			t.Errorf("%s: verdict %q, want %q", tc.name, got, tc.want)
		}
	}
}

func TestCompareFiles(t *testing.T) {
	dir := t.TempDir()
	bench := filepath.Join(dir, "BENCHMARK.json")
	os.WriteFile(bench, []byte(`{"end_to_end":[{"name":"op_p50_ms","unit":"ms","better":"lower","bound":0.1}]}`), 0o644)
	// write stores one run per value; bad(i) marks run i as having
	// failed a check and two of its operations.
	write := func(name string, bad func(i int) bool, vals ...float64) string {
		f, _ := os.Create(filepath.Join(dir, name))
		defer f.Close()
		for i, v := range vals {
			res := output{Correct: true, Attempted: 100, Metrics: map[string]metric{"op_p50_ms": {Value: v, Unit: "ms"}}}
			if bad(i) {
				res.Correct, res.Failed = false, 2
			}
			line, _ := json.Marshal(record{Workload: "w", Seed: int64(i), Result: res})
			f.Write(append(line, '\n'))
		}
		return f.Name()
	}
	none := func(int) bool { return false }
	base := write("a.jsonl", none, 10, 10.1, 9.9, 10, 10.2)
	for _, tc := range []struct {
		name string
		path string
		want bool
	}{
		{"unchanged runs", write("b.jsonl", none, 10, 10.1, 10, 9.9, 10), false},
		{"20% slower runs", write("c.jsonl", none, 12, 12.1, 12, 11.9, 12), true},
		// Faster, but one run failed its checks and dropped operations.
		{"an incorrect run", write("d.jsonl", func(i int) bool { return i == 3 }, 8, 8.1, 8, 7.9, 8), true},
	} {
		if regressed, err := compareFiles(nopWriter{}, bench, base, tc.path); err != nil || regressed != tc.want {
			t.Errorf("%s: regressed=%v err=%v, want regressed=%v", tc.name, regressed, err, tc.want)
		}
	}
	// More failed operations alone, every run passing its checks.
	more := filepath.Join(dir, "e.jsonl")
	line, _ := json.Marshal(record{Workload: "w", Seed: 0, Result: output{Correct: true, Attempted: 100, Failed: 1,
		Metrics: map[string]metric{"op_p50_ms": {Value: 9, Unit: "ms"}}}})
	os.WriteFile(more, append(line, '\n'), 0o644)
	if regressed, err := compareFiles(nopWriter{}, bench, base, more); err != nil || !regressed {
		t.Errorf("more failed operations: regressed=%v err=%v, want a regression", regressed, err)
	}
	// No verdict against a baseline that failed its own checks.
	if _, err := compareFiles(nopWriter{}, bench, write("f.jsonl", func(i int) bool { return i == 0 }, 10, 10, 10), base); err == nil {
		t.Error("an incorrect baseline run was compared without error")
	}
}

type nopWriter struct{}

func (nopWriter) Write(p []byte) (int, error) { return len(p), nil }

func TestCorruptedDigestIsCaught(t *testing.T) {
	c := &config{seed: 1, seconds: 10}
	pinned := baseline{DigestSeed: 1, DigestSeconds: 10, Digests: map[string]string{"protect": "3f9a"}}
	for _, tc := range []struct {
		digest string
		ok     bool
	}{{"3f9a", true}, {"3f9b", false}, {"", false}} {
		m := newMeter(c)
		m.digest = tc.digest
		pinned.checkDigest(m, "protect")
		if got := m.result().Correct; got != tc.ok {
			t.Errorf("digest %q: correct=%v, want %v", tc.digest, got, tc.ok)
		}
	}
	// Another seed or run length has no pinned digest to check.
	m := newMeter(&config{seed: 2, seconds: 10})
	m.digest = "3f9b"
	pinned.checkDigest(m, "protect")
	if !m.result().Correct {
		t.Error("a seed without a pinned digest failed the check")
	}
}

func TestBenchmarkJSONListsTheMetrics(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Skip("BENCHMARK.json not found:", err)
	}
	var spec struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if got, want := names, workloadNames(); !equal(got, want) {
		t.Errorf("BENCHMARK.json workloads %v, program runs %v", got, want)
	}
	for _, tc := range []struct {
		listed []struct{ Name, Unit string }
		defs   []metricDef
	}{{spec.EndToEnd, endToEnd}, {spec.PerLayer, perLayer}} {
		if len(tc.listed) != len(tc.defs) {
			t.Errorf("BENCHMARK.json lists %d metrics, program prints %d", len(tc.listed), len(tc.defs))
			continue
		}
		for i, d := range tc.defs {
			if tc.listed[i].Name != d.name || tc.listed[i].Unit != d.unit {
				t.Errorf("metric %d: BENCHMARK.json %s (%s), program %s (%s)",
					i, tc.listed[i].Name, tc.listed[i].Unit, d.name, d.unit)
			}
		}
	}
}

func equal(a, b []string) bool {
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

// TestSmoke runs every workload at a tiny scale — two apps, 2,500
// profiling events, one-second phases — with every output check, once
// untraced and once traced.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, name := range workloadNames() {
		for _, trace := range []bool{false, true} {
			c := &config{seed: 3, seconds: 1, trace: trace, workers: 2, dir: t.TempDir(), tiny: true}
			out, err := runWorkload(context.Background(), nopWriter{}, name, workloads[name], c)
			if err != nil {
				t.Fatalf("%s (trace %v): %v", name, trace, err)
			}
			if !out.Correct || out.Failed != 0 || out.Attempted == 0 {
				t.Errorf("%s (trace %v): correct=%v attempted=%d failed=%d", name, trace, out.Correct, out.Attempted, out.Failed)
			}
			want := endToEnd
			if trace {
				want = perLayer
			}
			if len(out.Metrics) != len(want) {
				t.Errorf("%s (trace %v): %d metrics, want %d", name, trace, len(out.Metrics), len(want))
			}
			if !trace {
				for _, d := range endToEnd {
					if out.Metrics[d.name].Value <= 0 {
						t.Errorf("%s: %s = %v, want a positive measurement", name, d.name, out.Metrics[d.name].Value)
					}
				}
			}
		}
	}
}

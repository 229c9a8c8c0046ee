package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"syscall"
	"time"
)

// metricDef names one printed metric and its unit. The lists below are
// the ones BENCHMARK.json declares; a test keeps the two in step.
type metricDef struct{ name, unit string }

// endToEnd are the metrics an untraced run prints. Each workload
// defines its operation (README.md lists them), so every metric means
// the same thing on every run of that workload. The p90 is per-layer:
// on the shared reference box its spread over ten runs reached 35–123%
// on four workloads, beyond any bound that could still catch a
// regression.
var endToEnd = []metricDef{
	{"op_p50_ms", "ms"},
	{"throughput_per_s", "1/s"},
	{"setup_s", "s"},
}

// perLayer are the metrics a traced run prints. Every workload prints
// all of them; a layer the workload does not run reads 0. Layer
// metrics that only some workloads exercise are shares, counts or
// rates, never times, so a zero can only mean "not exercised".
var perLayer = []metricDef{
	{"op.samples", "count"},
	{"op.p90_ms", "ms"},
	{"op.tail_rank_pct", "%"},
	{"op.tail_ms", "ms"},
	{"op.max_ms", "ms"},
	{"runtime.cpu_us_per_op", "us"},
	{"runtime.alloc_kb_per_op", "KB"},
	{"runtime.mallocs_per_op", "count"},
	{"runtime.gc_cpu_pct", "%"},
	{"trace.overhead_pct", "%"},
	{"gen.late_pct", "%"},
	{"self.bench_pct", "%"},
	{"self.gen.queue_pct", "%"},
	{"self.core.engine_pct", "%"},
	{"self.core.unpack_pct", "%"},
	{"self.core.profile_pct", "%"},
	{"self.core.analyze_pct", "%"},
	{"self.core.construct_pct", "%"},
	{"self.core.stego_pct", "%"},
	{"self.core.validate_pct", "%"},
	{"self.core.repack_pct", "%"},
	{"self.apk.sign_pack_pct", "%"},
	{"self.sim.run_pct", "%"},
	{"self.report.tick_pct", "%"},
	{"self.http.client_pct", "%"},
	{"self.http.conn_wait_pct", "%"},
	{"self.market.handler_pct", "%"},
	{"market.server_share_pct.reports", "%"},
	{"market.server_share_pct.verdict", "%"},
	{"market.server_share_pct.similar", "%"},
	{"market.server_share_pct.timeline", "%"},
	{"market.server_share_pct.fingerprint", "%"},
	{"artifact.hit_pct", "%"},
	{"protect.warm_speedup", "x"},
	{"vm.instructions_per_session", "count"},
	{"vm.invokes_per_session", "count"},
	{"vm.minstr_per_s", "M/s"},
	{"sim.events_per_session", "count"},
	{"sim.triggered_pct", "%"},
	{"market.events_per_commit", "count"},
	{"market.dup_pct", "%"},
	{"market.rejects_429", "count"},
	{"market.checkpoints", "count"},
	{"market.compacted_segments", "count"},
	{"market.wal_bytes_per_event", "B"},
	{"market.flush_share_pct", "%"},
	{"restart.records", "count"},
	{"restart.checkpoints_used", "count"},
	{"restart.segments_scanned", "count"},
	{"restart.records_per_ms", "1/ms"},
	{"report.retries", "count"},
	{"report.dead_letters", "count"},
	{"similarity.candidates_per_query", "count"},
	{"similarity.neighbors_above_tau", "count"},
	{"similarity.index_apps", "count"},
}

// config is one run's settings.
type config struct {
	seed    int64
	seconds float64 // how long the timed part measures
	trace   bool    // the per-layer run: spans and layer counters on
	workers int     // goroutines and connections in flight (nproc)
	dir     string  // scratch directory for stores
	tiny    bool    // smoke-test scale
}

// duration is a share of the run length.
func (c *config) duration(frac float64) time.Duration {
	return time.Duration(frac * c.seconds * float64(time.Second))
}

// fits says whether a run that has spent elapsed should start another
// unit of work that last took last: only if it would end within the
// run length. Whole units keep every run's mix of work the same.
func (c *config) fits(elapsed, last time.Duration) bool {
	return elapsed+last <= c.duration(1)
}

// meter collects one run's measurements. Workloads call it from their
// own goroutine only, except where noted.
type meter struct {
	c  *config
	tr *tracer // nil in the untraced run

	setups  []float64   // seconds per set-up repetition
	lat     []float64   // op latencies (ms) behind op_p50_ms and op.p90_ms
	windows [][]float64 // open loop: the same latencies by one-second window
	rates   []float64   // work per second of each pass, round or chunk

	attempted, failed int
	problems          []string
	digest            string

	layer  map[string]float64
	tagged map[string][2][]float64 // trace overhead: key → {untraced, traced} ms

	rt0 rtSnap
}

func newMeter(c *config) *meter {
	m := &meter{c: c, layer: map[string]float64{}, tagged: map[string][2][]float64{}}
	if c.trace {
		m.tr = newTracer()
	}
	return m
}

// setup runs fn reps times, timing each, so setup_s is a median. Every
// repetition must build its state from scratch; fn tears down what an
// earlier repetition left behind.
func (m *meter) setup(reps int, fn func(rep int) error) error {
	for r := 0; r < reps; r++ {
		t0 := time.Now()
		if err := fn(r); err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		m.setups = append(m.setups, time.Since(t0).Seconds())
	}
	return nil
}

// rate records the work one pass, round or chunk did in d.
// throughput_per_s is the median of these, so one slow stretch moves
// one sample rather than the whole figure.
func (m *meter) rate(work float64, d time.Duration) {
	if d > 0 {
		m.rates = append(m.rates, work/d.Seconds())
	}
}

// checkf records a failed correctness check when ok is false.
func (m *meter) checkf(ok bool, format string, args ...any) {
	if !ok {
		m.problems = append(m.problems, fmt.Sprintf(format, args...))
	}
}

// tag records an op's latency under a comparison key for the trace
// overhead estimate: in the per-layer run, ops of one key alternate
// between traced and not.
func (m *meter) tag(key string, traced bool, ms float64) {
	if m.tr == nil {
		return
	}
	t := m.tagged[key]
	i := 0
	if traced {
		i = 1
	}
	t[i] = append(t[i], ms)
	m.tagged[key] = t
}

// traced says whether op number i of a comparison key runs traced: in
// the per-layer run every other op does, so the untraced half gives
// the overhead baseline.
func (m *meter) traced(i int) bool { return m.tr != nil && i%2 == 1 }

// rtSnap is the process's resource counters at one instant.
type rtSnap struct {
	alloc, mallocs uint64
	cpu            time.Duration // user + system, from rusage
	gcCPU          float64       // seconds, from runtime/metrics
}

func readRuntime() rtSnap {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(s)
	gc := 0.0
	if s[0].Value.Kind() == metrics.KindFloat64 {
		gc = s[0].Value.Float64()
	}
	return rtSnap{
		alloc:   ms.TotalAlloc,
		mallocs: ms.Mallocs,
		cpu:     time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		gcCPU:   gc,
	}
}

// begin marks the start of the timed part for the runtime counters.
func (m *meter) begin() { m.rt0 = readRuntime() }

// end closes the timed part: runtime costs are divided over the ops
// attempted since begin.
func (m *meter) end() {
	r := readRuntime()
	ops := float64(max(m.attempted, 1))
	cpu := r.cpu - m.rt0.cpu
	m.layer["runtime.cpu_us_per_op"] = float64(cpu.Microseconds()) / ops
	m.layer["runtime.alloc_kb_per_op"] = float64(r.alloc-m.rt0.alloc) / 1024 / ops
	m.layer["runtime.mallocs_per_op"] = float64(r.mallocs-m.rt0.mallocs) / ops
	if cpu > 0 {
		m.layer["runtime.gc_cpu_pct"] = 100 * (r.gcCPU - m.rt0.gcCPU) / cpu.Seconds()
	}
}

// output is the one JSON line a run prints last.
type output struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result assembles the printed metrics: the end-to-end set, or in the
// traced run the per-layer set.
func (m *meter) result() output {
	out := output{
		Correct:   len(m.problems) == 0,
		Attempted: m.attempted,
		Failed:    m.failed,
		Metrics:   map[string]metric{},
	}
	vals := map[string]float64{}
	if m.tr == nil {
		vals["op_p50_ms"] = m.latency(0.5)
		vals["throughput_per_s"] = median(m.rates)
		vals["setup_s"] = median(m.setups)
		return fill(out, endToEnd, vals)
	}
	for k, v := range m.layer {
		vals[k] = v
	}
	q := tailRank(len(m.lat))
	vals["op.samples"] = float64(len(m.lat))
	vals["op.p90_ms"] = m.latency(0.9)
	vals["op.tail_rank_pct"] = 100 * q
	vals["op.tail_ms"] = percentile(m.lat, q)
	vals["op.max_ms"] = percentile(m.lat, 1)
	vals["trace.overhead_pct"] = m.overheadPct()
	self, rootNs := selfTimes(m.tr.spans)
	for name, ns := range self {
		if rootNs > 0 {
			vals["self."+name+"_pct"] = 100 * ns / rootNs
		}
	}
	for route, pct := range serverShares(m.tr.spans) {
		vals["market.server_share_pct."+route] = pct
	}
	return fill(out, perLayer, vals)
}

// latency is the nearest-rank q-quantile of the op latencies. For an
// open loop it is the median over one-second windows of each window's
// quantile: on the shared reference box a one-second window hit by a
// burst from another tenant read five times its neighbours' p90, and
// the median keeps such a burst to the windows it hit. The per-layer
// op.tail_ms and op.max_ms still see it.
func (m *meter) latency(q float64) float64 {
	if m.windows == nil {
		return percentile(m.lat, q)
	}
	var ps []float64
	for _, w := range m.windows {
		if len(w) > 0 {
			ps = append(ps, percentile(w, q))
		}
	}
	return median(ps)
}

// fill copies the listed metrics into out, 0 where a value is missing
// or not a number.
func fill(out output, defs []metricDef, vals map[string]float64) output {
	for _, d := range defs {
		v := vals[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		out.Metrics[d.name] = metric{Value: v, Unit: d.unit}
	}
	return out
}

// overheadPct is the median over comparison keys of the traced ops'
// median latency against the untraced ops' median, as a percentage.
func (m *meter) overheadPct() float64 {
	var ratios []float64
	keys := make([]string, 0, len(m.tagged))
	for k := range m.tagged {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		t := m.tagged[k]
		if len(t[0]) == 0 || len(t[1]) == 0 {
			continue
		}
		if base := median(t[0]); base > 0 {
			ratios = append(ratios, median(t[1])/base)
		}
	}
	if len(ratios) == 0 {
		return 0
	}
	return 100 * (median(ratios) - 1)
}

// workloadFunc runs one workload's set-up, timed part and checks.
type workloadFunc func(ctx context.Context, m *meter) error

// workloads are the benchmark's workloads by name; BENCHMARK.json
// gives each one's reason.
var workloads = map[string]workloadFunc{
	"protect":        runProtect,
	"protect_reseed": runProtectReseed,
	"table3":         runTable3,
	"ingest_relay":   runIngestRelay,
	"ingest_device":  runIngestDevice,
	"query":          runQuery,
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// describe lists workloads for the usage message.
func describe() string { return strings.Join(workloadNames(), ", ") }

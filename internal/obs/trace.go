package obs

// Distributed report-lifecycle tracing, zero-dep like the rest of the
// package. A TraceCtx is minted when a detonation event enters the
// device-side report pipeline, collects stage stamps and per-attempt
// annotations as the event survives dedup, retries, and breaker
// transitions, rides an HTTP header to the market daemon, and is
// closed when the market acks after its WAL flush — yielding the
// per-report latency breakdown the paper's convergence claim (§3.5)
// actually turns on: queue wait, backoff, network, group-commit flush.
//
// Determinism rules (the same contract the metrics layer keeps):
//
//   - Trace IDs are hashed from a seed and the event key, never drawn
//     from an RNG or the wall clock, so the ID is identical at any
//     worker count.
//   - Everything recorded into non-volatile metrics is measured in
//     virtual milliseconds (detonation time, queue wait, backoff).
//     Wall-clock stamps (network round-trip, server flush time) land
//     only in Volatile series.
//   - Exemplar retention keeps the slowest-N closed traces by
//     (e2e, trace ID) — a total order — so the retained set is a pure
//     function of the closed-trace multiset, independent of close
//     order.
//
// All Tracer methods are safe for concurrent use; a TraceCtx is owned
// by one goroutine at a time (the pipeline mutates it under its own
// lock). A nil *Tracer and a nil *TraceCtx are no-ops everywhere, so
// instrumented code needs no "is tracing on?" branches.

import (
	"encoding/json"
	"fmt"
	"sort"
	"sync"
)

// HTTP header names the trace crosses process boundaries through:
// the device side sends TraceHeader on ingestion POSTs; the market
// side answers with ServerTimingHeader carrying its receive→ack wall
// time in microseconds. Defined here (the package both sides import)
// so the two ends cannot drift.
const (
	TraceHeader        = "X-Bombdroid-Trace"
	ServerTimingHeader = "X-Bombdroid-Server-Us"
)

// TraceID is a 128-bit trace identifier, rendered as 32 hex digits.
type TraceID [2]uint64

// String renders the ID in the fixed 32-hex-digit wire form.
func (id TraceID) String() string { return fmt.Sprintf("%016x%016x", id[0], id[1]) }

// IsZero reports whether the ID is unset.
func (id TraceID) IsZero() bool { return id[0] == 0 && id[1] == 0 }

// MarshalJSON renders the ID as its hex string.
func (id TraceID) MarshalJSON() ([]byte, error) { return json.Marshal(id.String()) }

// ParseTraceID parses the 32-hex-digit wire form (the header value the
// market side extracts). It rejects anything else.
func ParseTraceID(s string) (TraceID, error) {
	var id TraceID
	if len(s) != 32 {
		return id, fmt.Errorf("obs: trace id %q is not 32 hex digits", s)
	}
	for half := 0; half < 2; half++ {
		var v uint64
		for _, c := range s[half*16 : half*16+16] {
			switch {
			case c >= '0' && c <= '9':
				v = v<<4 | uint64(c-'0')
			case c >= 'a' && c <= 'f':
				v = v<<4 | uint64(c-'a'+10)
			case c >= 'A' && c <= 'F':
				v = v<<4 | uint64(c-'A'+10)
			default:
				return TraceID{}, fmt.Errorf("obs: trace id %q is not hex", s)
			}
		}
		id[half] = v
	}
	return id, nil
}

const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// fnv64a hashes s with the given basis (seeding the basis derives
// independent hash families from one function).
func fnv64a(basis uint64, s string) uint64 {
	h := basis
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime64
	}
	return h
}

// StageStamp is one named point in a trace's life, on the clock the
// stage runs on (virtual ms device-side, wall ns for network hops —
// the Name says which; see TraceCtx.StampWall).
type StageStamp struct {
	Name string `json:"name"`
	AtMs int64  `json:"at_ms"`
}

// Attempt annotates one delivery attempt: when it ran, how it ended
// ("ok", "err", "breaker-hold"), and the backoff scheduled after it.
type Attempt struct {
	N         int    `json:"n"`
	AtMs      int64  `json:"at_ms"`
	Outcome   string `json:"outcome"`
	BackoffMs int64  `json:"backoff_ms,omitempty"`
}

// TraceCtx is one in-flight report trace. The pipeline owns it from
// mint to close; it retains its stage stamps and attempt annotations.
type TraceCtx struct {
	ID         TraceID
	DetonateMs int64 // virtual time of the detonation on-device
	SubmitMs   int64 // virtual time the event entered the pipeline

	// Set by the pipeline as the trace advances; -1 = not yet.
	firstAttemptMs int64
	backoffMs      int64 // total backoff charged across retries
	attempts       int
	stages         []StageStamp
	attemptLog     []Attempt
	serverNs       int64 // market-side receive→post-flush-ack, wall ns
	networkNs      int64 // device-side POST round-trip, wall ns
}

// Stamp records a named stage at a virtual-time point; always safe to
// call. The stage log is bounded like the attempt log — a breaker
// flapping for hours must not grow an unbounded stamp list.
func (tc *TraceCtx) Stamp(name string, atMs int64) {
	if tc == nil || len(tc.stages) >= maxAttemptLog {
		return
	}
	tc.stages = append(tc.stages, StageStamp{Name: name, AtMs: atMs})
}

// Attempt records one delivery attempt. The first attempt also pins
// the queue-wait boundary.
func (tc *TraceCtx) Attempt(atMs int64, outcome string, backoffMs int64) {
	if tc == nil {
		return
	}
	tc.attempts++
	if tc.firstAttemptMs < 0 {
		tc.firstAttemptMs = atMs
	}
	tc.backoffMs += backoffMs
	if len(tc.attemptLog) >= maxAttemptLog {
		return
	}
	tc.attemptLog = append(tc.attemptLog, Attempt{
		N: tc.attempts, AtMs: atMs, Outcome: outcome, BackoffMs: backoffMs,
	})
}

// StampServerNs records the market-side receive→ack wall time the
// HTTP response header carried back (ack-after-WAL-flush, so this is
// queue wait plus group-commit flush on the daemon).
func (tc *TraceCtx) StampServerNs(ns int64) {
	if tc != nil && ns > tc.serverNs {
		tc.serverNs = ns
	}
}

// StampNetworkNs records the device-side POST round-trip wall time.
func (tc *TraceCtx) StampNetworkNs(ns int64) {
	if tc != nil {
		tc.networkNs += ns
	}
}

// maxAttemptLog bounds a trace's attempt annotations; a
// pipeline configured for hundreds of attempts must not grow an
// unbounded log per stuck event.
const maxAttemptLog = 64

// Exemplar is one closed trace retained for slow-path forensics.
type Exemplar struct {
	ID          TraceID      `json:"id"`
	E2EMs       int64        `json:"e2e_ms"`
	QueueWaitMs int64        `json:"queue_wait_ms"`
	BackoffMs   int64        `json:"backoff_ms"`
	Attempts    int          `json:"attempts"`
	Outcome     string       `json:"outcome"` // "delivered" or the abort reason
	DetonateMs  int64        `json:"detonate_ms"`
	ServerUs    int64        `json:"server_us,omitempty"`
	NetworkUs   int64        `json:"network_us,omitempty"`
	Stages      []StageStamp `json:"stages,omitempty"`
	AttemptLog  []Attempt    `json:"attempt_log,omitempty"`
}

// exemplarCap is how many of the slowest closed traces a Tracer
// retains.
const exemplarCap = 32

// Tracer mints and closes report traces, recording closed-trace
// latency breakdowns into the registry:
//
//	trace_e2e_ms         detonation → delivery ack (virtual)
//	trace_queue_wait_ms  submit → first attempt (virtual)
//	trace_backoff_ms     total retry backoff charged (virtual)
//	trace_network_us     POST round-trips, wall (Volatile)
//	trace_server_us      market receive → post-flush ack, wall (Volatile)
//	traces_closed_total / traces_aborted_total
//
// plus bounded slowest-N exemplar retention (Exemplars()).
type Tracer struct {
	seed int64

	cClosed  *Counter
	cAborted *Counter
	hE2E     *Histogram
	hQueue   *Histogram
	hBackoff *Histogram
	hNetUs   *Histogram
	hSrvUs   *Histogram

	mu        sync.Mutex
	exemplars []Exemplar // sorted slowest-first by (E2EMs desc, ID asc)
}

// NewTracer builds a tracer over reg whose trace IDs are hashed with
// seed (nil reg = detached metrics, the tracer still works for
// exemplars).
func NewTracer(reg *Registry, seed int64) *Tracer {
	wallBuckets := ExpBuckets(50, 4, 12) // 50µs … ~800ms in µs
	return &Tracer{
		seed:     seed,
		cClosed:  reg.Counter("traces_closed_total"),
		cAborted: reg.Counter("traces_aborted_total"),
		hE2E:     reg.Histogram("trace_e2e_ms", LatencyBucketsMs),
		hQueue:   reg.Histogram("trace_queue_wait_ms", LatencyBucketsMs),
		hBackoff: reg.Histogram("trace_backoff_ms", LatencyBucketsMs),
		hNetUs:   reg.Histogram("trace_network_us", wallBuckets, Volatile()),
		hSrvUs:   reg.Histogram("trace_server_us", wallBuckets, Volatile()),
	}
}

// Mint opens a trace for the event with the given key: ID hashed from
// (seed, key), detonation stamp detonateMs, pipeline entry nowMs.
// Nil-safe: a nil tracer returns a nil ctx, and every TraceCtx method
// accepts one.
func (t *Tracer) Mint(key string, detonateMs, nowMs int64) *TraceCtx {
	if t == nil {
		return nil
	}
	id := TraceID{
		fnv64a(fnvOffset64^uint64(t.seed), key),
		fnv64a(fnvOffset64+uint64(t.seed)*fnvPrime64+1, key),
	}
	return &TraceCtx{
		ID:             id,
		DetonateMs:     detonateMs,
		SubmitMs:       nowMs,
		firstAttemptMs: -1,
		stages:         []StageStamp{{Name: "submit", AtMs: nowMs}},
	}
}

// Close finishes a delivered trace at virtual time nowMs, recording
// the latency breakdown and offering the trace as an exemplar. Safe
// on nil tracer or ctx.
func (t *Tracer) Close(tc *TraceCtx, nowMs int64) {
	if t == nil || tc == nil {
		return
	}
	t.cClosed.Inc()
	t.hE2E.Observe(nowMs - tc.DetonateMs)
	if tc.firstAttemptMs >= 0 {
		t.hQueue.Observe(tc.firstAttemptMs - tc.SubmitMs)
	}
	t.hBackoff.Observe(tc.backoffMs)
	if tc.networkNs > 0 {
		t.hNetUs.Observe(tc.networkNs / 1_000)
	}
	if tc.serverNs > 0 {
		t.hSrvUs.Observe(tc.serverNs / 1_000)
	}
	t.exemplar(tc, nowMs, "delivered")
}

// Abort finishes a trace that will never be delivered (dead-lettered,
// queue overflow) with the given reason. Aborted traces count and
// retain exemplars but do not pollute the delivery-latency histograms.
func (t *Tracer) Abort(tc *TraceCtx, nowMs int64, reason string) {
	if t == nil || tc == nil {
		return
	}
	t.cAborted.Inc()
	t.exemplar(tc, nowMs, reason)
}

// exemplar offers a finished trace to the slowest-N retention set.
func (t *Tracer) exemplar(tc *TraceCtx, nowMs int64, outcome string) {
	ex := Exemplar{
		ID:          tc.ID,
		E2EMs:       nowMs - tc.DetonateMs,
		QueueWaitMs: queueWait(tc),
		BackoffMs:   tc.backoffMs,
		Attempts:    tc.attempts,
		Outcome:     outcome,
		DetonateMs:  tc.DetonateMs,
		ServerUs:    tc.serverNs / 1_000,
		NetworkUs:   tc.networkNs / 1_000,
		Stages:      tc.stages,
		AttemptLog:  tc.attemptLog,
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	// Insert into the slowest-first order; (E2EMs desc, ID asc) is a
	// total order, so the retained set is close-order independent.
	i := sort.Search(len(t.exemplars), func(i int) bool {
		e := t.exemplars[i]
		if e.E2EMs != ex.E2EMs {
			return e.E2EMs < ex.E2EMs
		}
		return exemplarIDLess(ex.ID, e.ID)
	})
	if i >= exemplarCap {
		return
	}
	t.exemplars = append(t.exemplars, Exemplar{})
	copy(t.exemplars[i+1:], t.exemplars[i:])
	t.exemplars[i] = ex
	if len(t.exemplars) > exemplarCap {
		t.exemplars = t.exemplars[:exemplarCap]
	}
}

func exemplarIDLess(a, b TraceID) bool {
	if a[0] != b[0] {
		return a[0] < b[0]
	}
	return a[1] < b[1]
}

func queueWait(tc *TraceCtx) int64 {
	if tc.firstAttemptMs < 0 {
		return 0
	}
	return tc.firstAttemptMs - tc.SubmitMs
}

// Exemplars returns the retained slowest closed traces, slowest first.
func (t *Tracer) Exemplars() []Exemplar {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Exemplar(nil), t.exemplars...)
}

// E2E exposes the cumulative end-to-end latency histogram (virtual
// ms), the series loadgen derives its summary percentiles from.
func (t *Tracer) E2E() *Histogram {
	if t == nil {
		return nil
	}
	return t.hE2E
}

// Quantile estimates the q-quantile (0 ≤ q ≤ 1) of a histogram
// snapshot by linear interpolation within the owning bucket, the
// usual Prometheus-style estimator. The +Inf bucket clamps to its
// lower bound. Returns 0 on an empty histogram.
func (s HistogramSnapshot) Quantile(q float64) float64 {
	if s.Count == 0 || len(s.Buckets) == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(s.Count)
	cum := int64(0)
	lower := 0.0
	for i, b := range s.Buckets {
		prev := cum
		cum += b.N
		if float64(cum) >= rank && b.N > 0 {
			if b.Le == "+Inf" {
				return lower // clamp: no upper edge to interpolate toward
			}
			var upper float64
			fmt.Sscanf(b.Le, "%g", &upper)
			frac := 0.0
			if b.N > 0 {
				frac = (rank - float64(prev)) / float64(b.N)
			}
			return lower + (upper-lower)*frac
		}
		if i < len(s.Buckets)-1 && b.Le != "+Inf" {
			fmt.Sscanf(b.Le, "%g", &lower)
		}
	}
	return lower
}

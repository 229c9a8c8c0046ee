// Package report models the market-notification path of decentralized
// repackaging detection at population scale. The paper's response
// scheme includes "notifying the app vendor or the market server";
// that channel is lossy, slow, and occasionally down, and the devices
// on the sending side resubmit freely. This package makes the path
// dependable anyway: a bounded ingestion queue, per-event retry with
// exponential backoff and jitter, a circuit breaker that trips on
// sustained sink failure, idempotent deduplication keyed on
// bomb-site × user, and a dead-letter ledger for events the pipeline
// ultimately could not place — so each unique detection reaches the
// vendor exactly once despite drops, duplicates, and outages.
//
// The pipeline runs on virtual time (the same clock the vm and sim
// packages use), which keeps every retry schedule and breaker window
// deterministic and replayable. All methods are safe for concurrent
// use.
package report

import (
	"errors"
	"math/rand"
	"sync"

	"bombdroid/internal/obs"
)

// Event is one detection report emitted by a device when a bomb's
// repackaging check fired. The JSON form is the wire format of the
// market ingestion protocol (one object per line, see internal/market)
// and of the market's WAL records; AppendJSON and ParseCanonical read
// and write it without reflection.
type Event struct {
	App    string `json:"app"`     // package name
	Bomb   string `json:"bomb"`    // bomb site: the payload class that detected
	User   string `json:"user"`    // reporting device/user identity
	TimeMs int64  `json:"time_ms"` // virtual time of the detection on-device
	Info   string `json:"info"`    // response payload (public key seen, digest, …)
}

// Key identifies a unique detection: the same bomb site reported by
// the same user is one piece of evidence no matter how often the
// device resubmits it.
func (e Event) Key() string { return e.App + "\x1f" + e.Bomb + "\x1f" + e.User }

// Sink is the vendor/market ingestion endpoint. Deliver is handed the
// pipeline's virtual time so implementations (and fault injectors)
// can model outage windows.
type Sink interface {
	Deliver(ev Event, nowMs int64) error
}

// TracedSink is the optional extension a sink implements to carry a
// report trace across its hop (HTTPSink propagates the trace ID in a
// request header and stamps wall-clock network/server times back onto
// the ctx). The pipeline uses it automatically when the sink supports
// it and the event has a live trace; plain sinks keep working
// unchanged.
type TracedSink interface {
	Sink
	DeliverTraced(ev Event, tc *obs.TraceCtx, nowMs int64) error
}

// MemorySink records delivered events — the in-process stand-in for
// the market server, and the oracle exactly-once tests check against.
type MemorySink struct {
	mu    sync.Mutex
	log   []Event
	byKey map[string]int
}

// NewMemorySink returns an empty sink.
func NewMemorySink() *MemorySink {
	return &MemorySink{byKey: make(map[string]int)}
}

// Deliver records the event and always succeeds. The zero value is
// usable: the key index is initialised on first delivery.
func (s *MemorySink) Deliver(ev Event, _ int64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.byKey == nil {
		s.byKey = make(map[string]int)
	}
	s.log = append(s.log, ev)
	s.byKey[ev.Key()]++
	return nil
}

// Delivered returns a copy of the delivery log in order.
func (s *MemorySink) Delivered() []Event {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]Event(nil), s.log...)
}

// Count returns how many times the event with the given key was
// delivered.
func (s *MemorySink) Count(key string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.byKey[key]
}

// UniqueKeys returns the number of distinct keys delivered.
func (s *MemorySink) UniqueKeys() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.byKey)
}

// MaxPerKey returns the largest per-key delivery count (1 on an
// exactly-once run, 0 when nothing was delivered).
func (s *MemorySink) MaxPerKey() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	max := 0
	for _, n := range s.byKey {
		if n > max {
			max = n
		}
	}
	return max
}

// ErrSinkDown is a generic delivery failure for sinks that do not
// wrap a more specific cause.
var ErrSinkDown = errors.New("report: sink unavailable")

// DeadLetter is one event the pipeline gave up on, with why and when.
type DeadLetter struct {
	Event  Event
	Reason string
	AtMs   int64
}

// Config tunes the pipeline. Zero values select the defaults noted on
// each field.
type Config struct {
	QueueCap          int     // bounded buffer size (default 1024)
	MaxAttempts       int     // delivery attempts per event (default 8)
	BaseBackoffMs     int64   // first retry delay (default 200)
	MaxBackoffMs      int64   // backoff ceiling (default 60_000)
	JitterFrac        float64 // ± fraction of backoff randomized (default 0.25)
	BreakerThreshold  int     // consecutive failures that trip the breaker (default 5)
	BreakerCooldownMs int64   // open duration before a half-open probe (default 5_000)
	Seed              int64   // jitter RNG seed (deterministic schedules)

	// Tracer, when non-nil, mints a report-lifecycle trace for every
	// accepted event: per-attempt annotations through retry/breaker,
	// propagation over TracedSink hops, closed on delivery or abort.
	// Nil (the default) disables tracing at zero cost.
	Tracer *obs.Tracer
}

func (c Config) withDefaults() Config {
	if c.QueueCap == 0 {
		c.QueueCap = 1024
	}
	if c.MaxAttempts == 0 {
		c.MaxAttempts = 8
	}
	if c.BaseBackoffMs == 0 {
		c.BaseBackoffMs = 200
	}
	if c.MaxBackoffMs == 0 {
		c.MaxBackoffMs = 60_000
	}
	if c.JitterFrac == 0 {
		c.JitterFrac = 0.25
	}
	if c.BreakerThreshold == 0 {
		c.BreakerThreshold = 5
	}
	if c.BreakerCooldownMs == 0 {
		c.BreakerCooldownMs = 5_000
	}
	return c
}

// Stats is a snapshot of pipeline counters. Since the obs rework the
// struct is a thin read of the pipeline's private metrics registry —
// the counters themselves live in obs and are what campaigns merge.
type Stats struct {
	Submitted    int64 // Submit calls
	Accepted     int64 // events that entered the queue
	Duplicates   int64 // absorbed by idempotent dedup
	Delivered    int64 // events the sink accepted
	Attempts     int64 // delivery attempts (including failures)
	Retries      int64 // attempts rescheduled after a failure
	DeadLettered int64 // events moved to the ledger
	Overflow     int64 // events refused at the queue bound
	BreakerTrips int64 // closed→open transitions
}

// Circuit-breaker states. The gauge report_breaker_state carries the
// numeric value; the transition log and labels carry the names.
const (
	breakerClosed int64 = iota
	breakerOpen
	breakerHalfOpen
)

var breakerNames = map[int64]string{
	breakerClosed:   "closed",
	breakerOpen:     "open",
	breakerHalfOpen: "half-open",
}

// BreakerTransition is one state change of the circuit breaker, in
// virtual time. The pipeline keeps a bounded in-order log of these so
// tests (and operators) can assert the exact closed→open→half-open
// sequence a fault schedule produced.
type BreakerTransition struct {
	From string `json:"from"`
	To   string `json:"to"`
	AtMs int64  `json:"at_ms"`
}

// breakerLogCap bounds the transition log; a chaos campaign with a
// flapping sink should not grow memory without bound.
const breakerLogCap = 4096

// entry is one queued event with its retry state.
type entry struct {
	ev       Event
	attempts int
	dueMs    int64
	seq      int64 // FIFO tiebreak among equal due times
	tc       *obs.TraceCtx
}

// Pipeline is the resilient ingestion queue in front of a Sink.
//
// Every pipeline owns a private obs registry so its counters stay
// per-instance (Stats() would otherwise read sums across pipelines);
// callers that want campaign- or process-wide totals merge with
// p.Obs().MergeInto(shared) — counter/histogram merges are
// commutative, so totals are independent of pipeline finish order.
type Pipeline struct {
	mu   sync.Mutex
	cfg  Config
	sink Sink
	rng  *rand.Rand

	seen  map[string]bool
	queue []*entry
	dead  []DeadLetter
	seq   int64

	// circuit breaker state
	consecFails int
	brState     int64
	reopenMs    int64 // when open: earliest half-open probe time
	transitions []BreakerTransition

	// metrics, pre-resolved once in NewPipeline so the per-event path
	// does no registry lookups
	reg        *obs.Registry
	cSubmitted *obs.Counter
	cAccepted  *obs.Counter
	cDupes     *obs.Counter
	cDelivered *obs.Counter
	cAttempts  *obs.Counter
	cRetries   *obs.Counter
	cDead      *obs.Counter
	cOverflow  *obs.Counter
	cTrips     *obs.Counter
	cBackoffMs *obs.Counter
	gQueue     *obs.Gauge
	gDeadDepth *obs.Gauge
	gBreaker   *obs.Gauge
}

// Obs returns the pipeline's private metrics registry. Merge it into
// a shared registry for cross-pipeline totals; reading it directly is
// always per-instance.
func (p *Pipeline) Obs() *obs.Registry { return p.reg }

// Tracer returns the tracer this pipeline mints report traces from
// (nil when tracing is off) — loadgen reads percentiles and exemplars
// through it after a campaign.
func (p *Pipeline) Tracer() *obs.Tracer { return p.cfg.Tracer }

// setBreakerLocked moves the breaker state machine, recording the
// transition in the log, the state gauge, and a labeled counter that
// survives registry merges.
func (p *Pipeline) setBreakerLocked(to int64, nowMs int64) {
	if p.brState == to {
		return
	}
	from := p.brState
	p.brState = to
	p.gBreaker.Set(to)
	if len(p.transitions) < breakerLogCap {
		p.transitions = append(p.transitions, BreakerTransition{
			From: breakerNames[from], To: breakerNames[to], AtMs: nowMs,
		})
	}
	p.reg.Counter(obs.L("report_breaker_transitions_total",
		"from", breakerNames[from], "to", breakerNames[to])).Inc()
}

// Submit offers one detection event to the pipeline at virtual time
// nowMs. Duplicates of an already-seen key are absorbed; an event
// arriving at a full queue is dead-lettered (the bound is load
// shedding, not silent loss). Returns true when the event entered the
// queue.
func (p *Pipeline) Submit(ev Event, nowMs int64) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.cSubmitted.Inc()
	if p.seen[ev.Key()] {
		p.cDupes.Inc()
		return false
	}
	if len(p.queue) >= p.cfg.QueueCap {
		p.cOverflow.Inc()
		p.deadLetterLocked(ev, p.cfg.Tracer.Mint(ev.Key(), ev.TimeMs, nowMs),
			"queue overflow", nowMs)
		return false
	}
	p.seen[ev.Key()] = true
	p.cAccepted.Inc()
	p.seq++
	// The trace opens here: detonation stamp from the event's own
	// virtual time, pipeline-entry stamp from the submit clock. A nil
	// Tracer mints a nil ctx and every downstream touch is a no-op.
	tc := p.cfg.Tracer.Mint(ev.Key(), ev.TimeMs, nowMs)
	p.queue = append(p.queue, &entry{ev: ev, dueMs: nowMs, seq: p.seq, tc: tc})
	p.gQueue.Set(int64(len(p.queue)))
	return true
}

// Tick attempts delivery of every queued entry due at nowMs,
// respecting the circuit breaker. It returns how many events were
// delivered during this tick.
func (p *Pipeline) Tick(nowMs int64) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	delivered := 0
	for {
		e := p.popDueLocked(nowMs)
		if e == nil {
			break
		}
		if p.brState == breakerOpen {
			if nowMs < p.reopenMs {
				// Fast-fail window: hold the entry without burning an
				// attempt; it becomes due again at the probe time.
				e.tc.Stamp("breaker-hold", nowMs)
				e.dueMs = p.reopenMs
				p.pushLocked(e)
				continue
			}
			// This entry is the half-open probe.
			p.setBreakerLocked(breakerHalfOpen, nowMs)
		}
		p.cAttempts.Inc()
		err := p.deliverLocked(e, nowMs)
		if err == nil {
			delivered++
			p.cDelivered.Inc()
			p.consecFails = 0
			p.setBreakerLocked(breakerClosed, nowMs)
			e.tc.Attempt(nowMs, "ok", 0)
			p.cfg.Tracer.Close(e.tc, nowMs)
			continue
		}
		p.consecFails++
		e.attempts++
		if p.brState == breakerHalfOpen || p.consecFails >= p.cfg.BreakerThreshold {
			// Trip (or re-trip after a failed half-open probe). Only
			// closed→open counts as a trip, matching the pre-obs stats.
			if p.brState == breakerClosed {
				p.cTrips.Inc()
			}
			p.setBreakerLocked(breakerOpen, nowMs)
			p.reopenMs = nowMs + p.cfg.BreakerCooldownMs
		}
		if e.attempts >= p.cfg.MaxAttempts {
			e.tc.Attempt(nowMs, attemptOutcome(err), 0)
			p.deadLetterLocked(e.ev, e.tc, "max attempts", nowMs)
			continue
		}
		p.cRetries.Inc()
		d := p.backoffLocked(e.attempts)
		p.cBackoffMs.Add(d)
		e.tc.Attempt(nowMs, attemptOutcome(err), d)
		e.dueMs = nowMs + d
		p.pushLocked(e)
		if p.brState == breakerOpen {
			// Nothing else will get through until the probe window.
			break
		}
	}
	p.gQueue.Set(int64(len(p.queue)))
	return delivered
}

// deliverLocked calls the sink without holding delivery-order state;
// the pipeline lock stays held (sinks are expected to be fast or to
// model latency in virtual time, not wall time). A TracedSink with a
// live trace gets the ctx so the hop can propagate and stamp it.
func (p *Pipeline) deliverLocked(e *entry, nowMs int64) error {
	if ts, ok := p.sink.(TracedSink); ok && e.tc != nil {
		return ts.DeliverTraced(e.ev, e.tc, nowMs)
	}
	return p.sink.Deliver(e.ev, nowMs)
}

// attemptOutcome labels a delivery failure for trace annotations,
// separating "slow down" from "down".
func attemptOutcome(err error) string {
	if IsBackpressure(err) {
		return "backpressure"
	}
	return "err"
}

// popDueLocked removes and returns the earliest due entry at nowMs.
func (p *Pipeline) popDueLocked(nowMs int64) *entry {
	best := -1
	for i, e := range p.queue {
		if e.dueMs > nowMs {
			continue
		}
		if best == -1 || e.dueMs < p.queue[best].dueMs ||
			(e.dueMs == p.queue[best].dueMs && e.seq < p.queue[best].seq) {
			best = i
		}
	}
	if best == -1 {
		return nil
	}
	e := p.queue[best]
	p.queue[best] = p.queue[len(p.queue)-1]
	p.queue = p.queue[:len(p.queue)-1]
	return e
}

func (p *Pipeline) pushLocked(e *entry) { p.queue = append(p.queue, e) }

func (p *Pipeline) deadLetterLocked(ev Event, tc *obs.TraceCtx, reason string, nowMs int64) {
	p.cDead.Inc()
	p.cfg.Tracer.Abort(tc, nowMs, reason)
	p.dead = append(p.dead, DeadLetter{Event: ev, Reason: reason, AtMs: nowMs})
	p.gDeadDepth.Set(int64(len(p.dead)))
}

// backoffLocked computes the delay before attempt n+1: exponential in
// the attempt count, capped, with ±JitterFrac randomization so a
// population of retrying devices does not thundering-herd the sink.
func (p *Pipeline) backoffLocked(attempts int) int64 {
	b := p.cfg.BaseBackoffMs
	for i := 1; i < attempts && b < p.cfg.MaxBackoffMs; i++ {
		b *= 2
	}
	if b > p.cfg.MaxBackoffMs {
		b = p.cfg.MaxBackoffMs
	}
	j := 1 + p.cfg.JitterFrac*(2*p.rng.Float64()-1)
	d := int64(float64(b) * j)
	if d < 1 {
		d = 1
	}
	return d
}

// NextDueMs returns the earliest time any queued entry becomes due,
// or -1 when the queue is empty.
func (p *Pipeline) NextDueMs() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	due := int64(-1)
	for _, e := range p.queue {
		if due == -1 || e.dueMs < due {
			due = e.dueMs
		}
	}
	return due
}

// Pending returns the number of queued (undelivered, not yet
// dead-lettered) events.
func (p *Pipeline) Pending() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.queue)
}

// Flush advances virtual time from nowMs, ticking at each due point,
// until the queue drains or deadlineMs passes. It returns the virtual
// time reached. Entries still pending at the deadline are
// dead-lettered so the ledger accounts for every accepted event.
func (p *Pipeline) Flush(nowMs, deadlineMs int64) int64 {
	sp := p.reg.StartSpan("report", nowMs)
	defer func() { sp.End(nowMs) }()
	for {
		p.Tick(nowMs)
		due := p.NextDueMs()
		if due == -1 {
			return nowMs
		}
		if due <= nowMs {
			due = nowMs + 1
		}
		if due > deadlineMs {
			break
		}
		nowMs = due
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, e := range p.queue {
		p.deadLetterLocked(e.ev, e.tc, "flush deadline", deadlineMs)
	}
	p.queue = nil
	p.gQueue.Set(0)
	nowMs = deadlineMs
	return deadlineMs
}

// Stats returns a snapshot of the counters — a thin read of the
// pipeline's obs registry, kept for existing callers.
func (p *Pipeline) Stats() Stats {
	return Stats{
		Submitted:    p.cSubmitted.Value(),
		Accepted:     p.cAccepted.Value(),
		Duplicates:   p.cDupes.Value(),
		Delivered:    p.cDelivered.Value(),
		Attempts:     p.cAttempts.Value(),
		Retries:      p.cRetries.Value(),
		DeadLettered: p.cDead.Value(),
		Overflow:     p.cOverflow.Value(),
		BreakerTrips: p.cTrips.Value(),
	}
}

// DeadLetters returns a copy of the ledger.
func (p *Pipeline) DeadLetters() []DeadLetter {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]DeadLetter(nil), p.dead...)
}

// BreakerOpen reports whether the circuit breaker is currently open
// (fast-fail window; a pending half-open probe still counts as open
// to callers, as before the explicit state machine).
func (p *Pipeline) BreakerOpen() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.brState != breakerClosed
}

// BreakerState returns the breaker state name: "closed", "open" or
// "half-open".
func (p *Pipeline) BreakerState() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return breakerNames[p.brState]
}

// BreakerTransitions returns a copy of the breaker's state-transition
// log in virtual-time order (bounded at breakerLogCap entries).
func (p *Pipeline) BreakerTransitions() []BreakerTransition {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]BreakerTransition(nil), p.transitions...)
}

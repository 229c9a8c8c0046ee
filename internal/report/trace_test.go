package report

import (
	"encoding/json"
	"testing"

	"bombdroid/internal/obs"
)

// flakySink fails the first n deliveries then succeeds.
type flakySink struct {
	fails int
	MemorySink
}

func (s *flakySink) Deliver(ev Event, nowMs int64) error {
	if s.fails > 0 {
		s.fails--
		return ErrSinkDown
	}
	return s.MemorySink.Deliver(ev, nowMs)
}

func TestTraceLifecycleThroughRetries(t *testing.T) {
	reg := obs.NewRegistry()
	tr := obs.NewTracer(reg, 1)
	sink := &flakySink{fails: 2}
	p := NewPipeline(sink, WithTracer(tr), WithJitterFrac(0), WithSeed(1))

	ev := Event{App: "a", Bomb: "b", User: "u", TimeMs: 100}
	if !p.Submit(ev, 150) {
		t.Fatalf("submit refused")
	}
	end := p.Flush(150, 10*60_000)

	s := reg.Snapshot()
	if s.Counters["traces_closed_total"] != 1 {
		t.Fatalf("traces_closed_total = %d, want 1", s.Counters["traces_closed_total"])
	}
	exs := tr.Exemplars()
	if len(exs) != 1 {
		t.Fatalf("exemplars = %d, want 1", len(exs))
	}
	ex := exs[0]
	if ex.Outcome != "delivered" || ex.Attempts != 3 {
		t.Fatalf("exemplar = %+v, want delivered after 3 attempts", ex)
	}
	if ex.DetonateMs != 100 {
		t.Fatalf("detonate stamp = %d, want the event's own TimeMs 100", ex.DetonateMs)
	}
	// Two failures then the success; failures carry their backoff.
	if len(ex.AttemptLog) != 3 ||
		ex.AttemptLog[0].Outcome != "err" || ex.AttemptLog[0].BackoffMs <= 0 ||
		ex.AttemptLog[2].Outcome != "ok" {
		t.Fatalf("attempt log = %+v", ex.AttemptLog)
	}
	// e2e covers detonation→final delivery on the virtual clock.
	if got, want := s.Histograms["trace_e2e_ms"].Sum, end-100; got > want || got <= 0 {
		t.Fatalf("trace_e2e_ms sum = %d, flush ended at %d", got, end)
	}
	if s.Histograms["trace_queue_wait_ms"].Sum != 0 {
		t.Fatalf("queue wait = %d, want 0 (first attempt at submit time)", s.Histograms["trace_queue_wait_ms"].Sum)
	}
}

func TestTraceAbortOnDeadLetter(t *testing.T) {
	reg := obs.NewRegistry()
	tr := obs.NewTracer(reg, 1)
	sink := &flakySink{fails: 1 << 30} // never succeeds
	p := NewPipeline(sink, WithTracer(tr), WithMaxAttempts(3), WithJitterFrac(0))

	p.Submit(Event{App: "a", Bomb: "b", User: "u"}, 0)
	p.Flush(0, 10*60_000)

	s := reg.Snapshot()
	if s.Counters["traces_aborted_total"] != 1 {
		t.Fatalf("traces_aborted_total = %d, want 1", s.Counters["traces_aborted_total"])
	}
	if s.Counters["traces_closed_total"] != 0 {
		t.Fatalf("a dead-lettered trace closed as delivered")
	}
	exs := tr.Exemplars()
	if len(exs) != 1 || exs[0].Outcome != "max attempts" || exs[0].Attempts != 3 {
		t.Fatalf("abort exemplar = %+v", exs)
	}
}

func TestTraceBreakerHoldStamped(t *testing.T) {
	tr := obs.NewTracer(nil, 1)
	// Threshold 1: the first failure trips the breaker; a second event
	// then gets held without burning attempts.
	sink := &flakySink{fails: 1}
	p := NewPipeline(sink, WithTracer(tr),
		WithBreakerThreshold(1), WithBreakerCooldownMs(5_000), WithJitterFrac(0))

	p.Submit(Event{App: "a", Bomb: "b", User: "u1"}, 0)
	p.Tick(0) // fails, trips breaker
	p.Submit(Event{App: "a", Bomb: "b", User: "u2"}, 10)
	p.Tick(10) // u2 held by open breaker
	p.Flush(10, 10*60_000)

	held := false
	for _, ex := range tr.Exemplars() {
		for _, st := range ex.Stages {
			if st.Name == "breaker-hold" {
				held = true
			}
		}
	}
	if !held {
		t.Fatalf("no exemplar carries a breaker-hold stamp: %+v", tr.Exemplars())
	}
}

func TestTraceOverflowAborted(t *testing.T) {
	reg := obs.NewRegistry()
	tr := obs.NewTracer(reg, 1)
	sink := &flakySink{fails: 1 << 30}
	p := NewPipeline(sink, WithTracer(tr), WithQueueCap(1))

	p.Submit(Event{App: "a", Bomb: "b", User: "u1"}, 0)
	p.Submit(Event{App: "a", Bomb: "b", User: "u2"}, 0) // overflows
	if got := reg.Snapshot().Counters["traces_aborted_total"]; got != 1 {
		t.Fatalf("traces_aborted_total = %d, want 1 (overflow)", got)
	}
	found := false
	for _, ex := range tr.Exemplars() {
		if ex.Outcome == "queue overflow" {
			found = true
		}
	}
	if !found {
		t.Fatalf("overflow abort left no exemplar: %+v", tr.Exemplars())
	}
}

// TestTracedSnapshotDeterministic pins the tentpole's determinism
// contract at the pipeline level: two runs over the same events — one
// sink failing, retries, breaker traffic — produce byte-identical
// deterministic snapshots including every trace_* series.
func TestTracedSnapshotDeterministic(t *testing.T) {
	run := func() []byte {
		reg := obs.NewRegistry()
		tr := obs.NewTracer(reg, 99)
		sink := &flakySink{fails: 7}
		p := NewPipeline(sink, WithTracer(tr), WithSeed(99), WithBreakerThreshold(3))
		for i := 0; i < 200; i++ {
			p.Submit(Event{App: "app", Bomb: "b" + itoa(i%5), User: "u" + itoa(i)},
				int64(i)*10)
			p.Tick(int64(i) * 10)
		}
		p.Flush(2000, 10*60_000)
		p.Obs().MergeInto(reg)
		b, err := json.Marshal(reg.SnapshotDeterministic())
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	a, b := run(), run()
	if string(a) != string(b) {
		t.Fatalf("traced deterministic snapshots differ")
	}
}

func itoa(i int) string {
	var b [20]byte
	n := len(b)
	if i == 0 {
		return "0"
	}
	for i > 0 {
		n--
		b[n] = byte('0' + i%10)
		i /= 10
	}
	return string(b[n:])
}

package obs

import (
	"encoding/json"
	"math/rand"
	"strings"
	"testing"
)

func TestTraceIDRoundTrip(t *testing.T) {
	id := TraceID{0xdeadbeefcafef00d, 0x0123456789abcdef}
	s := id.String()
	if len(s) != 32 {
		t.Fatalf("String() = %q, want 32 hex digits", s)
	}
	got, err := ParseTraceID(s)
	if err != nil {
		t.Fatalf("ParseTraceID(%q): %v", s, err)
	}
	if got != id {
		t.Fatalf("round trip: got %v want %v", got, id)
	}
	for _, bad := range []string{"", "abc", s[:31], s + "0", "zz" + s[2:]} {
		if _, err := ParseTraceID(bad); err == nil {
			t.Errorf("ParseTraceID(%q) accepted malformed input", bad)
		}
	}
	// Upper-case hex parses too (header values may be canonicalized).
	if _, err := ParseTraceID("ABCDEF0123456789ABCDEF0123456789"); err != nil {
		t.Errorf("upper-case hex rejected: %v", err)
	}
}

// FuzzParseTraceID: no input panics the parser, and whatever it
// accepts renders back as the input in lower case and parses back to
// the same ID.
func FuzzParseTraceID(f *testing.F) {
	for _, s := range []string{"deadbeefcafef00d0123456789abcdef", "ABCDEF0123456789ABCDEF0123456789",
		"", "abc", "zz3456789abcdef0123456789abcdef0", "0123456789abcdef0123456789abcdé"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		id, err := ParseTraceID(s)
		if err != nil {
			return
		}
		if got, want := id.String(), strings.ToLower(s); got != want {
			t.Fatalf("ParseTraceID(%q).String() = %q, want %q", s, got, want)
		}
		back, err := ParseTraceID(id.String())
		if err != nil || back != id {
			t.Fatalf("ParseTraceID(%q) = %v; its String parses to %v, %v", s, id, back, err)
		}
	})
}

func TestMintDeterministic(t *testing.T) {
	a := NewTracer(nil, 42)
	b := NewTracer(nil, 42)
	c := NewTracer(nil, 43)
	for _, key := range []string{"app\x1fbomb\x1fuser", "x", ""} {
		ta, tb := a.Mint(key, 0, 0), b.Mint(key, 0, 0)
		if ta.ID != tb.ID {
			t.Fatalf("same seed+key minted different IDs: %v vs %v", ta.ID, tb.ID)
		}
		if tc := c.Mint(key, 0, 0); tc.ID == ta.ID {
			t.Fatalf("different seeds minted the same ID for %q", key)
		}
	}
	if a.Mint("k1", 0, 0).ID == a.Mint("k2", 0, 0).ID {
		t.Fatalf("different keys minted the same ID")
	}
}

func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	var b [20]byte
	n := len(b)
	for i > 0 {
		n--
		b[n] = byte('0' + i%10)
		i /= 10
	}
	return string(b[n:])
}

func TestCloseRecordsBreakdown(t *testing.T) {
	reg := NewRegistry()
	tr := NewTracer(reg, 1)
	tc := tr.Mint("app\x1fb0\x1fu0", 100, 150) // detonated at 100, submitted at 150
	tc.Attempt(250, "err", 400)                // first attempt at 250, backoff 400
	tc.Attempt(650, "ok", 0)
	tc.StampNetworkNs(3_000_000)
	tc.StampServerNs(2_000_000)
	tr.Close(tc, 700)

	s := reg.Snapshot()
	if got := s.Counters["traces_closed_total"]; got != 1 {
		t.Fatalf("traces_closed_total = %d, want 1", got)
	}
	if got := s.Histograms["trace_e2e_ms"].Sum; got != 600 {
		t.Fatalf("trace_e2e_ms sum = %d, want 600 (700-100)", got)
	}
	if got := s.Histograms["trace_queue_wait_ms"].Sum; got != 100 {
		t.Fatalf("trace_queue_wait_ms sum = %d, want 100 (250-150)", got)
	}
	if got := s.Histograms["trace_backoff_ms"].Sum; got != 400 {
		t.Fatalf("trace_backoff_ms sum = %d, want 400", got)
	}
	if got := s.Histograms["trace_network_us"].Sum; got != 3000 {
		t.Fatalf("trace_network_us sum = %d, want 3000", got)
	}
	if got := s.Histograms["trace_server_us"].Sum; got != 2000 {
		t.Fatalf("trace_server_us sum = %d, want 2000", got)
	}
	// Wall-clock series must not leak into the deterministic view.
	det := reg.SnapshotDeterministic()
	if _, ok := det.Histograms["trace_network_us"]; ok {
		t.Fatalf("trace_network_us leaked into SnapshotDeterministic")
	}
	if _, ok := det.Histograms["trace_server_us"]; ok {
		t.Fatalf("trace_server_us leaked into SnapshotDeterministic")
	}
	if _, ok := det.Histograms["trace_e2e_ms"]; !ok {
		t.Fatalf("trace_e2e_ms missing from SnapshotDeterministic")
	}

	exs := tr.Exemplars()
	if len(exs) != 1 {
		t.Fatalf("exemplars = %d, want 1", len(exs))
	}
	ex := exs[0]
	if ex.Outcome != "delivered" || ex.Attempts != 2 || ex.E2EMs != 600 {
		t.Fatalf("exemplar = %+v", ex)
	}
	if len(ex.AttemptLog) != 2 || ex.AttemptLog[0].Outcome != "err" || ex.AttemptLog[1].Outcome != "ok" {
		t.Fatalf("attempt log = %+v", ex.AttemptLog)
	}
	if _, err := json.Marshal(ex); err != nil {
		t.Fatalf("exemplar does not marshal: %v", err)
	}
}

func TestAbortCountsSeparately(t *testing.T) {
	reg := NewRegistry()
	tr := NewTracer(reg, 1)
	tc := tr.Mint("k", 0, 0)
	tr.Abort(tc, 50, "dead-letter")
	s := reg.Snapshot()
	if s.Counters["traces_aborted_total"] != 1 {
		t.Fatalf("traces_aborted_total = %d, want 1", s.Counters["traces_aborted_total"])
	}
	if s.Histograms["trace_e2e_ms"].Count != 0 {
		t.Fatalf("aborted trace polluted the delivery histogram")
	}
	exs := tr.Exemplars()
	if len(exs) != 1 || exs[0].Outcome != "dead-letter" {
		t.Fatalf("abort exemplar = %+v", exs)
	}
}

func TestExemplarRetentionOrderIndependent(t *testing.T) {
	// Two tracers see the same closed traces in different orders; the
	// retained slowest-N sets must be identical.
	mk := func(perm []int) []Exemplar {
		tr := NewTracer(nil, 9)
		for _, i := range perm {
			tc := tr.Mint("key-"+itoa(i), 0, 0)
			tr.Close(tc, int64(i%13)*100) // duplicate e2e values exercise the ID tiebreak
		}
		return tr.Exemplars()
	}
	// Twice the cap, so retention must evict.
	perm := make([]int, 2*exemplarCap)
	for i := range perm {
		perm[i] = i
	}
	base := mk(perm)
	if len(base) != exemplarCap {
		t.Fatalf("retained %d exemplars, want cap %d", len(base), exemplarCap)
	}
	for i := 1; i < len(base); i++ {
		a, b := base[i-1], base[i]
		if a.E2EMs < b.E2EMs {
			t.Fatalf("exemplars not slowest-first at %d: %d < %d", i, a.E2EMs, b.E2EMs)
		}
	}
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 5; trial++ {
		rng.Shuffle(len(perm), func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
		got := mk(perm)
		if len(got) != len(base) {
			t.Fatalf("trial %d: retained %d, want %d", trial, len(got), len(base))
		}
		for i := range got {
			if got[i].ID != base[i].ID || got[i].E2EMs != base[i].E2EMs {
				t.Fatalf("trial %d: exemplar %d differs: %v vs %v", trial, i, got[i].ID, base[i].ID)
			}
		}
	}
}

func TestQuantile(t *testing.T) {
	h := NewHistogram([]int64{10, 100, 1000})
	for i := 0; i < 90; i++ {
		h.Observe(5) // bucket le=10
	}
	for i := 0; i < 10; i++ {
		h.Observe(500) // bucket le=1000
	}
	s := h.snapshot()
	if q := s.Quantile(0.5); q <= 0 || q > 10 {
		t.Fatalf("p50 = %g, want in (0,10]", q)
	}
	if q := s.Quantile(0.99); q <= 100 || q > 1000 {
		t.Fatalf("p99 = %g, want in (100,1000]", q)
	}
	if q := (HistogramSnapshot{}).Quantile(0.5); q != 0 {
		t.Fatalf("empty quantile = %g, want 0", q)
	}
	// Values past the last bound clamp to the last finite edge.
	h2 := NewHistogram([]int64{10})
	h2.Observe(9999)
	if q := h2.snapshot().Quantile(0.5); q != 10 {
		t.Fatalf("+Inf quantile = %g, want clamp to 10", q)
	}
}

func TestTracerNilSafety(t *testing.T) {
	var tr *Tracer
	tc := tr.Mint("k", 0, 0)
	if tc != nil {
		t.Fatalf("nil tracer minted a ctx")
	}
	// All of these must be no-ops, not panics.
	tc.Stamp("x", 1)
	tc.Attempt(1, "ok", 0)
	tc.StampServerNs(5)
	tc.StampNetworkNs(5)
	tr.Close(tc, 10)
	tr.Abort(tc, 10, "r")
	if tr.Exemplars() != nil || tr.E2E() != nil {
		t.Fatalf("nil tracer leaked state")
	}
}

func TestAttemptLogBounded(t *testing.T) {
	tr := NewTracer(nil, 1)
	tc := tr.Mint("k", 0, 0)
	for i := 0; i < maxAttemptLog+50; i++ {
		tc.Attempt(int64(i), "err", 1)
	}
	if len(tc.attemptLog) != maxAttemptLog {
		t.Fatalf("attempt log grew to %d, want cap %d", len(tc.attemptLog), maxAttemptLog)
	}
	if tc.attempts != maxAttemptLog+50 {
		t.Fatalf("attempt count = %d, want %d", tc.attempts, maxAttemptLog+50)
	}
}

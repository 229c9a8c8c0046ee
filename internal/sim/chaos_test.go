package sim

import (
	"context"
	"testing"

	"bombdroid/internal/apk"
	"bombdroid/internal/appgen"
	"bombdroid/internal/chaos"
	"bombdroid/internal/core"
	"bombdroid/internal/report"
	"bombdroid/internal/vm"
)

// chaosPrepared builds a pirated protected app whose bombs all
// respond with RespReport, so every detonation feeds the report
// pipeline — the configuration the exactly-once assertion needs.
func chaosPrepared(t *testing.T, seed int64) (*apk.Package, Surface) {
	t.Helper()
	app, err := appgen.Generate(appgen.Config{Name: "chaos", Seed: seed, TargetLOC: 1500})
	if err != nil {
		t.Fatal(err)
	}
	key, err := apk.NewKeyPair(71)
	if err != nil {
		t.Fatal(err)
	}
	orig, err := apk.Sign(apk.Build("chaos", app.File, apk.Resources{Strings: []string{"a"}}), key)
	if err != nil {
		t.Fatal(err)
	}
	built, err := (&core.Engine{Opts: core.Options{
		Seed:      seed,
		Responses: []vm.ResponseKind{vm.RespReport},
	}}).Run(context.Background(), orig)
	if err != nil {
		t.Fatal(err)
	}
	prot, err := apk.Sign(built.Unsigned, key)
	if err != nil {
		t.Fatal(err)
	}
	attacker, err := apk.NewKeyPair(919)
	if err != nil {
		t.Fatal(err)
	}
	pirated, err := apk.Repackage(prot, attacker, apk.RepackOptions{NewAuthor: "pirate"})
	if err != nil {
		t.Fatal(err)
	}
	return pirated, SurfaceOf(app)
}

// TestChaosCampaignFailsClosedAndDeliversExactlyOnce is the PR's
// acceptance campaign: ciphertext corruption + dex bit rot + env
// misreporting on the devices, drop/dup/delay/reorder on the event
// channel, and a market outage spanning the first stretch of the
// campaign to force a circuit-breaker trip. The invariants:
//
//  1. zero panics — every bomb-path fault fails closed;
//  2. the report pipeline delivers each unique detection exactly
//     once despite the channel faults and the mid-campaign outage.
func TestChaosCampaignFailsClosedAndDeliversExactlyOnce(t *testing.T) {
	pirated, surf := chaosPrepared(t, 301)
	capMs := int64(20 * 60_000)
	profile := chaos.Overlay(chaos.Harsh, chaos.Profile{
		Name:        "campaign",
		CorruptBlob: 0.5, TruncateBlob: 0.2, BitFlipDex: 0.3,
		DropEvent: 0.05,
	})
	cr, err := RunChaos(context.Background(), pirated, surf, ChaosOptions{
		Sessions: 12,
		CapMs:    capMs,
		Seed:     5,
		Profile:  profile,
		// Market down for sessions 0-4: submissions there must retry
		// through a tripped breaker and settle after recovery.
		SinkOutages: [][2]int64{{0, 5 * capMs}},
		Pipeline: []report.Option{
			report.WithMaxAttempts(200),
			report.WithMaxBackoffMs(5 * 60_000),
			report.WithSeed(5),
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("chaos campaign: %d/%d sessions triggered, %d reports, %d unique, "+
		"vmFaults=%d installRejects=%d panics=%d breaker=%v dead=%d faults=%v pipeline=%+v",
		cr.Successes, cr.Sessions, cr.Reports, cr.UniqueDetects,
		cr.VMFaults, cr.InstallRejects, cr.Panics, cr.BreakerTripped,
		cr.DeadLetters, cr.Faults, cr.Pipeline)

	if cr.Panics != 0 {
		t.Fatalf("%d sessions panicked — a bomb-path fault escaped containment", cr.Panics)
	}
	if cr.VMFaults == 0 && cr.InstallRejects == 0 {
		t.Error("campaign injected no bomb-path faults; profile rates too low to prove anything")
	}
	if cr.UniqueDetects == 0 {
		t.Fatal("no detections submitted; campaign exercised nothing")
	}
	if !cr.ExactlyOnce() {
		t.Errorf("exactly-once violated: %d unique submitted, %d unique delivered, max per key %d",
			cr.UniqueDetects, cr.SinkUnique, cr.SinkMaxPerKey)
	}
	if !cr.BreakerTripped {
		t.Error("market outage never tripped the circuit breaker")
	}
	if cr.DeadLetters != 0 {
		t.Errorf("%d events dead-lettered; retry budget should outlast the outage", cr.DeadLetters)
	}
	if cr.Pipeline.Duplicates == 0 {
		t.Error("no duplicate submissions were injected/deduped")
	}
	if cr.Pipeline.Retries == 0 {
		t.Error("no retries happened; outage did not bite")
	}
}

// TestChaosCampaignDeterministic: the same seed reproduces the same
// campaign bit for bit — the property that makes a failing campaign
// debuggable.
func TestChaosCampaignDeterministic(t *testing.T) {
	pirated, surf := chaosPrepared(t, 303)
	run := func() ChaosCampaignResult {
		cr, err := RunChaos(context.Background(), pirated, surf, ChaosOptions{
			Sessions: 4, CapMs: 10 * 60_000, Seed: 9, Profile: chaos.Mild,
		})
		if err != nil {
			t.Fatal(err)
		}
		return cr
	}
	a, b := run(), run()
	if a.Successes != b.Successes || a.Reports != b.Reports ||
		a.VMFaults != b.VMFaults || a.UniqueDetects != b.UniqueDetects ||
		a.Pipeline != b.Pipeline {
		t.Errorf("campaign not deterministic:\n a=%+v\n b=%+v", a, b)
	}
	if len(a.Faults) != len(b.Faults) {
		t.Error("fault tallies diverged")
	}
	for k, v := range a.Faults {
		if b.Faults[k] != v {
			t.Errorf("fault %q: %d vs %d", k, v, b.Faults[k])
		}
	}
}

// TestChaosBreakerTransitionsAndGauges runs the Harsh-with-outage
// grid cell and checks the obs view of the pipeline: the breaker's
// state-transition log replays exactly under virtual time, every
// transition is a legal edge of the state machine, and the
// dead-letter depth gauge tracks the ledger.
func TestChaosBreakerTransitionsAndGauges(t *testing.T) {
	pirated, surf := chaosPrepared(t, 307)
	capMs := int64(20 * 60_000)
	opts := ChaosOptions{
		Sessions: 10,
		CapMs:    capMs,
		Seed:     13,
		Profile:  chaos.Overlay(chaos.Harsh, chaos.Profile{Name: "outage"}),
		// Outage long enough to trip and re-trip; breaker threshold
		// lowered so sparse detection events still reach it (the same
		// shaping exp.ChaosResilience uses).
		SinkOutages: [][2]int64{{0, int64(10) * capMs / 4}},
		Pipeline: []report.Option{
			report.WithMaxAttempts(200), report.WithMaxBackoffMs(5 * 60_000),
			report.WithBreakerThreshold(3),
		},
	}
	run := func() ChaosCampaignResult {
		cr, err := RunChaos(context.Background(), pirated, surf, opts)
		if err != nil {
			t.Fatal(err)
		}
		return cr
	}
	a, b := run(), run()

	if len(a.Breaker) == 0 {
		t.Fatal("outage campaign produced no breaker transitions")
	}
	// Virtual time makes the transition sequence replayable exactly.
	if len(a.Breaker) != len(b.Breaker) {
		t.Fatalf("transition logs differ in length: %d vs %d", len(a.Breaker), len(b.Breaker))
	}
	for i := range a.Breaker {
		if a.Breaker[i] != b.Breaker[i] {
			t.Fatalf("transition %d differs: %+v vs %+v", i, a.Breaker[i], b.Breaker[i])
		}
	}
	// Every transition is a legal edge, chained from "closed".
	legal := map[string]map[string]bool{
		"closed":    {"open": true},
		"open":      {"half-open": true},
		"half-open": {"open": true, "closed": true},
	}
	state := "closed"
	lastMs := int64(-1)
	for i, tr := range a.Breaker {
		if tr.From != state {
			t.Fatalf("transition %d: from %q, machine was in %q", i, tr.From, state)
		}
		if !legal[tr.From][tr.To] {
			t.Fatalf("transition %d: illegal edge %s→%s", i, tr.From, tr.To)
		}
		if tr.AtMs < lastMs {
			t.Fatalf("transition %d: time went backwards (%d after %d)", i, tr.AtMs, lastMs)
		}
		state, lastMs = tr.To, tr.AtMs
	}
	if state != "closed" {
		t.Errorf("breaker ended %q; the flushed pipeline should have recovered", state)
	}
	trips := 0
	for _, tr := range a.Breaker {
		if tr.From == "closed" && tr.To == "open" {
			trips++
		}
	}
	if int64(trips) != a.Pipeline.BreakerTrips {
		t.Errorf("log has %d closed→open edges, BreakerTrips counter says %d",
			trips, a.Pipeline.BreakerTrips)
	}

	// The merged campaign registry carries the pipeline gauges: dead
	// letter depth equals the ledger, queue fully drained.
	if got, want := a.Obs.Gauge("report_dead_letter_depth").Value(), int64(a.DeadLetters); got != want {
		t.Errorf("dead-letter depth gauge = %d, ledger has %d", got, want)
	}
	if got := a.Obs.Gauge("report_queue_depth").Value(); got != 0 {
		t.Errorf("queue depth gauge = %d after flush, want 0", got)
	}
	if a.Obs.Counter("report_backoff_ms_total").Value() == 0 {
		t.Error("outage produced no accumulated backoff")
	}
}

// TestChaosCampaignCleanProfileMatchesNormal: under the zero profile
// the chaos path reduces to an ordinary campaign — no faults, no
// rejects, and detections still flow.
func TestChaosCampaignCleanProfileMatchesNormal(t *testing.T) {
	pirated, surf := chaosPrepared(t, 305)
	cr, err := RunChaos(context.Background(), pirated, surf, ChaosOptions{
		Sessions: 6, CapMs: 30 * 60_000, Seed: 11, Profile: chaos.None,
	})
	if err != nil {
		t.Fatal(err)
	}
	if cr.Panics != 0 || cr.InstallRejects != 0 || cr.VMFaults != 0 {
		t.Errorf("zero profile injected faults: %+v", cr)
	}
	if cr.UniqueDetects == 0 || !cr.ExactlyOnce() {
		t.Errorf("clean campaign should deliver its detections exactly once: %+v", cr)
	}
	if cr.BreakerTripped {
		t.Error("breaker tripped with a healthy sink")
	}
}

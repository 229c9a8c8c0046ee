package exp

import (
	"context"
	"fmt"

	"bombdroid/internal/chaos"
	"bombdroid/internal/report"
	"bombdroid/internal/sim"
)

// ChaosRow is one (app, fault profile) campaign outcome: did the bomb
// lifecycle fail closed, and did the report pipeline stay
// exactly-once despite the channel faults?
type ChaosRow struct {
	App         string
	Profile     string
	Sessions    int
	Triggered   int
	VMFaults    int // bomb-path faults contained in fail-closed VMs
	Rejects     int // corrupted images cleanly rejected at load
	Panics      int // must be 0
	Breaker     bool
	Unique      int // unique detections submitted
	Delivered   int // unique detections the market received
	ExactlyOnce bool
	DeadLetters int
}

// chaosProfiles is the experiment's fault grid: clean baseline, the
// mild profile, and a harsh profile with a market outage layered on.
var chaosProfiles = []struct {
	profile chaos.Profile
	outage  bool
}{
	{chaos.None, false},
	{chaos.Mild, false},
	{chaos.Overlay(chaos.Harsh, chaos.Profile{Name: "outage"}), true},
}

// ChaosResilience runs fault-injection campaigns over the prepared
// pirated apps. The paper's asymmetry argument (§2) is that attackers
// must analyse while users merely run; this experiment adds the
// operational half of that claim — detection keeps working, and never
// hurts an honest user's app, when devices and networks misbehave.
func ChaosResilience(ctx context.Context, sc Scale) ([]ChaosRow, error) {
	// Apps fan across the pool; each app's three fault profiles stay
	// serial (they share nothing, but three cheap campaigns per app do
	// not justify another nesting level).
	perApp, err := mapApps(ctx, sc, func(sc Scale, name string, p *PreparedApp) ([]ChaosRow, error) {
		capMs := int64(sc.SessionCapMin) * 60_000
		var rows []ChaosRow
		for _, pc := range chaosProfiles {
			opts := sim.ChaosOptions{
				Sessions: sc.SessionsPerApp,
				CapMs:    capMs,
				Seed:     seedFor(name) ^ 0x0C0C,
				Profile:  pc.profile,
				Obs:      sc.Obs,
			}
			if pc.outage {
				// Market down for the first quarter of the campaign —
				// long enough to trip the breaker, short enough that the
				// retry budget survives it. Detection events are sparse
				// (only report-kind responses reach the pipeline), so the
				// breaker threshold is lowered to keep the trip observable
				// at quick scales.
				opts.SinkOutages = [][2]int64{{0, int64(sc.SessionsPerApp) * capMs / 4}}
				opts.Pipeline = []report.Option{
					report.WithMaxAttempts(200), report.WithMaxBackoffMs(5 * 60_000),
					report.WithBreakerThreshold(3),
				}
			}
			cr, err := sim.RunChaos(ctx, p.Pirated, p.Surface, opts)
			if err != nil {
				return nil, err
			}
			rows = append(rows, ChaosRow{
				App: name, Profile: pc.profile.Name,
				Sessions: cr.Sessions, Triggered: cr.Successes,
				VMFaults: cr.VMFaults, Rejects: cr.InstallRejects,
				Panics: cr.Panics, Breaker: cr.BreakerTripped,
				Unique: cr.UniqueDetects, Delivered: cr.SinkUnique,
				ExactlyOnce: cr.ExactlyOnce(), DeadLetters: cr.DeadLetters,
			})
		}
		return rows, nil
	})
	if err != nil {
		return nil, err
	}
	var rows []ChaosRow
	for _, r := range perApp {
		rows = append(rows, r...)
	}
	return rows, nil
}

// FormatChaos renders the chaos-resilience campaign grid.
func FormatChaos(rows []ChaosRow) string {
	var out [][]string
	for _, r := range rows {
		once := "yes"
		if !r.ExactlyOnce {
			once = "NO"
		}
		breaker := "-"
		if r.Breaker {
			breaker = "tripped"
		}
		out = append(out, []string{
			r.App, r.Profile,
			fmt.Sprintf("%d/%d", r.Triggered, r.Sessions),
			fmt.Sprint(r.VMFaults), fmt.Sprint(r.Rejects), fmt.Sprint(r.Panics),
			breaker,
			fmt.Sprintf("%d/%d", r.Delivered, r.Unique),
			once, fmt.Sprint(r.DeadLetters),
		})
	}
	return RenderTable("Chaos resilience (fail-closed lifecycle + exactly-once reporting)",
		[]string{"App", "Profile", "trig", "contained", "rejects", "panics",
			"breaker", "delivered", "once", "dead"}, out)
}

// Package sim simulates the user side of decentralized repackaging
// detection: ordinary users on population-sampled devices playing an
// app through its UI until a bomb detonates (the measurement behind
// Table 3), plus population-scale campaigns aggregating detections
// across many users — the "user devices are made use of to detect
// repackaging" premise.
package sim

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"bombdroid/internal/android"
	"bombdroid/internal/apk"
	"bombdroid/internal/appgen"
	"bombdroid/internal/dex"
	"bombdroid/internal/obs"
	"bombdroid/internal/vm"
)

// Surface is the app's event surface a user interacts with.
type Surface struct {
	Handlers       []string
	ParamDomain    int64
	HandlerScreens map[string]int64
	ScreenField    string
}

// SurfaceOf extracts the surface from a generated app.
func SurfaceOf(app *appgen.App) Surface {
	return Surface{
		Handlers:       app.Handlers,
		ParamDomain:    app.Config.ParamDomain,
		HandlerScreens: app.HandlerScreens,
		ScreenField:    app.ScreenField,
	}
}

// SessionOptions configures one user session.
type SessionOptions struct {
	CapMs      int64 // give up after this much virtual play (default 60 min)
	EventGapMs int64 // user pacing (default 450 ms)
	Seed       int64
	// StartClockMs positions the session's wall clock; users play at
	// all hours (negative = randomize from seed).
	StartClockMs int64
	// Obs, when set, receives session metrics (trigger-latency
	// histogram, session/report counters, session→detonate spans) and
	// is threaded into the VM for opcode/dispatch profiles. Sessions
	// only add to counters and observe histograms — commutative ops —
	// so a registry shared across parallel sessions stays
	// deterministic. Nil = no instrumentation, no overhead.
	Obs *obs.Registry
}

// SessionResult is one user's session outcome.
type SessionResult struct {
	Triggered     bool  // a bomb ran its detection (paper: "bomb triggered")
	TimeToFirstMs int64 // virtual ms until the first triggered bomb
	FirstBomb     string
	Responses     []vm.ResponseEvent
	// StartClockMs is the wall position the session's virtual clock
	// started at (the resolved value when SessionOptions.StartClockMs
	// asked for a randomized start). Response TimeMillis values are on
	// this clock, so TimeMillis - StartClockMs is a response's offset
	// into the session — the detonation stamp campaign aggregators put
	// on outbound report.Events.
	StartClockMs   int64
	AbnormalExit   bool // the user saw a crash/freeze
	EventsPlayed   int
	OuterSatisfied int
}

// RunUserSession plays the packaged app on the given device like a
// human user: UI-valid events on active widgets, human pacing, until
// the first bomb triggers or the cap expires. The session loop
// checks ctx between user events and returns ctx.Err() when it fires,
// so a long session unwinds within one event's work.
func RunUserSession(ctx context.Context, pkg *apk.Package, surf Surface, dev *android.Device, opts SessionOptions) (SessionResult, error) {
	opts = opts.withDefaults()
	v, err := vm.New(pkg, dev, vm.Options{Seed: opts.Seed, Obs: opts.Obs})
	if err != nil {
		return SessionResult{}, fmt.Errorf("sim: install: %w", err)
	}
	return driveSession(ctx, v, surf, opts)
}

func (opts SessionOptions) withDefaults() SessionOptions {
	if opts.CapMs == 0 {
		opts.CapMs = 60 * 60_000
	}
	if opts.EventGapMs == 0 {
		opts.EventGapMs = 450
	}
	return opts
}

// driveSession runs the user-behaviour loop against an already
// constructed VM. Chaos campaigns build their own VMs (fault hooks,
// fail-closed mode, corrupted images) and share this driver, so
// faulted and clean sessions differ only in the injected faults.
func driveSession(ctx context.Context, v *vm.VM, surf Surface, opts SessionOptions) (SessionResult, error) {
	rng := rand.New(rand.NewSource(opts.Seed))
	start := opts.StartClockMs
	if start < 0 {
		start = rng.Int63n(7 * 86_400_000)
	}
	v.SetClockMillis(start)

	// App launch: process start, resource loading, first layout. On a
	// real device this is seconds, and it bounds the fastest possible
	// detection (the paper's fastest observed trigger is 8 s).
	if err := v.AdvanceIdle(2_500 + rng.Int63n(4_000)); err != nil {
		return SessionResult{}, err
	}

	var res SessionResult
	res.StartClockMs = start
	// The VM records the first detection check itself (FirstBombCheck),
	// so the session installs no observer and cost-only framework calls
	// keep their quickened fast path.
	for _, init := range v.InitMethods() {
		if _, err := v.Invoke(init); err != nil && vm.AbnormalExit(err) {
			res.AbnormalExit = true
		}
	}
	// Steady-state buffers reused across the event loop: the candidate
	// scratch for pickActive and the Invoke argument pair (a variadic
	// call with a spread slice passes the slice itself), so a session's
	// per-event work allocates nothing.
	scratch := make([]string, 0, len(surf.Handlers))
	argbuf := make([]dex.Value, 2)
	for v.NowMillis()-start < opts.CapMs {
		if _, _, hit := v.FirstBombCheck(); hit {
			break
		}
		if err := ctx.Err(); err != nil {
			return res, err
		}
		h := pickActive(rng, surf, v, scratch)
		argbuf[0] = dex.Int64(rng.Int63n(surf.ParamDomain))
		argbuf[1] = dex.Int64(rng.Int63n(surf.ParamDomain))
		_, err := v.Invoke(h, argbuf...)
		res.EventsPlayed++
		if vm.AbnormalExit(err) {
			res.AbnormalExit = true
			break
		}
		if err := v.AdvanceIdle(opts.EventGapMs + rng.Int63n(opts.EventGapMs)); err != nil {
			res.AbnormalExit = true
			break
		}
	}
	if ms, class, hit := v.FirstBombCheck(); hit {
		res.Triggered = true
		res.TimeToFirstMs = ms - start
		res.FirstBomb = class
	} else if res.AbnormalExit {
		// The crash itself is a detonation the user experienced.
		res.Triggered = true
		res.TimeToFirstMs = v.NowMillis() - start
	}
	res.Responses = v.Responses()
	res.OuterSatisfied = len(v.OuterTriggered())
	recordSession(opts.Obs, v, res, start)
	return res, nil
}

// recordSession publishes one completed session into reg: campaign
// counters, the trigger-latency histogram behind Table 3, a
// session→detonate span pair on the virtual clock, and the VM's
// buffered opcode counts. All writes are commutative, so a registry
// shared by parallel workers aggregates deterministically.
func recordSession(reg *obs.Registry, v *vm.VM, res SessionResult, startMs int64) {
	if reg == nil {
		return
	}
	reg.Counter("sim_sessions_total").Inc()
	reg.Counter("sim_events_total").Add(int64(res.EventsPlayed))
	sp := reg.StartSpan("session", startMs)
	if res.Triggered {
		reg.Counter("sim_sessions_triggered_total").Inc()
		reg.Histogram("sim_trigger_latency_ms", obs.LatencyBucketsMs).Observe(res.TimeToFirstMs)
		sp.Child("detonate", startMs).End(startMs + res.TimeToFirstMs)
	}
	for _, r := range res.Responses {
		if r.Kind == vm.RespReport {
			reg.Counter("sim_reports_total").Inc()
		}
	}
	if res.AbnormalExit || len(res.Responses) > 0 {
		reg.Counter("sim_complaints_total").Inc()
	}
	sp.End(v.NowMillis())
	v.FlushObs()
}

// pickActive selects a UI-valid handler. scratch is a caller-owned
// reusable buffer for the candidate list (the session loop calls this
// once per event).
func pickActive(rng *rand.Rand, surf Surface, v *vm.VM, scratch []string) string {
	if len(surf.HandlerScreens) == 0 || surf.ScreenField == "" {
		return surf.Handlers[rng.Intn(len(surf.Handlers))]
	}
	cur := v.Static(surf.ScreenField).Int
	active := scratch[:0]
	for _, h := range surf.Handlers {
		if scr, ok := surf.HandlerScreens[h]; ok && scr != -1 && scr != cur {
			continue
		}
		active = append(active, h)
	}
	if len(active) == 0 {
		return surf.Handlers[rng.Intn(len(surf.Handlers))]
	}
	return active[rng.Intn(len(active))]
}

// CampaignResult aggregates many user sessions (Table 3 rows and the
// market-response scenario).
type CampaignResult struct {
	Sessions  int
	Successes int
	MinMs     int64
	MaxMs     int64
	AvgMs     int64
	// Reports is the number of piracy reports that reached the
	// developer across the population.
	Reports int
	// Complaints counts sessions with user-hostile outcomes (crash,
	// freeze, warnings) — the bad-rating pressure of §1.
	Complaints int
}

// tally aggregates session outcomes into a CampaignResult. Run and
// RunChaos both feed it in session order and take every result they
// return, partial or whole, from result(), so each one satisfies
// Successes == 0 => MinMs == MaxMs == AvgMs == 0.
type tally struct {
	out CampaignResult
	sum int64
}

// add folds one played session into the aggregate.
func (t *tally) add(sr SessionResult) {
	if sr.Triggered {
		t.out.Successes++
		t.sum += sr.TimeToFirstMs
		if t.out.Successes == 1 || sr.TimeToFirstMs < t.out.MinMs {
			t.out.MinMs = sr.TimeToFirstMs
		}
		t.out.MaxMs = max(t.out.MaxMs, sr.TimeToFirstMs)
	}
	for _, r := range sr.Responses {
		if r.Kind == vm.RespReport {
			t.out.Reports++
		}
	}
	if sr.AbnormalExit || len(sr.Responses) > 0 {
		t.out.Complaints++
	}
}

// result returns the aggregate of the sessions added so far.
func (t *tally) result() CampaignResult {
	out := t.out
	if out.Successes > 0 {
		out.AvgMs = t.sum / int64(out.Successes)
	}
	return out
}

// CampaignOptions configures a population campaign for Run.
type CampaignOptions struct {
	// N is the number of user sessions to play.
	N int
	// CapMs bounds each session's virtual play time (0 = 60 min, via
	// SessionOptions defaults).
	CapMs int64
	// Seed derives the population draw and every per-session seed
	// (seed + i*101).
	Seed int64
	// Workers fans sessions across goroutines: 0 = one per CPU,
	// 1 = serial. Results are identical at any worker count.
	Workers int
	// Reg, when set, receives campaign metrics. Deterministic metrics
	// (session counters, trigger-latency histogram, VM opcode profile)
	// land via commutative updates, so SnapshotDeterministic is
	// byte-identical at any worker count; wall-clock throughput lands
	// in Volatile metrics excluded from that snapshot. Nil turns all
	// instrumentation off.
	Reg *obs.Registry
}

// Run plays opts.N user sessions on population-sampled devices — the
// canonical campaign entry point (the measurement behind Table 3 and
// the population half of the market-response scenario). The campaign
// is embarrassingly parallel by construction — the paper's detection
// cost is amortized across an independent user population — and the
// implementation keeps it deterministic:
//
//   - devices are pre-sampled serially from the campaign RNG in
//     session order, so the population draw is identical at any
//     worker count;
//   - each session derives all remaining randomness from its own
//     seed (seed + i*101) and builds its own VM from the immutable
//     package, sharing nothing mutable with its siblings;
//   - results aggregate by session index, never by completion order.
//
// Cancelling ctx stops workers from claiming further sessions and
// unwinds in-flight sessions at their next event; the campaign then
// returns the context's error with the lowest cancelled index's
// partial aggregation discarded, exactly like a session error.
func Run(ctx context.Context, pkg *apk.Package, surf Surface, opts CampaignOptions) (CampaignResult, error) {
	n, capMs, seed, workers, reg := opts.N, opts.CapMs, opts.Seed, opts.Workers, opts.Reg
	wallStart := time.Now()
	rng := rand.New(rand.NewSource(seed))
	devs := make([]*android.Device, n)
	for i := range devs {
		devs[i] = android.SamplePopulation(fmt.Sprintf("user%d", i), rng)
	}
	srs := make([]SessionResult, n)
	errs := make([]error, n)
	run := func(i int) {
		if err := ctx.Err(); err != nil {
			errs[i] = err
			return
		}
		srs[i], errs[i] = RunUserSession(ctx, pkg, surf, devs[i], SessionOptions{
			CapMs: capMs, Seed: seed + int64(i)*101, StartClockMs: -1, Obs: reg,
		})
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			run(i)
		}
	} else {
		var next atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for ctx.Err() == nil {
					i := int(next.Add(1)) - 1
					if i >= n {
						return
					}
					run(i)
				}
			}()
		}
		wg.Wait()
	}
	t := tally{out: CampaignResult{Sessions: n}}
	if err := ctx.Err(); err != nil {
		// Workers stopped claiming; unclaimed sessions never ran, so the
		// aggregate would undercount silently. Report the cancellation.
		return t.result(), err
	}
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			// Mirror the serial engine: report the lowest-index error
			// with the sessions before it aggregated.
			return t.result(), errs[i]
		}
		t.add(srs[i])
	}
	if reg != nil {
		// Wall-clock throughput is scheduler-dependent by nature, so it
		// is Volatile: visible in operator snapshots, excluded from the
		// deterministic one.
		wallMs := time.Since(wallStart).Milliseconds()
		reg.Counter("sim_campaign_wall_ms_total", obs.Volatile()).Add(wallMs)
		if wallMs > 0 {
			reg.Gauge("sim_sessions_per_sec", obs.Volatile()).Set(int64(n) * 1000 / wallMs)
		}
	}
	return t.result(), nil
}

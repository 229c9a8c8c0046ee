package sim

import (
	"context"
	"fmt"
	"math/rand"

	"bombdroid/internal/android"
	"bombdroid/internal/apk"
	"bombdroid/internal/chaos"
	"bombdroid/internal/obs"
	"bombdroid/internal/report"
	"bombdroid/internal/vm"
)

// ChaosOptions configures a fault-injected campaign.
type ChaosOptions struct {
	Sessions int
	CapMs    int64
	Seed     int64
	Profile  chaos.Profile
	// SinkOutages schedules market-side outage windows in campaign
	// virtual ms ([start,end)); deliveries inside a window fail, which
	// should trip and later recover the pipeline's circuit breaker.
	SinkOutages [][2]int64
	// Pipeline adjusts the report pipeline configuration on top of
	// report.DefaultConfig. The campaign seeds the pipeline's jitter
	// RNG from Seed unless a report.WithSeed option here overrides it.
	Pipeline []report.Option
	// Sink is the terminal sink behind the faulted channel (nil = a
	// fresh report.MemorySink). cmd/loadgen points this at a
	// report.HTTPSink to replay a chaos campaign's event stream into a
	// live marketd. The SinkUnique/SinkMaxPerKey result fields are
	// only populated for a *report.MemorySink, where the campaign can
	// see per-key counts.
	Sink report.Sink
	// Obs, when set, receives the campaign's metrics: the campaign runs
	// against a private registry (so per-campaign numbers stay exact)
	// which is merged into Obs at the end.
	Obs *obs.Registry
}

// ChaosCampaignResult aggregates a campaign run under fault
// injection: the ordinary campaign metrics, plus everything needed to
// check the two resilience invariants — the bomb lifecycle failed
// closed (no panics, faults contained and ledgered) and the report
// pipeline delivered each unique detection exactly once.
type ChaosCampaignResult struct {
	CampaignResult
	Profile        string
	Faults         map[string]int // injector tallies by fault kind
	VMFaults       int            // bomb-path faults contained by fail-closed VMs
	Panics         int            // sessions that panicked (must be 0)
	InstallRejects int            // corrupted images cleanly rejected at load
	BreakerTripped bool           // the circuit breaker opened at least once
	Pipeline       report.Stats
	UniqueDetects  int // distinct (app,bomb,user) detections submitted
	SinkUnique     int // distinct detections the market actually received
	SinkMaxPerKey  int // 1 on an exactly-once run
	DeadLetters    int
	// Obs is the campaign's metrics registry (session counters, VM
	// opcode profile, fault-injection tallies, merged pipeline
	// counters). The int fields above are thin reads of it, kept for
	// existing callers.
	Obs *obs.Registry
	// Breaker is the pipeline's breaker state-transition log in
	// virtual-time order.
	Breaker []report.BreakerTransition
}

// ExactlyOnce reports whether every unique submitted detection
// reached the sink exactly one time.
func (r ChaosCampaignResult) ExactlyOnce() bool {
	return r.SinkUnique == r.UniqueDetects && (r.UniqueDetects == 0 || r.SinkMaxPerKey == 1)
}

// RunChaos plays a population of user sessions against the packaged
// app with the profile's faults injected at every layer: ciphertext
// corruption at decrypt time, dex bit rot at load time, environment
// misreporting at read time, and channel faults (drop/dup/delay/
// reorder plus scheduled outages) between the devices and the market
// sink. It is the canonical chaos-campaign entry point.
//
// Sessions run on a shared campaign clock: session i occupies the
// window [i*CapMs, (i+1)*CapMs). The report pipeline is ticked as the
// campaign advances and flushed at the end, so delayed and retried
// events settle before the result is assembled.
//
// Cancelling ctx stops the campaign between sessions and inside each
// session's event loop, returning ctx.Err() with the sessions played
// before the cancel aggregated.
func RunChaos(ctx context.Context, pkg *apk.Package, surf Surface, opts ChaosOptions) (ChaosCampaignResult, error) {
	if opts.Sessions == 0 {
		opts.Sessions = 20
	}
	if opts.CapMs == 0 {
		opts.CapMs = 60 * 60_000
	}
	inj := chaos.NewInjector(opts.Profile, opts.Seed)
	sink := opts.Sink
	if sink == nil {
		sink = report.NewMemorySink()
	}
	// Caller options are applied after the campaign's seed default, so
	// report.WithSeed in opts.Pipeline wins — same precedence the old
	// Config-based field had.
	pipeOpts := append([]report.Option{report.WithSeed(opts.Seed)}, opts.Pipeline...)
	pipe := report.NewPipeline(&chaos.FlakySink{Inner: sink, Inj: inj, Outages: opts.SinkOutages}, pipeOpts...)

	// The campaign tallies live in a private registry (the ad-hoc
	// counter fields this struct used to carry are now thin reads of
	// it); opts.Obs receives a merge at the end.
	reg := obs.NewRegistry()
	cVMFaults := reg.Counter("chaos_vm_faults_total")
	cPanics := reg.Counter("chaos_panics_total")
	cRejects := reg.Counter("chaos_install_rejects_total")

	out := ChaosCampaignResult{Profile: opts.Profile.Name, Obs: reg}
	t := tally{out: CampaignResult{Sessions: opts.Sessions}}
	submitted := make(map[string]bool)

	for i := 0; i < opts.Sessions; i++ {
		if err := ctx.Err(); err != nil {
			out.CampaignResult = t.result()
			return out, err
		}
		base := int64(i) * opts.CapMs
		user := fmt.Sprintf("user%d", i)
		seed := opts.Seed + int64(i)*101
		dev := android.SamplePopulation(user, chaosRng(seed))

		sr, vmFaults, outcome := runChaosSession(ctx, pkg, surf, dev, inj, SessionOptions{
			CapMs: opts.CapMs, Seed: seed, StartClockMs: -1, Obs: reg,
		})
		cVMFaults.Add(int64(vmFaults))
		switch outcome {
		case sessionPanicked:
			cPanics.Inc()
			continue
		case sessionRejected:
			cRejects.Inc()
			continue
		}
		t.add(sr)

		// Detections leave the device over the faulted channel: each
		// RespReport becomes a detection event, possibly duplicated,
		// delayed, or swapped with its neighbour before submission.
		// TimeMs is the detonation's true position on the campaign
		// clock — the session window start plus the response's offset
		// into the session — so downstream latency breakdowns (trace
		// e2e, market verdict timelines) measure from detonation, not
		// from the window edge.
		var batch []report.Event
		for _, r := range sr.Responses {
			if r.Kind != vm.RespReport {
				continue
			}
			detMs := base + (r.TimeMillis - sr.StartClockMs)
			ev := report.Event{App: pkg.Name, Bomb: r.BombID, User: user, TimeMs: detMs, Info: r.Info}
			if inj.Hit(opts.Profile.DelayEvent, "event-delay") {
				ev.TimeMs += inj.DelayMs()
			}
			batch = append(batch, ev)
			if inj.Hit(opts.Profile.DupEvent, "event-dup") {
				batch = append(batch, ev)
			}
		}
		for j := 1; j < len(batch); j++ {
			if inj.Hit(opts.Profile.ReorderEvent, "event-reorder") {
				batch[j-1], batch[j] = batch[j], batch[j-1]
			}
		}
		for _, ev := range batch {
			submitted[ev.Key()] = true
			pipe.Submit(ev, ev.TimeMs)
		}
		pipe.Tick(base + opts.CapMs)
		if pipe.BreakerOpen() {
			out.BreakerTripped = true
		}
	}

	endMs := int64(opts.Sessions) * opts.CapMs
	pipe.Flush(endMs, endMs+10*60_000)

	out.CampaignResult = t.result()
	out.Faults = inj.Counts()
	for kind, n := range out.Faults {
		reg.Counter(obs.L("chaos_fault_injections_total", "kind", kind)).Add(int64(n))
	}
	out.VMFaults = int(cVMFaults.Value())
	out.Panics = int(cPanics.Value())
	out.InstallRejects = int(cRejects.Value())
	out.Pipeline = pipe.Stats()
	if out.Pipeline.BreakerTrips > 0 {
		out.BreakerTripped = true
	}
	out.UniqueDetects = len(submitted)
	if ms, ok := sink.(*report.MemorySink); ok {
		out.SinkUnique = ms.UniqueKeys()
		out.SinkMaxPerKey = ms.MaxPerKey()
	}
	out.DeadLetters = len(pipe.DeadLetters())
	out.Breaker = pipe.BreakerTransitions()
	pipe.Obs().MergeInto(reg)
	if opts.Obs != nil {
		reg.MergeInto(opts.Obs)
	}
	return out, nil
}

// chaosRng derives a device-sampling rng from a session seed.
func chaosRng(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

type sessionOutcome int

const (
	sessionRan sessionOutcome = iota
	sessionRejected
	sessionPanicked
)

// runChaosSession builds a fail-closed VM over a possibly corrupted
// image, injects env faults, and drives one session with a panic
// barrier. A corrupted image that fails to load is a clean rejection;
// a panic anywhere in the lifecycle is the invariant violation the
// harness exists to catch.
func runChaosSession(ctx context.Context, pkg *apk.Package, surf Surface, dev *android.Device, inj *chaos.Injector, opts SessionOptions) (sr SessionResult, vmFaults int, outcome sessionOutcome) {
	defer func() {
		if recover() != nil {
			outcome = sessionPanicked
		}
	}()
	opts = opts.withDefaults()

	img := pkg
	vmOpts := vm.Options{Seed: opts.Seed, FailClosed: true, BlobFault: inj.BlobFault(), Obs: opts.Obs}
	var v *vm.VM
	var err error
	if mut, hit := inj.CorruptDex(pkg.Dex); hit {
		// Post-verification image corruption: the signature already
		// passed at install, so the corrupted bytes load unverified.
		img = pkg.Clone()
		img.Dex = mut
		v, err = vm.NewUnverified(img, dev, vmOpts)
	} else {
		v, err = vm.New(img, dev, vmOpts)
	}
	if err != nil {
		return SessionResult{}, 0, sessionRejected
	}
	inj.ApplyEnvFaults(v)

	sr, err = driveSession(ctx, v, surf, opts)
	if err != nil {
		// driveSession errors are fail-closed outcomes (budget, launch
		// fault), not crashes; treat as an uneventful session.
		return SessionResult{}, len(v.Faults()), sessionRan
	}
	return sr, len(v.Faults()), sessionRan
}

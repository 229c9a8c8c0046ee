// Benchmarks of the layers a profile needs: the Table 3 campaign
// alone (VM dispatch and sim on warm prepared apps), the VM's invoke
// loop in its quickened, reference and instrumented forms, the
// protection engine cold and warm, the hot-method ablation, and the
// report pipeline's queue and backoff. Each one fails if its built-in
// check does, so `go test -run '^$' -bench . -benchtime 1x .` also
// works as a smoke run.
//
// The paper's tables and figures come from cmd/report; the tests in
// internal/exp pin their shapes. End-to-end numbers come from
// cmd/benchrun.
package bombdroid_test

import (
	"context"
	"fmt"
	"testing"

	"bombdroid/internal/android"
	"bombdroid/internal/apk"
	"bombdroid/internal/appgen"
	"bombdroid/internal/artifact"
	"bombdroid/internal/chaos"
	"bombdroid/internal/core"
	"bombdroid/internal/dex"
	"bombdroid/internal/exp"
	"bombdroid/internal/fuzz"
	"bombdroid/internal/obs"
	"bombdroid/internal/report"
	"bombdroid/internal/vm"
)

// BenchmarkTable3FirstTrigger runs the Table 3 campaign on apps whose
// preparation is already cached, so it measures VM dispatch and the
// user-session loop, serial and on eight workers.
func BenchmarkTable3FirstTrigger(b *testing.B) {
	for _, workers := range []int{1, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			sc := exp.Quick()
			sc.Workers = workers
			// Warm the Prepare cache so the benchmark measures campaign
			// execution, not the one-time app-preparation pipeline.
			if _, err := exp.Table3(context.Background(), sc); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rows, err := exp.Table3(context.Background(), sc)
				if err != nil {
					b.Fatal(err)
				}
				var avg, success, sessions float64
				for _, r := range rows {
					avg += r.AvgSec
					success += float64(r.Success)
					sessions += float64(r.Sessions)
				}
				b.ReportMetric(avg/float64(len(rows)), "avg_sec")
				b.ReportMetric(100*success/sessions, "success_pct")
			}
		})
	}
}

// --- Micro-benchmarks of the core machinery ---

func benchApp(b *testing.B) (*appgen.App, *apk.Package, *apk.KeyPair) {
	b.Helper()
	app, err := appgen.Generate(appgen.Config{
		Name: "bench", Seed: 77, TargetLOC: 2000, QCPerMethod: 1.3,
	})
	if err != nil {
		b.Fatal(err)
	}
	key, err := apk.NewKeyPair(9)
	if err != nil {
		b.Fatal(err)
	}
	pkg, err := apk.Sign(apk.Build("bench", app.File, apk.Resources{Strings: []string{"x"}}), key)
	if err != nil {
		b.Fatal(err)
	}
	return app, pkg, key
}

// BenchmarkInvoke is the tight VM-dispatch loop: one handler invoked
// over and over. allocs/op is the headline — the frame free-list and
// the precomputed invoke-resolution table exist to drive it down.
func BenchmarkInvoke(b *testing.B) {
	app, pkg, _ := benchApp(b)
	v, err := vm.New(pkg, android.EmulatorLab(1)[0], vm.Options{Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	handlers := v.Handlers()
	if len(handlers) == 0 {
		b.Fatal("no handlers")
	}
	h := handlers[0]
	x := dex.Int64(3)
	y := dex.Int64(app.Config.ParamDomain / 2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := v.Invoke(h, x, y); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkInvokeRef is the same loop on the retained reference
// interpreter (Options.Reference): the before/after pair for the
// quickening pass. End-to-end interpreter numbers come from
// cmd/benchrun (the protect and table3 workloads).
func BenchmarkInvokeRef(b *testing.B) {
	app, pkg, _ := benchApp(b)
	v, err := vm.New(pkg, android.EmulatorLab(1)[0], vm.Options{Seed: 1, Reference: true})
	if err != nil {
		b.Fatal(err)
	}
	handlers := v.Handlers()
	if len(handlers) == 0 {
		b.Fatal("no handlers")
	}
	h := handlers[0]
	x := dex.Int64(3)
	y := dex.Int64(app.Config.ParamDomain / 2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := v.Invoke(h, x, y); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkInvokeObs is the same loop with the obs layer attached:
// per-opcode counts, tallied once per straight-line run by the
// quickened loop's slow run head, plus the per-invoke counter and
// steps histogram, all buffered VM-locally and published on FlushObs —
// no atomics and no allocations on the Invoke path. BenchmarkInvoke
// itself (obs off) must stay flat: with obs off the run head is the
// same single compare, against a per-VM limit.
func BenchmarkInvokeObs(b *testing.B) {
	app, pkg, _ := benchApp(b)
	reg := obs.NewRegistry()
	v, err := vm.New(pkg, android.EmulatorLab(1)[0], vm.Options{Seed: 1, Obs: reg})
	if err != nil {
		b.Fatal(err)
	}
	handlers := v.Handlers()
	if len(handlers) == 0 {
		b.Fatal("no handlers")
	}
	h := handlers[0]
	x := dex.Int64(3)
	y := dex.Int64(app.Config.ParamDomain / 2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := v.Invoke(h, x, y); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	v.FlushObs()
	if reg.Counter("vm_invokes_total").Value() == 0 {
		b.Fatal("obs bench recorded nothing")
	}
}

// --- Ablations (DESIGN.md §6) ---

// BenchmarkAblationHotMethods: bombing hot methods vs excluding them —
// the overhead impact of the paper's top-10% exclusion. Both arms
// profile alike (and share the profile artifact); HotFrac -1 excludes
// nothing.
func BenchmarkAblationHotMethods(b *testing.B) {
	app, pkg, key := benchApp(b)
	store := artifact.NewStore(64 << 20)
	prof := core.ProfileConfig{Events: 2500, Domain: app.Config.ParamDomain, Seed: 1, Watch: app.IntFieldRefs}
	measure := func(hotFrac float64) float64 {
		eng := &core.Engine{Opts: core.Options{Seed: 5, HotFrac: hotFrac}, Prof: prof, Cache: store}
		built, err := eng.Run(context.Background(), pkg)
		if err != nil {
			b.Fatal(err)
		}
		prot, err := apk.Sign(built.Unsigned, key)
		if err != nil {
			b.Fatal(err)
		}
		ticks := func(p *apk.Package) int64 {
			v, err := vm.New(p, android.EmulatorLab(1)[0], vm.Options{Seed: 7})
			if err != nil {
				b.Fatal(err)
			}
			r := fuzz.Run(v, fuzz.NewDynodroid(), app.Config.ParamDomain, fuzz.Options{
				DurationMs: 1 << 40, MaxEvents: 1500, EventGapMs: 250, Seed: 7,
				HandlerScreens: app.HandlerScreens, ScreenField: app.ScreenField,
			})
			return v.NowTicks() - int64(r.Events)*250*vm.TicksPerMilli
		}
		ta := ticks(pkg)
		tb := ticks(prot)
		return 100 * float64(tb-ta) / float64(ta)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.ReportMetric(measure(0.10), "overhead_pct_hot_excluded")
		b.ReportMetric(measure(-1), "overhead_pct_no_exclusion")
	}
}

// BenchmarkReportIngestion: events/sec through the detection-report
// pipeline under a faulted channel (1% drops, 5% delays) — the
// market-side ingestion cost of decentralized detection at scale.
func BenchmarkReportIngestion(b *testing.B) {
	profile := chaos.Profile{
		Name:       "bench",
		DropEvent:  0.01,
		DelayEvent: 0.05, DelayEventMs: 250,
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		inj := chaos.NewInjector(profile, 7)
		sink := report.NewMemorySink()
		pipe := report.NewPipeline(&chaos.FlakySink{Inner: sink, Inj: inj}, report.WithSeed(7))
		const events = 5_000
		now := int64(0)
		for j := 0; j < events; j++ {
			ev := report.Event{
				App:  "bench",
				Bomb: fmt.Sprintf("bomb%d", j%40),
				User: fmt.Sprintf("user%d", j/40),
			}
			if inj.Hit(profile.DelayEvent, "delay") {
				ev.TimeMs = now + inj.DelayMs()
			} else {
				ev.TimeMs = now
			}
			pipe.Submit(ev, ev.TimeMs)
			now += 2
			if j%64 == 0 {
				pipe.Tick(now)
			}
		}
		pipe.Flush(now, now+60_000)
		if got := sink.UniqueKeys(); got != events {
			b.Fatalf("delivered %d unique of %d", got, events)
		}
		if sink.MaxPerKey() != 1 {
			b.Fatal("duplicate delivery under faults")
		}
		b.ReportMetric(float64(events), "events")
	}
	elapsed := b.Elapsed().Seconds()
	if elapsed > 0 {
		b.ReportMetric(float64(b.N)*5_000/elapsed, "events/sec")
	}
}

// --- Staged protection engine (cold vs warm cache) ---

// BenchmarkEngineCold runs the full staged pipeline with no cache —
// every stage executes — and reports per-stage wall time so the
// pipeline's cost profile is part of the benchmark record.
func BenchmarkEngineCold(b *testing.B) {
	_, pkg, _ := benchApp(b)
	prof := core.ProfileConfig{Events: 2500, Domain: 64, Seed: 7}
	stageNs := map[core.StageName]int64{}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng := &core.Engine{Opts: core.Options{Seed: 5}, Prof: prof}
		p, err := eng.Run(context.Background(), pkg)
		if err != nil {
			b.Fatal(err)
		}
		for _, st := range p.Info.Stages {
			stageNs[st.Stage] += st.WallNs
		}
	}
	b.StopTimer()
	for stage, total := range stageNs {
		b.ReportMetric(float64(total)/float64(b.N), string(stage)+"_ns_op")
	}
}

// BenchmarkEngineWarm re-protects the same input against a warmed
// artifact store: profile and analysis are skipped and the run is one
// result-cache hit, which copies the cached run and decodes its dex.
// The acceptance bar is a ≥5× speedup over BenchmarkEngineCold.
func BenchmarkEngineWarm(b *testing.B) {
	_, pkg, _ := benchApp(b)
	store := artifact.NewStore(256 << 20)
	eng := &core.Engine{
		Opts:  core.Options{Seed: 5},
		Prof:  core.ProfileConfig{Events: 2500, Domain: 64, Seed: 7},
		Cache: store,
	}
	if _, err := eng.Run(context.Background(), pkg); err != nil {
		b.Fatal(err)
	}
	warmup := store.Stats()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, err := eng.Run(context.Background(), pkg)
		if err != nil {
			b.Fatal(err)
		}
		if p.Info.CacheHits == 0 {
			b.Fatal("warm run missed the cache")
		}
	}
	b.StopTimer()
	st := store.Stats()
	hits, misses := st.Hits-warmup.Hits, st.Misses-warmup.Misses
	if total := hits + misses; total > 0 {
		b.ReportMetric(100*float64(hits)/float64(total), "cache_hit_pct")
	}
}

package fuzz_test

import (
	"context"
	"math/rand"
	"testing"

	"bombdroid/internal/android"
	"bombdroid/internal/apk"
	"bombdroid/internal/appgen"
	"bombdroid/internal/core"
	"bombdroid/internal/fuzz"
	"bombdroid/internal/vm"
)

func buildProtected(t *testing.T, seed int64) (*apk.Package, *apk.Package, *core.Result, *appgen.App) {
	t.Helper()
	app, err := appgen.Generate(appgen.Config{
		Name: "fz", Seed: seed, TargetLOC: 2600, QCPerMethod: 1.3,
	})
	if err != nil {
		t.Fatal(err)
	}
	key, err := apk.NewKeyPair(21)
	if err != nil {
		t.Fatal(err)
	}
	orig, err := apk.Sign(apk.Build("fz", app.File, apk.Resources{Strings: []string{"x"}}), key)
	if err != nil {
		t.Fatal(err)
	}
	built, err := (&core.Engine{Opts: core.Options{Seed: seed}}).Run(context.Background(), orig)
	if err != nil {
		t.Fatal(err)
	}
	prot, err := apk.Sign(built.Unsigned, key)
	if err != nil {
		t.Fatal(err)
	}
	res := built.Result
	attacker, err := apk.NewKeyPair(1000 + seed)
	if err != nil {
		t.Fatal(err)
	}
	pirated, err := apk.Repackage(prot, attacker, apk.RepackOptions{NewAuthor: "pirate"})
	if err != nil {
		t.Fatal(err)
	}
	return prot, pirated, res, app
}

func emulatorVM(t *testing.T, pkg *apk.Package) *vm.VM {
	t.Helper()
	v, err := vm.New(pkg, android.EmulatorLab(1)[0], vm.Options{Seed: 5, Profile: true})
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func TestAllFuzzersProduceValidEvents(t *testing.T) {
	prot, _, _, app := buildProtected(t, 41)
	for _, fz := range []fuzz.Fuzzer{fuzz.Monkey{}, fuzz.PUMA{}, &fuzz.AndroidHooker{}, fuzz.NewDynodroid()} {
		v := emulatorVM(t, prot)
		res := fuzz.Run(v, fz, app.Config.ParamDomain, fuzz.Options{DurationMs: 120_000, Seed: 1})
		if res.Events == 0 {
			t.Errorf("%s produced no events", fz.Name())
		}
		if res.VirtualMillis < 100_000 {
			t.Errorf("%s: virtual time %dms, want >= ~120s", fz.Name(), res.VirtualMillis)
		}
		if res.Fuzzer != fz.Name() {
			t.Errorf("result fuzzer label %q", res.Fuzzer)
		}
	}
}

func TestMonkeySendsOutOfDomainEvents(t *testing.T) {
	ctx := &fuzz.Context{Handlers: []string{"App.onEvent0"}, Domain: 64, Rng: rand.New(rand.NewSource(1))}
	outside, misses, hits := 0, 0, 0
	for i := 0; i < 2000; i++ {
		ev := fuzz.Monkey{}.Next(ctx)
		if ev.Handler == "" {
			misses++
			continue
		}
		hits++
		if ev.A >= 64 || ev.B >= 64 {
			outside++
		}
	}
	if misses < 800 {
		t.Errorf("Monkey should miss widgets often: %d/2000", misses)
	}
	if outside < hits/2 {
		t.Errorf("Monkey should frequently leave the valid domain: %d/%d", outside, hits)
	}
	// PUMA never leaves it.
	for i := 0; i < 1000; i++ {
		ev := fuzz.PUMA{}.Next(ctx)
		if ev.A >= 64 || ev.B >= 64 {
			t.Fatal("PUMA sent out-of-domain event")
		}
	}
}

func TestHookerReplays(t *testing.T) {
	ctx := &fuzz.Context{Handlers: []string{"h1", "h2", "h3"}, Domain: 16, Rng: rand.New(rand.NewSource(3))}
	h := &fuzz.AndroidHooker{}
	seen := map[fuzz.Event]int{}
	for i := 0; i < 2000; i++ {
		seen[h.Next(ctx)]++
	}
	replayed := 0
	for _, c := range seen {
		if c > 1 {
			replayed++
		}
	}
	if replayed == 0 {
		t.Error("Hooker never replayed an event")
	}
}

func TestDynodroidSweepsDomain(t *testing.T) {
	ctx := &fuzz.Context{Handlers: []string{"h"}, Domain: 32, Rng: rand.New(rand.NewSource(4))}
	d := fuzz.NewDynodroid()
	vals := map[int64]bool{}
	for i := 0; i < 200; i++ {
		vals[d.Next(ctx).A] = true
	}
	if len(vals) < 30 {
		t.Errorf("Dynodroid covered %d/32 parameter values; sweep broken", len(vals))
	}
}

func TestDynodroidPrefersNovelHandlers(t *testing.T) {
	ctx := &fuzz.Context{Handlers: []string{"boring", "novel"}, Domain: 8, Rng: rand.New(rand.NewSource(5))}
	d := fuzz.NewDynodroid()
	// Feed feedback: "novel" always yields novelty, "boring" never.
	counts := map[string]int{}
	for i := 0; i < 3000; i++ {
		ev := d.Next(ctx)
		counts[ev.Handler]++
		novelty := 0
		if ev.Handler == "novel" {
			novelty = 3
		}
		d.Observe(ev, novelty, false)
	}
	if counts["novel"] <= counts["boring"] {
		t.Errorf("guided fuzzer ignored novelty: %v", counts)
	}
}

func TestFuzzerOrderingOnProtectedApp(t *testing.T) {
	// The paper's Table 4 ordering: Dynodroid satisfies at least as
	// many outer triggers as Monkey over the same virtual hour.
	_, pirated, res, app := buildProtected(t, 43)
	real := map[int64]bool{}
	for _, b := range res.RealBombs() {
		real[b.BlobIdx] = true
	}
	count := func(mk func() fuzz.Fuzzer) int {
		total := 0
		for seed := int64(1); seed <= 3; seed++ {
			v := emulatorVM(t, pirated)
			r := fuzz.Run(v, mk(), app.Config.ParamDomain, fuzz.Options{
				DurationMs: 3_600_000, Seed: seed,
				WatchFields:    app.IntFieldRefs,
				HandlerScreens: app.HandlerScreens,
				ScreenField:    app.ScreenField,
			})
			for _, blob := range r.OuterSatisfied {
				if real[blob] {
					total++
				}
			}
		}
		return total
	}
	monkey := count(func() fuzz.Fuzzer { return fuzz.Monkey{} })
	puma := count(func() fuzz.Fuzzer { return fuzz.PUMA{} })
	dyno := count(func() fuzz.Fuzzer { return fuzz.NewDynodroid() })
	t.Logf("outer triggers over 3 seeds: monkey=%d puma=%d dynodroid=%d (of %d real bombs)",
		monkey, puma, dyno, len(real))
	// Small fixtures saturate, so allow one-bomb noise per seed; the
	// statistically solid version of this assertion is
	// exp.TestTable4FuzzerOrdering.
	if dyno < monkey-3 {
		t.Errorf("Dynodroid (%d) should not trail Monkey (%d)", dyno, monkey)
	}
	if puma < monkey-3 {
		t.Errorf("PUMA (%d) should not trail Monkey (%d)", puma, monkey)
	}
	if dyno == 0 {
		t.Error("Dynodroid satisfied no outer trigger in an hour")
	}
}

func TestRunMaxEvents(t *testing.T) {
	prot, _, _, app := buildProtected(t, 47)
	v := emulatorVM(t, prot)
	res := fuzz.Run(v, fuzz.PUMA{}, app.Config.ParamDomain, fuzz.Options{DurationMs: 3_600_000, MaxEvents: 50, Seed: 2})
	if res.Events != 50 {
		t.Errorf("events = %d, want 50", res.Events)
	}
}

func TestProfileProducesCountsAndValues(t *testing.T) {
	prot, _, _, app := buildProtected(t, 53)
	v := emulatorVM(t, prot)
	profile, fieldVals, err := fuzz.Profile(context.Background(), v, app.Config.ParamDomain, 2000, app.IntFieldRefs, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(profile) == 0 {
		t.Fatal("empty profile")
	}
	// Hot helpers should dominate (they run on every event).
	var hotCount, handlerCount int64
	for name, c := range profile {
		if name == "App.helper0" {
			hotCount = c
		}
		if name == "App.onEvent0" {
			handlerCount = c
		}
	}
	if hotCount == 0 {
		t.Error("hot helper not profiled")
	}
	if hotCount < handlerCount {
		t.Errorf("hot helper (%d) should outrank a single handler (%d)", hotCount, handlerCount)
	}
	multi := 0
	for _, vals := range fieldVals {
		if len(vals) > 1 {
			multi++
		}
	}
	if multi == 0 {
		t.Error("profiling observed no field-value diversity")
	}
}

func TestFalsePositiveFreeRunOnGenuineApp(t *testing.T) {
	// §8.4: ten virtual hours of Dynodroid on the protected,
	// *legitimately signed* app must fire zero responses.
	prot, _, _, app := buildProtected(t, 59)
	v := emulatorVM(t, prot)
	res := fuzz.Run(v, fuzz.NewDynodroid(), app.Config.ParamDomain, fuzz.Options{
		DurationMs: 2 * 3_600_000, // two virtual hours keep the test fast
		Seed:       3, WatchFields: app.IntFieldRefs,
	})
	if len(res.Responses) != 0 {
		t.Fatalf("false positives: %+v", res.Responses)
	}
	if res.AbnormalExits != 0 {
		t.Fatalf("genuine app aborted %d times", res.AbnormalExits)
	}
	// Detections may have *run* (bombs fired) — they must simply stay
	// silent; that is the point of the experiment.
	t.Logf("outer triggers fired silently: %d", len(res.OuterSatisfied))
}

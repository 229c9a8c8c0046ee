// Attacker vs. users: the asymmetry the whole design rests on
// (paper observations D1 and D2). The attacker fuzzes the pirated app
// on a handful of emulators for virtual hours and trips almost
// nothing; a population of real users detonates bomb after bomb in
// minutes of ordinary play.
package main

import (
	"context"
	"fmt"
	"io"
	"log"
	"math/rand"
	"os"

	"bombdroid/internal/android"
	"bombdroid/internal/apk"
	"bombdroid/internal/appgen"
	"bombdroid/internal/core"
	"bombdroid/internal/fuzz"
	"bombdroid/internal/sim"
	"bombdroid/internal/vm"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run tells the story on w.
func run(w io.Writer) error {
	app, err := appgen.Generate(appgen.Config{Name: "journal", Seed: 21, TargetLOC: 2200, QCPerMethod: 1.2})
	if err != nil {
		return err
	}
	devKey, err := apk.NewKeyPair(5)
	if err != nil {
		return err
	}
	orig, err := apk.Sign(apk.Build("journal", app.File, apk.Resources{Strings: []string{"New entry"}}), devKey)
	if err != nil {
		return err
	}
	out, err := (&core.Engine{Opts: core.Options{Seed: 21}}).Run(context.Background(), orig)
	if err != nil {
		return err
	}
	prot, err := apk.Sign(out.Unsigned, devKey)
	if err != nil {
		return err
	}
	res := out.Result
	attacker, err := apk.NewKeyPair(1337)
	if err != nil {
		return err
	}
	pirated, err := apk.Repackage(prot, attacker, apk.RepackOptions{NewAuthor: "pirate"})
	if err != nil {
		return err
	}
	total := len(res.RealBombs())
	fmt.Fprintf(w, "app carries %d real bombs\n\n", total)

	// The attacker's side: 3 emulator configs × 1 virtual hour of the
	// best fuzzer they have.
	fmt.Fprintln(w, "== attacker lab (3 emulators, 1 virtual hour each, Dynodroid) ==")
	labTriggered := map[string]bool{}
	for i, dev := range android.EmulatorLab(3) {
		v, err := vm.NewUnverified(pirated, dev, vm.Options{Seed: int64(i)})
		if err != nil {
			return err
		}
		r := fuzz.Run(v, fuzz.NewDynodroid(), app.Config.ParamDomain, fuzz.Options{
			DurationMs:     60 * 60_000,
			Seed:           int64(i) * 71,
			HandlerScreens: app.HandlerScreens,
			ScreenField:    app.ScreenField,
			WatchFields:    app.IntFieldRefs,
		})
		for id := range r.DetectionRuns {
			labTriggered[id] = true
		}
		fmt.Fprintf(w, "  %-28s outer triggers: %3d, bombs fired: %d\n",
			dev.String(), len(r.OuterSatisfied), len(r.DetectionRuns))
	}
	fmt.Fprintf(w, "  lab total: %d/%d bombs located (%.1f%%)\n\n",
		len(labTriggered), total, 100*float64(len(labTriggered))/float64(total))

	// The user side: 40 population devices, ~20 minutes of play each.
	fmt.Fprintln(w, "== user population (40 devices, ≤20 min of normal play each) ==")
	rng := rand.New(rand.NewSource(9))
	surf := sim.SurfaceOf(app)
	userTriggered := map[string]bool{}
	detected := 0
	for i := 0; i < 40; i++ {
		dev := android.SamplePopulation(fmt.Sprintf("u%d", i), rng)
		sr, err := sim.RunUserSession(context.Background(), pirated, surf, dev, sim.SessionOptions{
			Seed: int64(i) * 17, StartClockMs: -1, CapMs: 20 * 60_000,
		})
		if err != nil {
			return err
		}
		if sr.Triggered {
			detected++
			if sr.FirstBomb != "" {
				userTriggered[sr.FirstBomb] = true
			}
		}
	}
	fmt.Fprintf(w, "  sessions with a detonation: %d/40\n", detected)
	fmt.Fprintf(w, "  distinct bombs detonated by users: %d\n\n", len(userTriggered))

	fmt.Fprintln(w, "the asymmetry: bombs dormant under the attacker's lab fuzzing")
	fmt.Fprintln(w, "detonate under the diversity of real devices and real play.")
	return nil
}

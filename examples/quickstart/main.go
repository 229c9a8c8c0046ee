// Quickstart: protect an app with logic bombs, repackage it like an
// attacker, and watch a bomb detonate on a user device — the paper's
// whole story in one run.
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
	"bombdroid/internal/sim"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run tells the story on w.
func run(w io.Writer) error {
	// 1. A developer builds an app…
	app, err := appgen.Generate(appgen.Config{Name: "fishgame", Seed: 7, TargetLOC: 2000, QCPerMethod: 1.2})
	if err != nil {
		return err
	}
	devKey, err := apk.NewKeyPair(42)
	if err != nil {
		return err
	}
	original, err := apk.Sign(apk.Build("fishgame", app.File, apk.Resources{
		Strings: []string{"Tap the fish!"}, Author: "honest dev",
	}), devKey)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "built %s: %d LOC, %d methods\n", app.Name, app.LOC, len(app.File.Methods()))

	// 2. …BombDroid weaves repackaging detection into it…
	out, err := (&core.Engine{Opts: core.Options{Seed: 7}}).Run(context.Background(), original)
	if err != nil {
		return err
	}
	protected, err := apk.Sign(out.Unsigned, devKey)
	if err != nil {
		return err
	}
	res := out.Result
	st := res.Stats
	fmt.Fprintf(w, "protected: %d bombs (%d existing + %d artificial, %d bogus, %d woven)\n",
		st.Bombs(), st.BombsExisting, st.BombsArtificial, st.BombsBogus, st.Woven)

	// 3. …a pirate repackages and re-signs it…
	pirateKey, err := apk.NewKeyPair(666)
	if err != nil {
		return err
	}
	pirated, err := apk.Repackage(protected, pirateKey, apk.RepackOptions{NewAuthor: "pirate co"})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "pirated copy verifies: %v (but its public key changed)\n", pirated.Verify() == nil)

	// 4. …and ordinary users detonate the bombs.
	surf := sim.SurfaceOf(app)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 8; i++ {
		dev := android.SamplePopulation(fmt.Sprintf("user%d", i), rng)
		sr, err := sim.RunUserSession(context.Background(), pirated, surf, dev, sim.SessionOptions{
			Seed: int64(i) * 31, StartClockMs: -1, CapMs: 30 * 60_000,
		})
		if err != nil {
			return err
		}
		switch {
		case sr.Triggered:
			fmt.Fprintf(w, "user %d on %s: bomb %s fired after %.1fs",
				i, dev, sr.FirstBomb, float64(sr.TimeToFirstMs)/1000)
			if len(sr.Responses) > 0 {
				fmt.Fprintf(w, " -> %s response", sr.Responses[0].Kind)
			}
			fmt.Fprintln(w)
		default:
			fmt.Fprintf(w, "user %d on %s: nothing in this session\n", i, dev)
		}
	}

	// 5. Sanity: the genuine app never responds.
	dev := android.SamplePopulation("control", rng)
	sr, err := sim.RunUserSession(context.Background(), protected, surf, dev, sim.SessionOptions{
		Seed: 99, StartClockMs: -1, CapMs: 10 * 60_000,
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "genuine app control: %d responses (must be 0)\n", len(sr.Responses))
	return nil
}

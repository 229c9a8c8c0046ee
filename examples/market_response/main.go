// Market response: the decentralized aggregation story from paper §1.
// A pirated copy reaches an alternative market; user devices detect it
// during ordinary use; crashes and freezes drive bad ratings, and
// piracy reports flow back to the original developer, who can request
// a takedown.
package main

import (
	"context"
	"fmt"
	"io"
	"log"
	"os"

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
	app, err := appgen.Generate(appgen.Config{Name: "beatbox", Seed: 33, TargetLOC: 2400, QCPerMethod: 1.2})
	if err != nil {
		return err
	}
	devKey, err := apk.NewKeyPair(8)
	if err != nil {
		return err
	}
	orig, err := apk.Sign(apk.Build("beatbox", app.File, apk.Resources{Strings: []string{"Play"}}), devKey)
	if err != nil {
		return err
	}
	out, err := (&core.Engine{Opts: core.Options{Seed: 33}}).Run(context.Background(), orig)
	if err != nil {
		return err
	}
	prot, err := apk.Sign(out.Unsigned, devKey)
	if err != nil {
		return err
	}
	pirate, err := apk.NewKeyPair(4242)
	if err != nil {
		return err
	}
	pirated, err := apk.Repackage(prot, pirate, apk.RepackOptions{NewAuthor: "FreeAppz"})
	if err != nil {
		return err
	}

	surf := sim.SurfaceOf(app)
	const downloads = 60
	fmt.Fprintf(w, "'FreeAppz' uploads a repackaged beatbox; %d users download it\n\n", downloads)
	cr, err := sim.Run(context.Background(), pirated, surf, sim.CampaignOptions{N: downloads, CapMs: 30 * 60_000, Seed: 12})
	if err != nil {
		return err
	}

	fmt.Fprintf(w, "within the first sessions:\n")
	fmt.Fprintf(w, "  %d/%d users hit a detonated bomb\n", cr.Successes, cr.Sessions)
	fmt.Fprintf(w, "  fastest detonation: %.0fs; average: %.0fs\n",
		float64(cr.MinMs)/1000, float64(cr.AvgMs)/1000)
	fmt.Fprintf(w, "  %d users suffered crashes/freezes/warnings -> 1-star reviews\n", cr.Complaints)
	fmt.Fprintf(w, "  %d piracy reports reached the original developer\n\n", cr.Reports)

	stars := 5.0 - 4.0*float64(cr.Complaints)/float64(cr.Sessions)
	fmt.Fprintf(w, "market listing rating collapses to ~%.1f stars\n", stars)
	if cr.Reports > 0 {
		fmt.Fprintln(w, "the developer files a takedown with evidence from the reports;")
		fmt.Fprintln(w, "on Google Play, the Remote Application Removal Feature wipes the")
		fmt.Fprintln(w, "repackaged app from victim devices (paper §1).")
	}

	// Control: the same fleet on the genuine app.
	fmt.Fprintln(w)
	gc, err := sim.Run(context.Background(), prot, surf, sim.CampaignOptions{N: 20, CapMs: 10 * 60_000, Seed: 13})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "control (genuine app, 20 users): %d complaints, %d reports — silent as designed\n",
		gc.Complaints, gc.Reports)
	return nil
}

// Resilience audit: run the paper's §2.1 attack suite against your
// own protected app before shipping it — text search, bomb-site
// recon, symbolic execution, forced execution, slicing, brute force,
// and code deletion — and see what each attacker learns.
package main

import (
	"context"
	"fmt"
	"io"
	"log"
	"os"

	"bombdroid/internal/apk"
	"bombdroid/internal/appgen"
	"bombdroid/internal/attack"
	"bombdroid/internal/core"
	"bombdroid/internal/dex"
	"bombdroid/internal/symexec"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run tells the story on w.
func run(w io.Writer) error {
	app, err := appgen.Generate(appgen.Config{Name: "audit-me", Seed: 55, TargetLOC: 1600, QCPerMethod: 1.3})
	if err != nil {
		return err
	}
	devKey, err := apk.NewKeyPair(3)
	if err != nil {
		return err
	}
	res := apk.Resources{Strings: []string{"hi"}, Author: "dev"}
	orig, err := apk.Sign(apk.Build("audit-me", app.File, res), devKey)
	if err != nil {
		return err
	}
	out, err := (&core.Engine{Opts: core.Options{Seed: 55}}).Run(context.Background(), orig)
	if err != nil {
		return err
	}
	prot, err := apk.Sign(out.Unsigned, devKey)
	if err != nil {
		return err
	}
	protRes := out.Result
	file, err := prot.DexFile()
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "auditing %s: %d real bombs, %d bogus\n\n",
		app.Name, len(protRes.RealBombs()), protRes.Stats.BombsBogus)

	fmt.Fprintln(w, "[1] text search")
	for _, f := range attack.TextSearch(file) {
		fmt.Fprintf(w, "    %-16s ×%d\n", f.Token, f.Count)
	}
	fmt.Fprintln(w, "    -> plumbing visible, detection logic encrypted; real and bogus sites identical")

	sites := attack.ScanBombSites(file)
	fmt.Fprintf(w, "\n[2] bomb-site recon: %d sites (salt + Hc public, keys absent)\n", len(sites))

	sum := symexec.Analyze(file, symexec.Options{Targets: []dex.API{dex.APIDecryptLoad}})
	fmt.Fprintf(w, "\n[3] symbolic execution: %d paths to decryptLoad, %d solved, %d unsolvable\n",
		len(sum.Hits), len(sum.SolvedHits()), len(sum.UnsolvableHits()))

	fe, err := attack.ForcedExecution(file, res, 1)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "\n[4] forced execution: %d branches forced, %d forced-only reveals, %d corrupted runs\n",
		fe.BranchesForced, fe.ForcedOnlyReveals, fe.Corrupted)

	se, err := attack.ExecuteSlices(file, res, 2)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "\n[5] HARVESTER slicing: %d slices executed, %d revealed, %d corrupted\n",
		se.Executed, se.Revealed, se.Corrupted)

	bf := attack.BruteForce(file, attack.BruteForceOptions{IntBudget: 1 << 14})
	weak := 0
	for _, c := range bf.Cracked {
		for _, b := range protRes.Bombs {
			if b.Salt == c.Site.Salt && b.Strength.String() == "weak" {
				weak++
			}
		}
	}
	fmt.Fprintf(w, "\n[6] brute force (2^14 ints + app dictionary): %d/%d keys cracked (%d were weak booleans)\n",
		len(bf.Cracked), bf.Sites, weak)
	fmt.Fprintln(w, "    -> consider fewer weak (boolean) trigger sites for high-value apps")

	del := attack.DeleteSuspiciousCode(file)
	fmt.Fprintf(w, "\n[7] deletion attack dry-run: %d sites an attacker would nop out;\n", del.SitesDeleted)
	fmt.Fprintf(w, "    %d bombs carry woven app code, so the app corrupts without them\n", protRes.Stats.Woven)
	return nil
}

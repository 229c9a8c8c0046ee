package exp

import (
	"context"
	"fmt"
	"log"

	"bombdroid/internal/android"
	"bombdroid/internal/apk"
	"bombdroid/internal/appgen"
	"bombdroid/internal/cfg"
	"bombdroid/internal/fuzz"
	"bombdroid/internal/sim"
	"bombdroid/internal/vm"
)

// Table1Row mirrors one row of paper Table 1.
type Table1Row struct {
	Category     string
	Apps         int
	AvgLOC       int
	AvgCandidate int
	AvgQCs       int
	AvgEnvVars   int
}

// Table1 computes the static characteristics of the corpus. With
// AppsPerCategory == 0 it generates all 963 apps. Categories are
// independent generation jobs, so they fan across the worker pool.
func Table1(ctx context.Context, sc Scale) ([]Table1Row, error) {
	return ForIndexed(ctx, sc, len(appgen.Categories), func(ci int) (Table1Row, error) {
		spec := appgen.Categories[ci]
		var nApps, loc, cand, qcs, env int
		visit := func(app *appgen.App) error {
			nApps++
			loc += app.LOC
			methods := len(app.File.Methods())
			// Candidate methods = all but the top-10% hot (paper §7.1).
			cand += methods - methods/10
			for _, m := range app.File.Methods() {
				// Count distinct condition sites (a switch is one
				// site regardless of its case count), matching how a
				// static tool reports "the number of existing QCs".
				sites := map[int]bool{}
				for _, q := range cfg.FindQCs(app.File, m) {
					if !q.InLoop {
						sites[q.CondPC] = true
					}
				}
				qcs += len(sites)
			}
			env += len(app.EnvVarNames)
			return nil
		}
		var err error
		if sc.AppsPerCategory > 0 {
			err = appgen.SampleCategory(spec, sc.AppsPerCategory, visit)
		} else {
			err = appgen.GenerateCategory(spec, visit)
		}
		if err != nil {
			return Table1Row{}, err
		}
		return Table1Row{
			Category:     spec.Name,
			Apps:         spec.Apps,
			AvgLOC:       loc / nApps,
			AvgCandidate: cand / nApps,
			AvgQCs:       qcs / nApps,
			AvgEnvVars:   env / nApps,
		}, nil
	})
}

// Table2Row mirrors one row of paper Table 2.
type Table2Row struct {
	App        string
	Bombs      int
	Existing   int
	Artificial int
	Bogus      int // extra visibility; the paper folds these elsewhere
}

// Table2 reports injected logic bombs for the named apps.
func Table2(ctx context.Context, sc Scale) ([]Table2Row, error) {
	return mapApps(ctx, sc, func(_ Scale, name string, p *PreparedApp) (Table2Row, error) {
		st := p.Result.Stats
		return Table2Row{
			App:        name,
			Bombs:      st.Bombs(),
			Existing:   st.BombsExisting,
			Artificial: st.BombsArtificial,
			Bogus:      st.BombsBogus,
		}, nil
	})
}

// Table3Row mirrors one row of paper Table 3.
type Table3Row struct {
	App      string
	MinSec   float64
	MaxSec   float64
	AvgSec   float64
	Success  int
	Sessions int
}

// Table3 measures time to the first triggered bomb across user
// sessions on population devices (testers vary configurations between
// runs; sessions start at arbitrary wall-clock times). The per-app
// campaign workers stop claiming sessions when ctx fires.
func Table3(ctx context.Context, sc Scale) ([]Table3Row, error) {
	return mapApps(ctx, sc, func(sc Scale, name string, p *PreparedApp) (Table3Row, error) {
		cr, err := sim.Run(ctx, p.Pirated, p.Surface, sim.CampaignOptions{
			N: sc.SessionsPerApp, CapMs: int64(sc.SessionCapMin) * 60_000,
			Seed: seedFor(name) + 7, Workers: sc.Workers, Reg: sc.Obs,
		})
		if err != nil {
			return Table3Row{}, err
		}
		return Table3Row{
			App:      name,
			MinSec:   float64(cr.MinMs) / 1000,
			MaxSec:   float64(cr.MaxMs) / 1000,
			AvgSec:   float64(cr.AvgMs) / 1000,
			Success:  cr.Successes,
			Sessions: cr.Sessions,
		}, nil
	})
}

// Table4Row mirrors one row of paper Table 4: per-fuzzer percentage of
// outer trigger conditions satisfied within the fuzzing budget.
// RealBombs is the denominator behind the percentages; when it is 0
// the row's cells are "nothing to trigger" markers rather than
// genuine 0% coverage, and FormatTable4 renders them as n/a.
type Table4Row struct {
	App       string
	Monkey    float64
	PUMA      float64
	Hooker    float64
	Dynodroid float64
	RealBombs int
}

// table4Fuzzers is the generator column order of paper Table 4. Each
// cell builds a fresh fuzzer instance: fuzzer state (Dynodroid
// scores, AndroidHooker history) is per-instance and unsynchronized,
// so instances must never be shared across cells or goroutines.
var table4Fuzzers = []struct {
	mk func() fuzz.Fuzzer
	ui bool
}{
	{func() fuzz.Fuzzer { return fuzz.Monkey{} }, false},
	{func() fuzz.Fuzzer { return fuzz.PUMA{} }, true},
	{func() fuzz.Fuzzer { return &fuzz.AndroidHooker{} }, true},
	{func() fuzz.Fuzzer { return fuzz.NewDynodroid() }, true},
}

// Table4 fuzzes the pirated app in the attacker's lab with all four
// generators. Each cell averages three independent campaigns (fresh
// lab VM and fuzzer state per run) to damp seed noise; the whole
// 4-fuzzer × 3-run grid fans across the worker pool per app, on top
// of the per-app fan-out.
func Table4(ctx context.Context, sc Scale) ([]Table4Row, error) {
	const runs = 3
	return mapApps(ctx, sc, func(sc Scale, name string, p *PreparedApp) (Table4Row, error) {
		real := p.RealBlobs()
		row := Table4Row{App: name, RealBombs: len(real)}
		if len(real) == 0 {
			// Explicit marker instead of silently averaging zero cells:
			// a 0% cell means the fuzzer failed, an n/a row means there
			// was nothing to trigger.
			log.Printf("exp: Table4: %s has no real bombs; reporting n/a row", name)
			return row, nil
		}
		cells, err := ForIndexed(ctx, sc, len(table4Fuzzers)*runs, func(c int) (float64, error) {
			fz, r := table4Fuzzers[c/runs], c%runs
			// Seeds are keyed to the run index exactly as the serial
			// engine keyed them, so the grid is cell-order independent.
			v, err := vm.NewUnverified(p.Pirated, android.EmulatorLab(1)[0], vm.Options{Seed: seedFor(name) + int64(r)})
			if err != nil {
				return 0, err
			}
			opts := fuzz.Options{
				DurationMs: int64(sc.FuzzMinutes) * 60_000,
				Seed:       seedFor(name) + 11 + int64(r)*977,
				Obs:        sc.Obs,
			}
			if fz.ui {
				opts.HandlerScreens = p.App.HandlerScreens
				opts.ScreenField = p.App.ScreenField
				opts.WatchFields = p.App.IntFieldRefs
			}
			res := fuzz.Run(v, fz.mk(), p.App.Config.ParamDomain, opts)
			return 100 * float64(countReal(res.OuterSatisfied, real)) / float64(len(real)), nil
		})
		if err != nil {
			return row, err
		}
		avg := func(fi int) float64 {
			total := 0.0
			for r := 0; r < runs; r++ {
				total += cells[fi*runs+r]
			}
			return total / runs
		}
		row.Monkey, row.PUMA, row.Hooker, row.Dynodroid = avg(0), avg(1), avg(2), avg(3)
		return row, nil
	})
}

// Table5Row mirrors one row of paper Table 5.
type Table5Row struct {
	App         string
	TaSec       float64 // original app compute time (virtual)
	TbSec       float64 // protected app compute time (virtual)
	OverheadPct float64
	SizePct     float64 // §8.4 code size increase
}

// Table5 replays the same Dynodroid event stream against the original
// and the protected build and compares app compute time (virtual
// clock minus the identical idle gaps). Code-size increase rides
// along since it uses the same pair of packages.
func Table5(ctx context.Context, sc Scale) ([]Table5Row, error) {
	return mapApps(ctx, sc, func(sc Scale, name string, p *PreparedApp) (Table5Row, error) {
		// Each run replays one seed's event stream against both builds;
		// runs are independent, so they fan across the pool and their
		// tick counts sum by run index.
		ticks, err := ForIndexed(ctx, sc, sc.OverheadRuns, func(run int) ([2]int64, error) {
			seed := seedFor(name) + int64(run)*997
			a, err := computeTicks(p.Original, p, sc.OverheadEvents, seed)
			if err != nil {
				return [2]int64{}, err
			}
			b, err := computeTicks(p.Protected, p, sc.OverheadEvents, seed)
			if err != nil {
				return [2]int64{}, err
			}
			return [2]int64{a, b}, nil
		})
		if err != nil {
			return Table5Row{}, err
		}
		var ta, tb int64
		for _, t := range ticks {
			ta += t[0]
			tb += t[1]
		}
		overhead := 100 * float64(tb-ta) / float64(ta)
		size := 100 * float64(p.Protected.TotalSize()-p.Original.TotalSize()) / float64(p.Original.TotalSize())
		return Table5Row{
			App:         name,
			TaSec:       float64(ta) / float64(vm.TicksPerMilli) / 1000,
			TbSec:       float64(tb) / float64(vm.TicksPerMilli) / 1000,
			OverheadPct: overhead,
			SizePct:     size,
		}, nil
	})
}

// computeTicks runs an identical event stream and returns the app's
// compute ticks — total virtual time minus the inter-event idle gaps,
// which are the same for both builds.
func computeTicks(pkg *apk.Package, p *PreparedApp, events int, seed int64) (int64, error) {
	v, err := vm.New(pkg, android.EmulatorLab(1)[0], vm.Options{Seed: seed})
	if err != nil {
		return 0, err
	}
	const gapMs = 250
	r := fuzz.Run(v, fuzz.NewDynodroid(), p.App.Config.ParamDomain, fuzz.Options{
		DurationMs:     1 << 40,
		EventGapMs:     gapMs,
		MaxEvents:      events,
		Seed:           seed,
		HandlerScreens: p.App.HandlerScreens,
		ScreenField:    p.App.ScreenField,
		WatchFields:    p.App.IntFieldRefs,
	})
	idle := int64(r.Events) * gapMs * vm.TicksPerMilli
	compute := v.NowTicks() - idle
	if compute < 1 {
		return 0, fmt.Errorf("exp: degenerate compute time for %s", pkg.Name)
	}
	return compute, nil
}

package exp

import (
	"context"

	"bombdroid/internal/android"
	"bombdroid/internal/appgen"
	"bombdroid/internal/cfg"
	"bombdroid/internal/core"
	"bombdroid/internal/fuzz"
	"bombdroid/internal/vm"
)

// Figure3Series is one program variable's sampled trajectory
// (paper Figure 3: six AndroFish variables over an hour of Dynodroid,
// sampled once per minute).
type Figure3Series struct {
	Var     string
	Samples []int64
	Unique  int
}

// Figure3 replays the paper's entropy visualization on AndroFish. The
// minute-by-minute sampling loop stops at the first cancelled minute.
func Figure3(ctx context.Context, sc Scale) ([]Figure3Series, error) {
	sc = sc.withDefaults()
	p, err := PrepareCtx(ctx, "AndroFish", sc.ProfileEvents)
	if err != nil {
		return nil, err
	}
	v, err := vm.New(p.Original, android.EmulatorLab(1)[0], vm.Options{Seed: 2})
	if err != nil {
		return nil, err
	}
	series := make([]Figure3Series, len(appgen.AndroFishVars))
	for i, name := range appgen.AndroFishVars {
		series[i].Var = name
	}
	fz := fuzz.NewDynodroid()
	minutes := sc.FuzzMinutes
	if minutes < 10 {
		minutes = 10
	}
	for min := 0; min < minutes; min++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		fuzz.Run(v, fz, p.App.Config.ParamDomain, fuzz.Options{
			DurationMs:     60_000,
			Seed:           int64(min) * 3,
			HandlerScreens: p.App.HandlerScreens,
			ScreenField:    p.App.ScreenField,
			WatchFields:    appgen.AndroFishVars,
		})
		for i, name := range appgen.AndroFishVars {
			series[i].Samples = append(series[i].Samples, v.Static(name).Int)
		}
	}
	for i := range series {
		uniq := map[int64]bool{}
		for _, s := range series[i].Samples {
			uniq[s] = true
		}
		series[i].Unique = len(uniq)
	}
	return series, nil
}

// Figure4Row is one app's outer-trigger strength histogram (paper
// Figure 4a/4b: weak/medium/strong for existing and artificial QCs).
type Figure4Row struct {
	App string
	// Existing-QC bombs by strength.
	ExistWeak, ExistMedium, ExistStrong int
	// Artificial-QC bombs by strength.
	ArtMedium, ArtStrong int
}

// Figure4 tallies trigger strength per named app.
func Figure4(ctx context.Context, sc Scale) ([]Figure4Row, error) {
	return mapApps(ctx, sc, func(_ Scale, name string, p *PreparedApp) (Figure4Row, error) {
		row := Figure4Row{App: name}
		for _, b := range p.Result.Bombs {
			switch b.Source {
			case core.SourceExisting:
				switch b.Strength {
				case cfg.Weak:
					row.ExistWeak++
				case cfg.Medium:
					row.ExistMedium++
				case cfg.Strong:
					row.ExistStrong++
				}
			case core.SourceArtificial:
				if b.Strength == cfg.Strong {
					row.ArtStrong++
				} else {
					row.ArtMedium++
				}
			}
		}
		return row, nil
	})
}

// Figure5Series is one app's per-minute cumulative percentage of
// bombs fully triggered by Dynodroid (paper Figure 5: plateaus below
// ~6.4% well before the hour ends).
type Figure5Series struct {
	App        string
	PctByMin   []float64
	FinalPct   float64
	TotalBombs int
}

// Figure5 fuzzes each pirated app with Dynodroid in the attacker lab
// and samples the triggered-bomb percentage each minute. Apps fan
// across the worker pool; each app's minute-by-minute loop stays
// serial because trigger state accumulates in one VM and one fuzzer,
// and that loop stops at the first cancelled minute.
func Figure5(ctx context.Context, sc Scale) ([]Figure5Series, error) {
	return mapApps(ctx, sc, func(sc Scale, name string, p *PreparedApp) (Figure5Series, error) {
		total := len(p.Result.RealBombs())
		v, err := vm.NewUnverified(p.Pirated, android.EmulatorLab(1)[0], vm.Options{Seed: seedFor(name) + 3})
		if err != nil {
			return Figure5Series{}, err
		}
		fz := fuzz.NewDynodroid()
		s := Figure5Series{App: name, TotalBombs: total}
		for min := 0; min < sc.FuzzMinutes; min++ {
			if err := ctx.Err(); err != nil {
				return Figure5Series{}, err
			}
			fuzz.Run(v, fz, p.App.Config.ParamDomain, fuzz.Options{
				DurationMs:     60_000,
				Seed:           seedFor(name) + int64(min),
				HandlerScreens: p.App.HandlerScreens,
				ScreenField:    p.App.ScreenField,
				WatchFields:    p.App.IntFieldRefs,
			})
			pct := 0.0
			if total > 0 {
				pct = 100 * float64(realDetections(v, p)) / float64(total)
			}
			s.PctByMin = append(s.PctByMin, pct)
		}
		if n := len(s.PctByMin); n > 0 {
			s.FinalPct = s.PctByMin[n-1]
		}
		return s, nil
	})
}

// realDetections counts distinct real bombs whose detection ran.
func realDetections(v *vm.VM, p *PreparedApp) int {
	ids := map[string]bool{}
	for _, b := range p.Result.RealBombs() {
		ids[b.ID] = true
	}
	n := 0
	for id := range v.DetectionRuns() {
		if ids[id] {
			n++
		}
	}
	return n
}

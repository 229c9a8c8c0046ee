package exp

import (
	"context"
	"fmt"
	"math/rand"

	"bombdroid/internal/android"
	"bombdroid/internal/apk"
	"bombdroid/internal/appgen"
	"bombdroid/internal/artifact"
	"bombdroid/internal/attack"
	"bombdroid/internal/core"
	"bombdroid/internal/dex"
	"bombdroid/internal/fuzz"
	"bombdroid/internal/vm"
)

// AblationRow is one design-choice measurement pair.
type AblationRow struct {
	Name    string
	With    string // measurement with the paper's design choice
	Without string // measurement with it ablated
	Verdict string
}

// ablationFixture builds the shared app/package pair.
func ablationFixture(seed int64) (*appgen.App, *apk.Package, *apk.KeyPair, error) {
	app, err := appgen.Generate(appgen.Config{
		Name: "ablate", Seed: seed, TargetLOC: 2000, QCPerMethod: 1.2,
	})
	if err != nil {
		return nil, nil, nil, err
	}
	key, err := apk.NewKeyPair(seed)
	if err != nil {
		return nil, nil, nil, err
	}
	pkg, err := apk.Sign(apk.Build("ablate", app.File, apk.Resources{Strings: []string{"x"}}), key)
	if err != nil {
		return nil, nil, nil, err
	}
	return app, pkg, key, nil
}

// ablationCacheBytes bounds the artifact store one ablation run
// shares across its arms: the fixture's analysis plus a few protected
// builds of a 2,000-line app.
const ablationCacheBytes = 64 << 20

// Ablations runs every DESIGN.md §6 ablation and returns the rows. The
// five design-choice measurements run in order, and ctx is checked
// between them, so a cancelled run stops at the next stage boundary.
// Every arm protects through an engine of its own option set over one
// store, so the arms share the fixture's analysis, and arms with equal
// options share the protected build.
func Ablations(ctx context.Context, seed int64) ([]AblationRow, error) {
	app, pkg, key, err := ablationFixture(seed)
	if err != nil {
		return nil, err
	}
	store := artifact.NewStore(ablationCacheBytes)
	protect := func(opts core.Options) (*apk.Package, *core.Result, error) {
		return protectSigned(ctx, &core.Engine{Opts: opts, Cache: store}, pkg, key)
	}
	var rows []AblationRow

	// 1. Per-bomb vs global salt: duplicate derived keys.
	dup := func(opts core.Options) (int, error) {
		_, res, err := protect(opts)
		if err != nil {
			return 0, err
		}
		seen := map[string]int{}
		for _, b := range res.Bombs {
			seen[b.Salt+"|"+b.Const.String()]++
		}
		dups := 0
		for _, n := range seen {
			if n > 1 {
				dups += n - 1
			}
		}
		return dups, nil
	}
	salted, err := dup(core.Options{Seed: seed})
	if err != nil {
		return nil, err
	}
	global, err := dup(core.Options{Seed: seed, GlobalSalt: "fixed"})
	if err != nil {
		return nil, err
	}
	rows = append(rows, AblationRow{
		Name:    "per-bomb salt",
		With:    fmt.Sprintf("%d shareable (salt,const) pairs", salted),
		Without: fmt.Sprintf("%d shareable pairs under a global salt", global),
		Verdict: "unique salts prevent rainbow-table sharing (§5.1)",
	})

	if err := ctx.Err(); err != nil {
		return nil, err
	}
	// Rainbow-table cost (same axis, measured as precomputation).
	rb := func(globalSalt string) (attack.RainbowResult, error) {
		prot, _, err := protect(core.Options{Seed: seed, GlobalSalt: globalSalt})
		if err != nil {
			return attack.RainbowResult{}, err
		}
		file, err := prot.DexFile()
		if err != nil {
			return attack.RainbowResult{}, err
		}
		return attack.Rainbow(file, attack.SmallIntCandidates(512)), nil
	}
	rbSalted, err := rb("")
	if err != nil {
		return nil, err
	}
	rbGlobal, err := rb("shared")
	if err != nil {
		return nil, err
	}
	rows = append(rows, AblationRow{
		Name:    "rainbow-table cost",
		With:    fmt.Sprintf("%d tables / %d hashes precomputed", rbSalted.TablesBuilt, rbSalted.HashesComputed),
		Without: fmt.Sprintf("%d table / %d hashes under a global salt", rbGlobal.TablesBuilt, rbGlobal.HashesComputed),
		Verdict: "per-bomb salts multiply precomputation by the bomb count",
	})

	if err := ctx.Err(); err != nil {
		return nil, err
	}
	// 2. Double vs single trigger: lab fuzzing exposure.
	trig := func(single bool) (float64, error) {
		prot, res, err := protect(core.Options{Seed: seed, SingleTrigger: single})
		if err != nil {
			return 0, err
		}
		attacker, err := apk.NewKeyPair(seed ^ 0xABC)
		if err != nil {
			return 0, err
		}
		pirated, err := apk.Repackage(prot, attacker, apk.RepackOptions{})
		if err != nil {
			return 0, err
		}
		v, err := vm.NewUnverified(pirated, android.EmulatorLab(1)[0], vm.Options{Seed: 2})
		if err != nil {
			return 0, err
		}
		r := fuzz.Run(v, fuzz.NewDynodroid(), app.Config.ParamDomain, fuzz.Options{
			DurationMs: 60 * 60_000, Seed: 3,
			HandlerScreens: app.HandlerScreens, ScreenField: app.ScreenField,
			WatchFields: app.IntFieldRefs,
		})
		total := len(res.RealBombs())
		if total == 0 {
			return 0, nil
		}
		return 100 * float64(len(r.DetectionRuns)) / float64(total), nil
	}
	double, err := trig(false)
	if err != nil {
		return nil, err
	}
	single, err := trig(true)
	if err != nil {
		return nil, err
	}
	rows = append(rows, AblationRow{
		Name:    "double-trigger bombs",
		With:    fmt.Sprintf("%.1f%% of bombs exposed by 1 h lab Dynodroid", double),
		Without: fmt.Sprintf("%.1f%% exposed with single triggers", single),
		Verdict: "inner env conditions keep bombs dormant in the lab (§6)",
	})

	if err := ctx.Err(); err != nil {
		return nil, err
	}
	// 3. Weaving + bogus bombs vs clean deletion.
	corrupt := func(noWeave bool) (float64, error) {
		opts := core.Options{Seed: seed, NoWeave: noWeave}
		if noWeave {
			opts.BogusFrac = -1
		}
		prot, _, err := protect(opts)
		if err != nil {
			return 0, err
		}
		file, err := prot.DexFile()
		if err != nil {
			return 0, err
		}
		del := attack.DeleteSuspiciousCode(file)
		attacker, err := apk.NewKeyPair(seed ^ 0xDEF)
		if err != nil {
			return 0, err
		}
		broken, err := apk.Sign(apk.Build("ablate", del.File, pkg.Res), attacker)
		if err != nil {
			return 0, err
		}
		rng := rand.New(rand.NewSource(3))
		dev := android.SamplePopulation("u", rng)
		vb, err := vm.New(broken, dev.Clone(), vm.Options{Seed: 4})
		if err != nil {
			return 0, err
		}
		vp, err := vm.New(prot, dev.Clone(), vm.Options{Seed: 4})
		if err != nil {
			return 0, err
		}
		diverged := 0
		const events = 400
		for i := 0; i < events; i++ {
			h := app.Handlers[rng.Intn(len(app.Handlers))]
			x, y := dex.Int64(rng.Int63n(64)), dex.Int64(rng.Int63n(64))
			_, e1 := vb.Invoke(h, x, y)
			_, e2 := vp.Invoke(h, x, y)
			if vm.AbnormalExit(e1) != vm.AbnormalExit(e2) {
				diverged++
				continue
			}
			for _, ref := range app.IntFieldRefs {
				if !vb.Static(ref).Equal(vp.Static(ref)) {
					diverged++
					break
				}
			}
		}
		return 100 * float64(diverged) / float64(events), nil
	}
	woven, err := corrupt(false)
	if err != nil {
		return nil, err
	}
	unwoven, err := corrupt(true)
	if err != nil {
		return nil, err
	}
	rows = append(rows, AblationRow{
		Name:    "code weaving + bogus bombs",
		With:    fmt.Sprintf("%.0f%% behaviour corruption after clean deletion", woven),
		Without: fmt.Sprintf("%.0f%% corruption without weaving", unwoven),
		Verdict: "deletion is deterred by woven app code (§3.4, G4)",
	})

	if err := ctx.Err(); err != nil {
		return nil, err
	}
	// 4. α sweep.
	var counts []string
	for _, alpha := range []float64{0.10, 0.25, 0.50} {
		_, res, err := protect(core.Options{Seed: seed, Alpha: alpha})
		if err != nil {
			return nil, err
		}
		counts = append(counts, fmt.Sprintf("α=%.2f→%d", alpha, res.Stats.BombsArtificial))
	}
	rows = append(rows, AblationRow{
		Name:    "artificial-QC density α",
		With:    fmt.Sprintf("%s artificial bombs", counts[1]),
		Without: fmt.Sprintf("sweep: %s, %s, %s", counts[0], counts[1], counts[2]),
		Verdict: "bomb count scales linearly with α (§7.2)",
	})

	if err := ctx.Err(); err != nil {
		return nil, err
	}
	// 5. §10 muting.
	mute := func(on bool) (int, error) {
		prot, _, err := protect(core.Options{
			Seed: seed, SingleTrigger: true, MuteAfterFirst: on,
			Responses: []vm.ResponseKind{vm.RespWarn},
		})
		if err != nil {
			return 0, err
		}
		attacker, err := apk.NewKeyPair(seed ^ 0x777)
		if err != nil {
			return 0, err
		}
		pirated, err := apk.Repackage(prot, attacker, apk.RepackOptions{})
		if err != nil {
			return 0, err
		}
		v, err := vm.NewUnverified(pirated, android.EmulatorLab(1)[0], vm.Options{Seed: 5})
		if err != nil {
			return 0, err
		}
		r := fuzz.Run(v, fuzz.NewDynodroid(), app.Config.ParamDomain, fuzz.Options{
			DurationMs: 30 * 60_000, Seed: 6,
			HandlerScreens: app.HandlerScreens, ScreenField: app.ScreenField,
		})
		return len(r.DetectionRuns), nil
	}
	loud, err := mute(false)
	if err != nil {
		return nil, err
	}
	quiet, err := mute(true)
	if err != nil {
		return nil, err
	}
	rows = append(rows, AblationRow{
		Name:    "§10 muting (extension)",
		With:    fmt.Sprintf("%d bombs exposed with muting", quiet),
		Without: fmt.Sprintf("%d exposed without", loud),
		Verdict: "after the first response, remaining bombs stay hidden",
	})

	return rows, nil
}

// FormatAblations renders the ablation rows.
func FormatAblations(rows []AblationRow) string {
	var out [][]string
	for _, r := range rows {
		out = append(out, []string{r.Name, r.With, r.Without, r.Verdict})
	}
	return RenderTable("Design-choice ablations (DESIGN.md §6)",
		[]string{"Choice", "with", "ablated", "verdict"}, out)
}

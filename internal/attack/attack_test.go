package attack

import (
	"context"
	"math/rand"
	"testing"

	"bombdroid/internal/android"
	"bombdroid/internal/apk"
	"bombdroid/internal/appgen"
	"bombdroid/internal/baseline"
	"bombdroid/internal/cfg"
	"bombdroid/internal/core"
	"bombdroid/internal/dex"
	"bombdroid/internal/vm"
)

type fixture struct {
	app     *appgen.App
	devKey  *apk.KeyPair
	prot    *apk.Package // BombDroid-protected, signed
	protRes *core.Result
	naive   *baseline.NaiveResult
	ssn     *baseline.SSNResult
	res     apk.Resources
}

func build(t *testing.T, seed int64) *fixture {
	t.Helper()
	app, err := appgen.Generate(appgen.Config{
		Name: "atk", Seed: seed, TargetLOC: 2000, QCPerMethod: 1.4,
	})
	if err != nil {
		t.Fatal(err)
	}
	key, err := apk.NewKeyPair(51)
	if err != nil {
		t.Fatal(err)
	}
	res := apk.Resources{Strings: []string{"Play", "Quit"}, Author: "dev"}
	orig, err := apk.Sign(apk.Build("atk", app.File, res), key)
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
	protRes := built.Result
	naive, err := baseline.ProtectNaive(app.File, key.PublicKeyHex(), baseline.NaiveOptions{Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	ssn, err := baseline.ProtectSSN(app.File, key.PublicKeyHex(), baseline.SSNOptions{Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return &fixture{app: app, devKey: key, prot: prot, protRes: protRes, naive: naive, ssn: ssn, res: res}
}

func TestTextSearchDifferentiatesProtections(t *testing.T) {
	fx := build(t, 101)
	protFile, err := fx.prot.DexFile()
	if err != nil {
		t.Fatal(err)
	}
	bombdroid := TextSearch(protFile)
	naive := TextSearch(fx.naive.File)
	ssn := TextSearch(fx.ssn.File)

	if FindToken(bombdroid, "getPublicKey") != 0 {
		t.Error("BombDroid must not expose getPublicKey to text search")
	}
	if FindToken(bombdroid, "sha1Hex") == 0 {
		t.Error("bomb plumbing should be visible (it is encrypted, not hidden)")
	}
	if FindToken(naive, "getPublicKey") == 0 {
		t.Error("naive bombs must be found by text search")
	}
	if FindToken(ssn, "getPublicKey") != 0 {
		t.Error("SSN hides the name string")
	}
	if FindToken(ssn, "reflectCall") == 0 {
		t.Error("SSN's reflection machinery is visible")
	}
}

func TestScanBombSitesMatchesGroundTruth(t *testing.T) {
	fx := build(t, 103)
	protFile, err := fx.prot.DexFile()
	if err != nil {
		t.Fatal(err)
	}
	sites := ScanBombSites(protFile)
	if len(sites) == 0 {
		t.Fatal("no bomb sites recovered")
	}
	// Every scanned site corresponds to a ground-truth bomb (salt is
	// unique per bomb).
	saltToBomb := map[string]core.Bomb{}
	for _, b := range fx.protRes.Bombs {
		saltToBomb[b.Salt] = b
	}
	for _, s := range sites {
		if _, ok := saltToBomb[s.Salt]; !ok {
			t.Errorf("scanned site salt %q matches no bomb", s.Salt)
		}
	}
	if len(sites) != len(fx.protRes.Bombs) {
		t.Errorf("scanner found %d sites, ground truth has %d bombs",
			len(sites), len(fx.protRes.Bombs))
	}
}

func TestBruteForceCracksByStrength(t *testing.T) {
	fx := build(t, 107)
	protFile, err := fx.prot.DexFile()
	if err != nil {
		t.Fatal(err)
	}
	res := BruteForce(protFile, BruteForceOptions{IntBudget: 1 << 12})
	if res.Sites == 0 {
		t.Fatal("no sites")
	}
	crackedSalts := map[string]bool{}
	for _, c := range res.Cracked {
		crackedSalts[c.Site.Salt] = true
	}
	var weakCracked, weakTotal, strongCracked, strongTotal int
	for _, b := range fx.protRes.Bombs {
		switch b.Strength {
		case cfg.Weak:
			weakTotal++
			if crackedSalts[b.Salt] {
				weakCracked++
			}
		case cfg.Strong:
			strongTotal++
			if crackedSalts[b.Salt] {
				strongCracked++
			}
		}
	}
	if weakTotal > 0 && weakCracked != weakTotal {
		t.Errorf("weak (boolean) bombs must all crack: %d/%d", weakCracked, weakTotal)
	}
	// Verify cracked keys are genuine.
	for _, c := range res.Cracked {
		b := func() *core.Bomb {
			for i := range fx.protRes.Bombs {
				if fx.protRes.Bombs[i].Salt == c.Site.Salt {
					return &fx.protRes.Bombs[i]
				}
			}
			return nil
		}()
		if b == nil {
			continue
		}
		if !c.Key.Equal(b.Const) {
			t.Errorf("cracked key %v != true constant %v", c.Key, b.Const)
		}
	}
	t.Logf("cracked %d/%d sites (weak %d/%d, strong %d/%d), %d attempts",
		len(res.Cracked), res.Sites, weakCracked, weakTotal, strongCracked, strongTotal, res.Attempts)
}

func TestBruteForceSaltPreventsRainbowSharing(t *testing.T) {
	// Two bombs with the same constant have different (salt, Hc)
	// pairs: one precomputed table cannot serve both (§5.1).
	fx := build(t, 109)
	protFile, _ := fx.prot.DexFile()
	sites := ScanBombSites(protFile)
	seen := map[string]bool{}
	for _, s := range sites {
		if seen[s.Hc] {
			t.Fatalf("duplicate Hc across bombs — salts are not doing their job")
		}
		seen[s.Hc] = true
	}
}

func TestDeletionCorruptsProtectedApp(t *testing.T) {
	fx := build(t, 113)
	protFile, err := fx.prot.DexFile()
	if err != nil {
		t.Fatal(err)
	}
	del := DeleteSuspiciousCode(protFile)
	if del.SitesDeleted == 0 {
		t.Fatal("nothing deleted")
	}
	// Run the mutilated app as a user would; compare against the
	// intact protected app.
	attacker, _ := apk.NewKeyPair(5051)
	broken, err := apk.Sign(apk.Build("atk", del.File, fx.res), attacker)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	dev := android.SamplePopulation("u", rng)
	vb, err := vm.New(broken, dev.Clone(), vm.Options{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	vp, err := vm.New(fx.prot, dev.Clone(), vm.Options{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	refs := append(append([]string{}, fx.app.IntFieldRefs...), fx.app.StrFieldRefs...)
	refs = append(refs, fx.app.BoolFieldRefs...)
	diverged := false
	for i := 0; i < 4000 && !diverged; i++ {
		h := fx.app.Handlers[rng.Intn(len(fx.app.Handlers))]
		a, b := dex.Int64(rng.Int63n(64)), dex.Int64(rng.Int63n(64))
		_, err1 := vb.Invoke(h, a, b)
		_, err2 := vp.Invoke(h, a, b)
		if vm.AbnormalExit(err1) != vm.AbnormalExit(err2) {
			diverged = true
		}
		for _, ref := range refs {
			if !vb.Static(ref).Equal(vp.Static(ref)) {
				diverged = true
				break
			}
		}
	}
	if !diverged {
		t.Error("deleting all bomb sites should corrupt app behaviour (weaving)")
	}
}

func TestForcedExecutionRevealsNaiveNotBombDroid(t *testing.T) {
	fx := build(t, 127)
	protFile, err := fx.prot.DexFile()
	if err != nil {
		t.Fatal(err)
	}
	bd, err := ForcedExecution(protFile, fx.res, 1)
	if err != nil {
		t.Fatal(err)
	}
	if bd.BranchesForced == 0 {
		t.Fatal("no branches forced on the protected app")
	}
	if bd.ForcedOnlyReveals != 0 {
		t.Errorf("forcing alone revealed %d BombDroid payloads — encryption should prevent this", bd.ForcedOnlyReveals)
	}
	if bd.Corrupted == 0 {
		t.Error("forced decryption should corrupt at least some runs")
	}

	nv, err := ForcedExecution(fx.naive.File, fx.res, 1)
	if err != nil {
		t.Fatal(err)
	}
	if nv.ForcedOnlyReveals == 0 {
		t.Error("forcing must reveal naive detection code")
	}
	t.Logf("bombdroid: forced=%d revealed=%d forced-only=%d corrupted=%d | naive: forced=%d forced-only=%d",
		bd.BranchesForced, bd.PayloadRevealed, bd.ForcedOnlyReveals, bd.Corrupted,
		nv.BranchesForced, nv.ForcedOnlyReveals)
}

func TestSlicingFailsOnBombDroid(t *testing.T) {
	fx := build(t, 131)
	protFile, err := fx.prot.DexFile()
	if err != nil {
		t.Fatal(err)
	}
	slices := BackwardSlices(protFile, dex.APIDecryptLoad)
	if len(slices) == 0 {
		t.Fatal("no slices found")
	}
	for _, sl := range slices {
		if len(sl.PCs) < 2 {
			t.Errorf("slice at %s:%d suspiciously small", sl.Method, sl.TargetPC)
		}
	}
	res, err := ExecuteSlices(protFile, fx.res, 3)
	if err != nil {
		t.Fatal(err)
	}
	if res.Executed == 0 {
		t.Fatal("no slices executed")
	}
	if res.Revealed != 0 {
		t.Errorf("slice execution revealed %d payloads — should be impossible without keys", res.Revealed)
	}
	if res.Corrupted == 0 {
		t.Error("slice execution should die in decrypt failures")
	}
	t.Logf("slices=%d executed=%d corrupted=%d other=%d",
		res.Slices, res.Executed, res.Corrupted, res.OtherFailure)
}

func TestHookCampaignOnlyLocatesFiredBombs(t *testing.T) {
	fx := build(t, 137)
	attacker, _ := apk.NewKeyPair(2222)
	pirated, err := apk.Repackage(fx.prot, attacker, apk.RepackOptions{})
	if err != nil {
		t.Fatal(err)
	}
	hr, err := HookCampaign(pirated, fx.app.Config.ParamDomain, 30*60_000, fx.devKey.PublicKeyHex(), 4)
	if err != nil {
		t.Fatal(err)
	}
	total := len(fx.protRes.RealBombs())
	if hr.BombsTriggered >= total {
		t.Errorf("hooking located %d/%d bombs — most must stay dormant", hr.BombsTriggered, total)
	}
	t.Logf("hook campaign: located %d/%d bombs in %d minutes, %d checks suppressed",
		hr.BombsTriggered, total, hr.FuzzedMinutes, hr.Suppressed)
}

func TestHumanAnalystTriggersMinority(t *testing.T) {
	fx := build(t, 139)
	attacker, _ := apk.NewKeyPair(3131)
	pirated, err := apk.Repackage(fx.prot, attacker, apk.RepackOptions{})
	if err != nil {
		t.Fatal(err)
	}
	total := len(fx.protRes.RealBombs())
	ar, err := HumanAnalyst(pirated, fx.app.Config.ParamDomain, total, 2,
		fx.app.HandlerScreens, fx.app.ScreenField, 5)
	if err != nil {
		t.Fatal(err)
	}
	frac := float64(ar.BombsTriggered) / float64(max(1, ar.TotalBombs))
	if frac > 0.5 {
		t.Errorf("analyst triggered %.0f%% of bombs; defence collapsed", frac*100)
	}
	t.Logf("analyst: %d sessions, %d/%d bombs (%.1f%%)", ar.Sessions, ar.BombsTriggered, ar.TotalBombs, frac*100)
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

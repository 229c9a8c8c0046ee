package core

import (
	"math/rand"
	"testing"

	"bombdroid/internal/android"
	"bombdroid/internal/apk"
	"bombdroid/internal/appgen"
	"bombdroid/internal/dex"
	"bombdroid/internal/vm"
)

// muteCfg builds a bomb-dense app so several bombs trigger in a run.
func muteCfg(seed int64) appgen.Config {
	return appgen.Config{Name: "mute", Seed: seed, TargetLOC: 2200, QCPerMethod: 1.5}
}

// runPirated drives a pirated build and returns (bombs whose detection
// ran, responses fired).
func runPirated(t *testing.T, opts Options, seed int64) (int, int) {
	t.Helper()
	app, err := appgen.Generate(muteCfg(401))
	if err != nil {
		t.Fatal(err)
	}
	key, err := apk.NewKeyPair(71)
	if err != nil {
		t.Fatal(err)
	}
	orig, err := apk.Sign(apk.Build("mute", app.File, apk.Resources{}), key)
	if err != nil {
		t.Fatal(err)
	}
	prot, _ := protectSigned(t, orig, key, opts)
	attacker, err := apk.NewKeyPair(72)
	if err != nil {
		t.Fatal(err)
	}
	pirated, err := apk.Repackage(prot, attacker, apk.RepackOptions{})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	v, err := vm.New(pirated, android.SamplePopulation("u", rng), vm.Options{Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	for _, init := range v.InitMethods() {
		v.Invoke(init)
	}
	for i := 0; i < 2500; i++ {
		h := app.Handlers[rng.Intn(len(app.Handlers))]
		v.Invoke(h, dex.Int64(rng.Int63n(64)), dex.Int64(rng.Int63n(64)))
		v.AdvanceIdle(60)
	}
	return len(v.DetectionRuns()), len(v.Responses())
}

// The §10 extension: once a bomb responds, the rest go quiet, so the
// muted build exposes fewer bombs to dynamic analysis than the default
// while still responding at least once.
func TestMuteAfterFirstSuppressesLaterBombs(t *testing.T) {
	// Responses must not crash for the run to continue — use warn.
	respOpts := []vm.ResponseKind{vm.RespWarn}

	baseRuns, baseResp := runPirated(t, Options{
		Seed: 9, SingleTrigger: true, Responses: respOpts,
	}, 31)
	mutedRuns, mutedResp := runPirated(t, Options{
		Seed: 9, SingleTrigger: true, Responses: respOpts, MuteAfterFirst: true,
	}, 31)

	t.Logf("default: %d bombs ran detection, %d responses; muted: %d, %d",
		baseRuns, baseResp, mutedRuns, mutedResp)
	if baseResp < 2 {
		t.Skip("baseline run fired fewer than 2 responses; seed too quiet for the comparison")
	}
	if mutedResp == 0 {
		t.Fatal("muted build must still respond once")
	}
	if mutedRuns >= baseRuns {
		t.Errorf("muting should reduce exposed bombs: muted %d vs default %d", mutedRuns, baseRuns)
	}
	if mutedResp > baseResp {
		t.Errorf("muting should not increase responses: %d vs %d", mutedResp, baseResp)
	}
}

func TestMuteStillWeaves(t *testing.T) {
	// Muted payloads must keep executing their woven app code, or the
	// app breaks after first detection.
	app, err := appgen.Generate(muteCfg(402))
	if err != nil {
		t.Fatal(err)
	}
	key, err := apk.NewKeyPair(73)
	if err != nil {
		t.Fatal(err)
	}
	orig, err := apk.Sign(apk.Build("mute", app.File, apk.Resources{}), key)
	if err != nil {
		t.Fatal(err)
	}
	prot, res := protectSigned(t, orig, key, Options{Seed: 10, MuteAfterFirst: true})
	if res.Stats.Woven == 0 {
		t.Skip("no woven bombs this seed")
	}
	// Genuine app: trajectories must match the original exactly.
	rng := rand.New(rand.NewSource(3))
	dev := android.SamplePopulation("u", rng)
	vO, err := vm.New(orig, dev.Clone(), vm.Options{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	vP, err := vm.New(prot, dev.Clone(), vm.Options{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1200; i++ {
		h := app.Handlers[rng.Intn(len(app.Handlers))]
		a, b := dex.Int64(rng.Int63n(64)), dex.Int64(rng.Int63n(64))
		if _, err := vO.Invoke(h, a, b); err != nil {
			t.Fatal(err)
		}
		if _, err := vP.Invoke(h, a, b); err != nil {
			t.Fatal(err)
		}
	}
	for _, ref := range app.IntFieldRefs {
		if !vO.Static(ref).Equal(vP.Static(ref)) {
			t.Fatalf("%s diverged under muting", ref)
		}
	}
	if n := len(vP.Responses()); n != 0 {
		t.Fatalf("genuine app fired %d responses", n)
	}
}

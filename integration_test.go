// End-to-end integration of the whole pipeline: the single test that
// tells the paper's story — build, protect, verify transparency,
// pirate, detect, resist.
package bombdroid_test

import (
	"context"
	"math/rand"
	"strings"
	"testing"

	"bombdroid/internal/android"
	"bombdroid/internal/apk"
	"bombdroid/internal/appgen"
	"bombdroid/internal/attack"
	"bombdroid/internal/core"
	"bombdroid/internal/dex"
	"bombdroid/internal/sim"
	"bombdroid/internal/symexec"
	"bombdroid/internal/vm"
)

func TestEndToEnd(t *testing.T) {
	// 1. Developer builds and signs an app.
	app, err := appgen.Generate(appgen.Config{
		Name: "e2e", Seed: 1234, TargetLOC: 2200, QCPerMethod: 1.1,
	})
	if err != nil {
		t.Fatal(err)
	}
	devKey, err := apk.NewKeyPair(77)
	if err != nil {
		t.Fatal(err)
	}
	original, err := apk.Sign(apk.Build("e2e", app.File, apk.Resources{
		Strings: []string{"Play"}, Author: "dev", Icon: []byte{1, 2, 3},
	}), devKey)
	if err != nil {
		t.Fatal(err)
	}

	// 2. BombDroid protects it (full Fig. 1 pipeline, all detection
	// methods, §10 muting off so every detonation is visible).
	built, err := (&core.Engine{Opts: core.Options{
		Seed: 99,
		Detections: []core.DetectionMethod{
			core.DetectPublicKey, core.DetectDigest, core.DetectSnippet, core.DetectIcon,
		},
	}}).Run(context.Background(), original)
	if err != nil {
		t.Fatal(err)
	}
	protected, err := apk.Sign(built.Unsigned, devKey)
	if err != nil {
		t.Fatal(err)
	}
	res := built.Result
	if res.Stats.Bombs() < 10 {
		t.Fatalf("too few bombs: %d", res.Stats.Bombs())
	}

	// 3. Transparency: the protected app behaves exactly like the
	// original for genuine users.
	rng := rand.New(rand.NewSource(5))
	dev := android.SamplePopulation("u", rng)
	vO, err := vm.New(original, dev.Clone(), vm.Options{Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	vP, err := vm.New(protected, dev.Clone(), vm.Options{Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 600; i++ {
		h := app.Handlers[rng.Intn(len(app.Handlers))]
		a, b := dex.Int64(rng.Int63n(64)), dex.Int64(rng.Int63n(64))
		if _, err := vO.Invoke(h, a, b); err != nil {
			t.Fatal(err)
		}
		if _, err := vP.Invoke(h, a, b); err != nil {
			t.Fatalf("protected app diverged: %v", err)
		}
	}
	for _, ref := range app.IntFieldRefs {
		if !vO.Static(ref).Equal(vP.Static(ref)) {
			t.Fatalf("%s: state diverged", ref)
		}
	}
	if len(vP.Responses()) != 0 {
		t.Fatal("false positive on the genuine app")
	}

	// 4. A pirate repackages; user devices detect it.
	pirateKey, err := apk.NewKeyPair(666)
	if err != nil {
		t.Fatal(err)
	}
	pirated, err := apk.Repackage(protected, pirateKey, apk.RepackOptions{
		NewAuthor: "pirate", NewIcon: []byte{9},
	})
	if err != nil {
		t.Fatal(err)
	}
	cr, err := sim.Run(context.Background(), pirated, sim.SurfaceOf(app), sim.CampaignOptions{N: 10, CapMs: 30 * 60_000, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if cr.Successes == 0 {
		t.Fatal("no user detected the pirated copy")
	}

	// 5. The attacker's static arsenal comes up empty.
	file, err := protected.DexFile()
	if err != nil {
		t.Fatal(err)
	}
	if n := attack.FindToken(attack.TextSearch(file), "getPublicKey"); n != 0 {
		t.Errorf("text search found %d getPublicKey tokens", n)
	}
	sum := symexec.Analyze(file, symexec.Options{Targets: []dex.API{dex.APIDecryptLoad}})
	if len(sum.SolvedHits()) != 0 {
		t.Error("symbolic execution recovered a bomb key")
	}
	if len(sum.UnsolvableHits()) == 0 {
		t.Error("no decrypt paths even explored")
	}
	// Disassembly shows plumbing, never payload internals.
	dis := dex.Disassemble(file)
	for _, secret := range []string{"getPublicKey", "getManifestDigest", "stegoExtract", "codeDigest"} {
		if strings.Contains(dis, secret) {
			t.Errorf("payload internals leaked: %s", secret)
		}
	}
}

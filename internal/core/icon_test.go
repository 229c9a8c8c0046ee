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

// TestIconDetectionFiresOnIconSwap covers the §4.1 icon/author
// variant: a repackager who replaces the icon trips DetectIcon bombs
// even though the code is byte-identical.
func TestIconDetectionFiresOnIconSwap(t *testing.T) {
	app, err := appgen.Generate(appgen.Config{
		Name: "icon", Seed: 501, TargetLOC: 1800, QCPerMethod: 1.4,
	})
	if err != nil {
		t.Fatal(err)
	}
	key, err := apk.NewKeyPair(81)
	if err != nil {
		t.Fatal(err)
	}
	orig, err := apk.Sign(apk.Build("icon", app.File, apk.Resources{
		Strings: []string{"hello"}, Author: "dev", Icon: []byte{1, 2, 3, 4},
	}), key)
	if err != nil {
		t.Fatal(err)
	}
	prot, res := protectSigned(t, orig, key, Options{
		Seed:       11,
		Detections: []DetectionMethod{DetectIcon},
		Responses:  []vm.ResponseKind{vm.RespWarn},
	})
	iconBombs := 0
	for _, b := range res.RealBombs() {
		if b.Detect == DetectIcon {
			iconBombs++
		}
	}
	if iconBombs == 0 {
		t.Fatal("no icon bombs injected")
	}
	if len(res.StegoStrings) == 0 {
		t.Fatal("icon bombs require stego strings")
	}

	attacker, err := apk.NewKeyPair(82)
	if err != nil {
		t.Fatal(err)
	}
	pirated, err := apk.Repackage(prot, attacker, apk.RepackOptions{
		NewIcon: []byte{9, 9, 9}, NewAuthor: "pirate",
	})
	if err != nil {
		t.Fatal(err)
	}

	drive := func(pkg *apk.Package) *vm.VM {
		rng := rand.New(rand.NewSource(6))
		v, err := vm.New(pkg, android.SamplePopulation("u", rng), vm.Options{Seed: 6})
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
		return v
	}

	vPirated := drive(pirated)
	if len(vPirated.Responses()) == 0 {
		t.Error("icon swap should trip icon-digest bombs")
	}
	vGenuine := drive(prot)
	if len(vGenuine.Responses()) != 0 {
		t.Errorf("genuine app fired %d icon responses", len(vGenuine.Responses()))
	}
}

// Pure re-sign without icon/author edits must NOT trip DetectIcon
// (it compares resources, not signatures).
func TestIconDetectionIgnoresPureResign(t *testing.T) {
	app, err := appgen.Generate(appgen.Config{
		Name: "icon2", Seed: 502, TargetLOC: 1500, QCPerMethod: 1.4,
	})
	if err != nil {
		t.Fatal(err)
	}
	key, err := apk.NewKeyPair(83)
	if err != nil {
		t.Fatal(err)
	}
	orig, err := apk.Sign(apk.Build("icon2", app.File, apk.Resources{
		Strings: []string{"hi"}, Author: "dev", Icon: []byte{5, 6},
	}), key)
	if err != nil {
		t.Fatal(err)
	}
	prot, _ := protectSigned(t, orig, key, Options{
		Seed:       12,
		Detections: []DetectionMethod{DetectIcon},
		Responses:  []vm.ResponseKind{vm.RespWarn},
	})
	attacker, err := apk.NewKeyPair(84)
	if err != nil {
		t.Fatal(err)
	}
	resigned, err := apk.Repackage(prot, attacker, apk.RepackOptions{}) // no edits
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	v, err := vm.New(resigned, android.SamplePopulation("u", rng), vm.Options{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1500; i++ {
		h := app.Handlers[rng.Intn(len(app.Handlers))]
		v.Invoke(h, dex.Int64(rng.Int63n(64)), dex.Int64(rng.Int63n(64)))
		v.AdvanceIdle(60)
	}
	if len(v.Responses()) != 0 {
		t.Errorf("pure re-sign tripped %d icon responses; icon digests did not change", len(v.Responses()))
	}
}

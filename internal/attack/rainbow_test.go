package attack

import (
	"context"
	"testing"

	"bombdroid/internal/apk"
	"bombdroid/internal/appgen"
	"bombdroid/internal/core"
)

// Salt economics (paper §5.1): per-bomb salts force one table per
// bomb; a single global salt lets one table serve all of them.
func TestRainbowSaltEconomics(t *testing.T) {
	app, err := appgen.Generate(appgen.Config{
		Name: "rb", Seed: 6, TargetLOC: 1400, QCPerMethod: 1.2,
	})
	if err != nil {
		t.Fatal(err)
	}
	key, err := apk.NewKeyPair(14)
	if err != nil {
		t.Fatal(err)
	}
	orig, err := apk.Sign(apk.Build("rb", app.File, apk.Resources{}), key)
	if err != nil {
		t.Fatal(err)
	}

	protect := func(globalSalt string) int {
		built, err := (&core.Engine{Opts: core.Options{Seed: 6, GlobalSalt: globalSalt}}).Run(context.Background(), orig)
		if err != nil {
			t.Fatal(err)
		}
		prot, err := apk.Sign(built.Unsigned, key)
		if err != nil {
			t.Fatal(err)
		}
		file, err := prot.DexFile()
		if err != nil {
			t.Fatal(err)
		}
		res := Rainbow(file, SmallIntCandidates(1024))
		if res.Sites == 0 {
			t.Fatal("no sites")
		}
		if res.Cracked == 0 {
			t.Error("small-int candidates should crack the weak/small bombs")
		}
		t.Logf("globalSalt=%q: %d sites, %d cracked, %d tables, %d hashes",
			globalSalt, res.Sites, res.Cracked, res.TablesBuilt, res.HashesComputed)
		return res.TablesBuilt
	}

	perBombTables := protect("")
	globalTables := protect("shared-salt")
	if globalTables != 1 {
		t.Errorf("global salt should need exactly 1 table, got %d", globalTables)
	}
	if perBombTables <= 1 {
		t.Errorf("per-bomb salts should force many tables, got %d", perBombTables)
	}
	if perBombTables < 10*globalTables {
		t.Errorf("salting should multiply precomputation cost: %d vs %d tables",
			perBombTables, globalTables)
	}
}

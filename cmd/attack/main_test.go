package main

import (
	"context"
	"os"
	"path/filepath"
	"testing"

	"bombdroid/internal/apk"
	"bombdroid/internal/appgen"
	"bombdroid/internal/core"
)

func protectedAPK(t *testing.T, dir string) string {
	t.Helper()
	app, err := appgen.Generate(appgen.Config{Name: "atkcli", Seed: 5, TargetLOC: 1000, QCPerMethod: 1.2})
	if err != nil {
		t.Fatal(err)
	}
	key, err := apk.NewKeyPair(9)
	if err != nil {
		t.Fatal(err)
	}
	orig, err := apk.Sign(apk.Build("atkcli", app.File, apk.Resources{Strings: []string{"x"}}), key)
	if err != nil {
		t.Fatal(err)
	}
	built, err := (&core.Engine{Opts: core.Options{Seed: 5}}).Run(context.Background(), orig)
	if err != nil {
		t.Fatal(err)
	}
	prot, err := apk.Sign(built.Unsigned, key)
	if err != nil {
		t.Fatal(err)
	}
	data, err := apk.Pack(prot)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "prot.apk")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunAllModes(t *testing.T) {
	dir := t.TempDir()
	path := protectedAPK(t, dir)
	for _, mode := range []string{"text", "scan", "brute", "delete", "slice", "sym"} {
		if err := run(path, mode, 1<<10, 1); err != nil {
			t.Errorf("mode %s: %v", mode, err)
		}
	}
}

func TestRunBadInput(t *testing.T) {
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.apk")
	os.WriteFile(bad, []byte("junk"), 0o644)
	if err := run(bad, "text", 1, 1); err == nil {
		t.Error("junk input must fail")
	}
	if err := run(filepath.Join(dir, "missing.apk"), "text", 1, 1); err == nil {
		t.Error("missing input must fail")
	}
}

package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"bombdroid/internal/apk"
	"bombdroid/internal/appgen"
)

// writeTestAPK builds a signed package on disk (what cmd/apkgen does).
func writeTestAPK(t *testing.T, path string, name string, appSeed, keySeed int64) string {
	t.Helper()
	app, err := appgen.Generate(appgen.Config{Name: name, Seed: appSeed, TargetLOC: 1200})
	if err != nil {
		t.Fatal(err)
	}
	key, err := apk.NewKeyPair(keySeed)
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := apk.Sign(apk.Build(name, app.File, apk.Resources{
		Strings: []string{"x"}, Author: "dev", Icon: []byte{1},
	}), key)
	if err != nil {
		t.Fatal(err)
	}
	data, err := apk.Pack(pkg)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func runCLI(t *testing.T, args ...string) error {
	t.Helper()
	var out bytes.Buffer
	err := run(context.Background(), &out, args)
	t.Log(out.String())
	return err
}

func TestRunProtectsOnDisk(t *testing.T) {
	dir := t.TempDir()
	in := writeTestAPK(t, filepath.Join(dir, "app.apk"), "cli", 3, 1)
	out := filepath.Join(dir, "prot.apk")
	report := filepath.Join(dir, "bombs.txt")

	if err := runCLI(t, "-in", in, "-out", out, "-keyseed", "1",
		"-profile-events", "1500", "-report", report, "-seed", "7"); err != nil {
		t.Fatal(err)
	}

	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := apk.Unpack(data)
	if err != nil {
		t.Fatal(err)
	}
	if err := pkg.Verify(); err != nil {
		t.Fatalf("protected output must verify: %v", err)
	}
	rep, err := os.ReadFile(report)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(rep), "Bomb0") {
		t.Error("report missing bomb inventory")
	}
	if !strings.Contains(string(rep), "inner=") {
		t.Error("report missing inner conditions")
	}
}

func TestRunErrorPaths(t *testing.T) {
	dir := t.TempDir()
	in := writeTestAPK(t, filepath.Join(dir, "app.apk"), "cli", 3, 1)
	out := filepath.Join(dir, "o.apk")

	t.Run("missing in and out", func(t *testing.T) {
		if err := runCLI(t); err == nil {
			t.Fatal("no -in/-out/-batch must fail")
		}
	})
	t.Run("missing input file", func(t *testing.T) {
		if err := runCLI(t, "-in", filepath.Join(dir, "nope.apk"), "-out", out); err == nil {
			t.Fatal("nonexistent input must fail")
		}
	})
	t.Run("wrong key seed", func(t *testing.T) {
		err := runCLI(t, "-in", in, "-out", out, "-keyseed", "999", "-profile-events", "500")
		if err == nil || !strings.Contains(err.Error(), "does not match") {
			t.Fatalf("mismatched key seed: err = %v", err)
		}
	})
	t.Run("garbage input", func(t *testing.T) {
		junk := filepath.Join(dir, "junk.apk")
		if err := os.WriteFile(junk, []byte("not an apk"), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := runCLI(t, "-in", junk, "-out", out); err == nil {
			t.Fatal("garbage input must fail")
		}
	})
	t.Run("unwritable report path", func(t *testing.T) {
		bad := filepath.Join(dir, "no-such-dir", "bombs.txt")
		err := runCLI(t, "-in", in, "-out", out, "-keyseed", "1",
			"-profile-events", "500", "-report", bad)
		if err == nil {
			t.Fatal("unwritable -report must fail")
		}
	})
	t.Run("unknown flag", func(t *testing.T) {
		if err := runCLI(t, "-no-such-flag"); err == nil {
			t.Fatal("unknown flag must fail")
		}
	})
	t.Run("empty batch dir", func(t *testing.T) {
		if err := runCLI(t, "-batch", t.TempDir()); err == nil {
			t.Fatal("batch over an empty directory must fail")
		}
	})
}

// TestBatchProtectsCorpus: the happy path over a small corpus with a
// duplicate member (cache hit) and one corrupt member (isolated error
// entry). The command exits with an error because of the corrupt app,
// but every healthy app is protected and the manifest records all of
// it.
func TestBatchProtectsCorpus(t *testing.T) {
	dir := t.TempDir()
	writeTestAPK(t, filepath.Join(dir, "a.apk"), "appA", 3, 1)
	writeTestAPK(t, filepath.Join(dir, "b.apk"), "appB", 4, 1)
	// Byte-identical duplicate of a.apk: must content-address to the
	// same artifacts and come back as a result-cache hit.
	src, err := os.ReadFile(filepath.Join(dir, "a.apk"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "dup.apk"), src, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "corrupt.apk"), []byte("zzz"), 0o644); err != nil {
		t.Fatal(err)
	}
	outDir := filepath.Join(dir, "out")
	manifest := filepath.Join(dir, "m.json")

	err = runCLI(t, "-batch", dir, "-outdir", outDir, "-manifest", manifest,
		"-keyseed", "1", "-profile-events", "800", "-workers", "2")
	if err == nil || !strings.Contains(err.Error(), "1 of 4 apps failed") {
		t.Fatalf("batch with a corrupt member: err = %v", err)
	}

	var m batchManifest
	data, err := os.ReadFile(manifest)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatalf("manifest is not valid JSON: %v", err)
	}
	if len(m.Apps) != 4 || m.Cancelled {
		t.Fatalf("manifest: %+v", m)
	}
	byApp := map[string]batchEntry{}
	for _, e := range m.Apps {
		byApp[e.App] = e
	}
	for _, name := range []string{"a.apk", "b.apk", "dup.apk"} {
		e := byApp[name]
		if e.Status != "ok" {
			t.Fatalf("%s: status %q (%s)", name, e.Status, e.Error)
		}
		data, err := os.ReadFile(e.Out)
		if err != nil {
			t.Fatal(err)
		}
		pkg, err := apk.Unpack(data)
		if err != nil {
			t.Fatal(err)
		}
		if err := pkg.Verify(); err != nil {
			t.Fatalf("%s: protected output must verify: %v", name, err)
		}
		if len(e.Stages) == 0 {
			t.Errorf("%s: no stage timings in manifest", name)
		}
	}
	if e := byApp["corrupt.apk"]; e.Status != "error" || e.Error == "" {
		t.Fatalf("corrupt.apk entry: %+v", e)
	}
	// a.apk and dup.apk are byte-identical: whichever ran second is a
	// pure result-cache hit, and both protected outputs match.
	if m.Cache.Hits == 0 {
		t.Errorf("duplicate input produced no cache hit: %+v", m.Cache)
	}
	aOut, err := os.ReadFile(byApp["a.apk"].Out)
	if err != nil {
		t.Fatal(err)
	}
	dupOut, err := os.ReadFile(byApp["dup.apk"].Out)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(aOut, dupOut) {
		t.Error("duplicate inputs produced different protected bytes")
	}
}

// TestBatchCancellation: cancelling mid-corpus — once the first app's
// protected output lands — stops the batch with context.Canceled and
// still writes a valid manifest that names every corpus member with a
// known status.
func TestBatchCancellation(t *testing.T) {
	dir := t.TempDir()
	apps := []string{"a.apk", "b.apk", "c.apk", "d.apk"}
	for i, name := range apps {
		writeTestAPK(t, filepath.Join(dir, name), "app"+name[:1], int64(3+i), 1)
	}
	outDir := filepath.Join(dir, "out")
	manifest := filepath.Join(dir, "m.json")

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() {
		for ctx.Err() == nil {
			if outs, _ := filepath.Glob(filepath.Join(outDir, "*.prot.apk")); len(outs) > 0 {
				cancel()
				return
			}
			time.Sleep(time.Millisecond)
		}
	}()
	var out bytes.Buffer
	err := run(ctx, &out, []string{"-batch", dir, "-outdir", outDir, "-manifest", manifest, "-keyseed", "1", "-workers", "1"})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	var m batchManifest
	data, err := os.ReadFile(manifest)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatalf("partial manifest is not valid JSON: %v", err)
	}
	if !m.Cancelled || len(m.Apps) != len(apps) {
		t.Fatalf("manifest: %+v", m)
	}
	count := map[string]int{}
	for i, e := range m.Apps {
		if e.App != apps[i] {
			t.Errorf("manifest entry %d names %q, want %q", i, e.App, apps[i])
		}
		switch e.Status {
		case "ok":
			if _, err := os.Stat(e.Out); err != nil {
				t.Errorf("%s: ok without its output: %v", e.App, err)
			}
		case "error", "cancelled":
		default:
			t.Errorf("%s: unknown status %q", e.App, e.Status)
		}
		count[e.Status]++
	}
	if count["ok"] == 0 || count["cancelled"] == 0 {
		t.Errorf("statuses %v, want the first app ok and the rest cancelled", count)
	}
}

// TestSingleModeMatchesLegacyFlags: the engine-backed single mode
// keeps the original CLI contract — same flags, verifiable output,
// stage timings printed.
func TestSingleModePrintsStageTimings(t *testing.T) {
	dir := t.TempDir()
	in := writeTestAPK(t, filepath.Join(dir, "app.apk"), "cli", 3, 1)
	out := filepath.Join(dir, "prot.apk")
	var buf bytes.Buffer
	if err := run(context.Background(), &buf, []string{
		"-in", in, "-out", out, "-keyseed", "1", "-profile-events", "800",
	}); err != nil {
		t.Fatal(err)
	}
	for _, stage := range []string{"unpack", "profile", "analyze", "construct", "stego", "validate", "repack"} {
		if !strings.Contains(buf.String(), stage) {
			t.Errorf("single-mode output missing stage %q:\n%s", stage, buf.String())
		}
	}

	// -profile-events 0 turns profiling off: no profile stage runs.
	buf.Reset()
	if err := run(context.Background(), &buf, []string{
		"-in", in, "-out", out, "-keyseed", "1", "-profile-events", "0",
	}); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "stage profile") || !strings.Contains(buf.String(), "stage analyze") {
		t.Errorf("unprofiled run's stages:\n%s", buf.String())
	}
}

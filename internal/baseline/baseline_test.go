package baseline

import (
	"math/rand"
	"strings"
	"testing"

	"bombdroid/internal/android"
	"bombdroid/internal/apk"
	"bombdroid/internal/appgen"
	"bombdroid/internal/dex"
	"bombdroid/internal/vm"
)

func buildApp(t *testing.T, seed int64) (*appgen.App, *apk.KeyPair) {
	t.Helper()
	app, err := appgen.Generate(appgen.Config{Name: "bl", Seed: seed, TargetLOC: 1500})
	if err != nil {
		t.Fatal(err)
	}
	key, err := apk.NewKeyPair(31)
	if err != nil {
		t.Fatal(err)
	}
	return app, key
}

func install(t *testing.T, file *dex.File, key *apk.KeyPair, repack bool) *vm.VM {
	t.Helper()
	pkg, err := apk.Sign(apk.Build("bl", file, apk.Resources{}), key)
	if err != nil {
		t.Fatal(err)
	}
	if repack {
		attacker, err := apk.NewKeyPair(404)
		if err != nil {
			t.Fatal(err)
		}
		pkg, err = apk.Repackage(pkg, attacker, apk.RepackOptions{})
		if err != nil {
			t.Fatal(err)
		}
	}
	v, err := vm.New(pkg, android.EmulatorLab(1)[0], vm.Options{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func driveAll(t *testing.T, v *vm.VM, app *appgen.App, events int, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	for _, init := range v.InitMethods() {
		v.Invoke(init)
	}
	hs := v.Handlers()
	for i := 0; i < events; i++ {
		h := hs[rng.Intn(len(hs))]
		v.Invoke(h, dex.Int64(rng.Int63n(app.Config.ParamDomain)), dex.Int64(rng.Int63n(app.Config.ParamDomain)))
		v.AdvanceIdle(100)
	}
}

func TestObfuscateRoundTrip(t *testing.T) {
	obf := Obfuscate("getPublicKey")
	if strings.Contains(obf, "getPublicKey") {
		t.Error("obfuscation is a no-op")
	}
	// The VM's deobfuscation API must invert it.
	raw := make([]byte, len(obf)/2)
	for i := 0; i < len(raw); i++ {
		var b byte
		for j := 0; j < 2; j++ {
			c := obf[i*2+j]
			switch {
			case c >= '0' && c <= '9':
				b = b<<4 | (c - '0')
			default:
				b = b<<4 | (c - 'a' + 10)
			}
		}
		raw[i] = b ^ ObfKey
	}
	if string(raw) != "getPublicKey" {
		t.Errorf("manual deobfuscation got %q", raw)
	}
}

func TestSSNHidesAPIName(t *testing.T) {
	app, key := buildApp(t, 61)
	res, err := ProtectSSN(app.File, key.PublicKeyHex(), SSNOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Sites) == 0 {
		t.Fatal("no SSN sites inserted")
	}
	dis := dex.Disassemble(res.File)
	if strings.Contains(dis, "getPublicKey") {
		t.Error("SSN must hide the getPublicKey token from text search")
	}
	if !strings.Contains(dis, "reflectCall") {
		t.Error("reflection call should be present")
	}
}

func TestSSNDetectsEventually(t *testing.T) {
	app, key := buildApp(t, 67)
	res, err := ProtectSSN(app.File, key.PublicKeyHex(), SSNOptions{
		Seed: 2, InvokeProb: 0.25, DelayMs: 1000, Response: vm.RespWarn,
	})
	if err != nil {
		t.Fatal(err)
	}
	v := install(t, res.File, key, true) // repackaged
	driveAll(t, v, app, 400, 3)
	v.AdvanceIdle(5_000)
	if len(v.Responses()) == 0 {
		t.Error("SSN never fired on a repackaged app")
	}
	// And stays silent on the genuine app.
	v2 := install(t, res.File, key, false)
	driveAll(t, v2, app, 400, 3)
	v2.AdvanceIdle(5_000)
	if len(v2.Responses()) != 0 {
		t.Error("SSN false positive")
	}
}

func TestSSNDefeatedByRandHook(t *testing.T) {
	// §2.1 "code instrumentation": force rand() to 0 to make the
	// probabilistic invocation deterministic — every site visit then
	// runs detection, exposing all sites to a debugger.
	app, key := buildApp(t, 71)
	res, err := ProtectSSN(app.File, key.PublicKeyHex(), SSNOptions{
		Seed: 3, InvokeProb: 0.01, DelayMs: 500, Response: vm.RespWarn,
	})
	if err != nil {
		t.Fatal(err)
	}
	v := install(t, res.File, key, true)
	v.Hook(dex.APIRandPercent, func(vm.APICall) (dex.Value, bool, error) {
		return dex.Int64(0), true, nil
	})
	located := 0
	v.Observe(func(call vm.APICall) {
		if call.API == dex.APIGetPublicKey {
			located++
		}
	})
	driveAll(t, v, app, 200, 4)
	if located == 0 {
		t.Error("rand hook should expose every visited SSN site")
	}
}

func TestSSNDefeatedByReflectionCheck(t *testing.T) {
	// §2.1: "by inserting code that checks the reflection call
	// destination, an attacker can reveal and manipulate those calls."
	app, key := buildApp(t, 73)
	res, err := ProtectSSN(app.File, key.PublicKeyHex(), SSNOptions{Seed: 4, InvokeProb: 1.0})
	if err != nil {
		t.Fatal(err)
	}
	v := install(t, res.File, key, true)
	intercepted := 0
	v.Hook(dex.APIReflectCall, func(call vm.APICall) (dex.Value, bool, error) {
		if len(call.Args) > 0 && call.Args[0].Str() == "getPublicKey" {
			intercepted++
			// Return the original key: detection suppressed.
			return dex.Str(key.PublicKeyHex()), true, nil
		}
		return dex.Nil(), false, nil
	})
	driveAll(t, v, app, 300, 5)
	v.AdvanceIdle(600_000)
	if intercepted == 0 {
		t.Fatal("reflection destination check saw nothing")
	}
	if len(v.Responses()) != 0 {
		t.Error("manipulated reflection should fully suppress SSN detection")
	}
}

func TestNaiveBombsVisibleToTextSearch(t *testing.T) {
	app, key := buildApp(t, 79)
	res, err := ProtectNaive(app.File, key.PublicKeyHex(), NaiveOptions{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Bombs) == 0 {
		t.Fatal("no naive bombs")
	}
	dis := dex.Disassemble(res.File)
	if !strings.Contains(dis, "getPublicKey") {
		t.Error("naive bombs leave getPublicKey in the clear — text search must find it")
	}
}

func TestNaiveBombFires(t *testing.T) {
	app, key := buildApp(t, 83)
	res, err := ProtectNaive(app.File, key.PublicKeyHex(), NaiveOptions{Seed: 6, Response: vm.RespWarn})
	if err != nil {
		t.Fatal(err)
	}
	v := install(t, res.File, key, true)
	driveAll(t, v, app, 2500, 7)
	if len(v.Responses()) == 0 {
		t.Skip("no naive trigger hit in this stream (rare)")
	}
	v2 := install(t, res.File, key, false)
	driveAll(t, v2, app, 2500, 7)
	if len(v2.Responses()) != 0 {
		t.Error("naive bombs false positive")
	}
}

func TestProtectedFilesStillValid(t *testing.T) {
	app, key := buildApp(t, 89)
	ssn, err := ProtectSSN(app.File, key.PublicKeyHex(), SSNOptions{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if err := dex.ValidateLinked(ssn.File); err != nil {
		t.Error(err)
	}
	naive, err := ProtectNaive(app.File, key.PublicKeyHex(), NaiveOptions{Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	if err := dex.ValidateLinked(naive.File); err != nil {
		t.Error(err)
	}
	// The original file is untouched.
	if app.File.InstrCount() == ssn.File.InstrCount() {
		t.Error("SSN inserted nothing?")
	}
}

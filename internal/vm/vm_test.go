package vm

import (
	"errors"
	"strings"
	"testing"

	"bombdroid/internal/android"
	"bombdroid/internal/apk"
	"bombdroid/internal/dex"
	"bombdroid/internal/lockbox"
)

// buildTestApp assembles a small app exercising most of the
// instruction set, plus a sealed bomb payload at blob 0 triggered by
// App.armBomb(x) with constant 1234.
func buildTestApp(t *testing.T) (*dex.File, string) {
	t.Helper()
	f := dex.NewFile()
	app := &dex.Class{Name: "App", Fields: []dex.Field{
		{Name: "count", Init: dex.Int64(0)},
		{Name: "title", Init: dex.Str("start")},
	}}

	// add(a, b) = a + b
	b := dex.NewBuilder(f, "add", 2)
	r := b.Reg()
	b.Arith(dex.OpAdd, r, 0, 1)
	b.Return(r)
	app.AddMethod(b.MustFinish())

	// classify(x): switch -> 10/20/-1
	b = dex.NewBuilder(f, "classify", 1)
	out := b.Reg()
	b.Switch(0, []int64{1, 2}, []string{"one", "two"}, "other")
	b.Label("one")
	b.ConstInt(out, 10)
	b.Return(out)
	b.Label("two")
	b.ConstInt(out, 20)
	b.Return(out)
	b.Label("other")
	b.ConstInt(out, -1)
	b.Return(out)
	app.AddMethod(b.MustFinish())

	// bump(): count++ via statics, returns new count
	b = dex.NewBuilder(f, "bump", 0)
	r = b.Reg()
	b.GetStatic(r, "App.count")
	b.AddK(r, r, 1)
	b.PutStatic("App.count", r)
	b.Return(r)
	app.AddMethod(b.MustFinish())

	// sum3(): arrays — build [1,2,3], sum it
	b = dex.NewBuilder(f, "sum3", 0)
	n := b.Reg()
	arr := b.Reg()
	b.ConstInt(n, 3)
	b.Emit(dex.Instr{Op: dex.OpNewArr, A: arr, B: n, C: -1})
	idx := b.Reg()
	val := b.Reg()
	for i := int64(0); i < 3; i++ {
		b.ConstInt(idx, i)
		b.ConstInt(val, i+1)
		b.Emit(dex.Instr{Op: dex.OpAStore, A: arr, B: idx, C: val})
	}
	acc := b.Reg()
	b.ConstInt(acc, 0)
	ln := b.Reg()
	b.Emit(dex.Instr{Op: dex.OpArrLen, A: ln, B: arr, C: -1})
	i := b.Reg()
	b.ConstInt(i, 0)
	b.Label("loop")
	b.Branch(dex.OpIfGe, i, ln, "done")
	cur := b.Reg()
	b.Emit(dex.Instr{Op: dex.OpALoad, A: cur, B: arr, C: i})
	b.Arith(dex.OpAdd, acc, acc, cur)
	b.AddK(i, i, 1)
	b.Goto("loop")
	b.Label("done")
	b.Return(acc)
	app.AddMethod(b.MustFinish())

	// greet(name) = "hi " + name, logs it
	b = dex.NewBuilder(f, "greet", 1)
	pre := b.Reg()
	b.ConstStr(pre, "hi ")
	outS := b.Reg()
	b.CallAPI(outS, dex.APIStrConcat, pre, 0)
	b.CallAPI(-1, dex.APILog, outS)
	b.Return(outS)
	app.AddMethod(b.MustFinish())

	// callAdd() = add(20, 22) via invoke
	b = dex.NewBuilder(f, "callAdd", 0)
	a1 := b.Regs(2)
	b.ConstInt(a1, 20)
	b.ConstInt(a1+1, 22)
	res := b.Reg()
	b.Invoke(res, "App.add", a1, a1+1)
	b.Return(res)
	app.AddMethod(b.MustFinish())

	// readEnv() = api_level
	b = dex.NewBuilder(f, "readEnv", 0)
	nameReg := b.Reg()
	b.ConstStr(nameReg, "api_level")
	res = b.Reg()
	b.CallAPI(res, dex.APIGetEnvInt, nameReg)
	b.Return(res)
	app.AddMethod(b.MustFinish())

	// Payload: run() checks the public key and crashes on mismatch.
	pf := dex.NewFile()
	pc := &dex.Class{Name: "Bomb0"}
	pb := dex.NewBuilder(pf, "run", 0)
	pcur := pb.Reg()
	pb.CallAPI(pcur, dex.APIGetPublicKey, []int32{}...)
	ko := pb.Reg()
	pb.ConstStr(ko, "KO_PLACEHOLDER")
	eq := pb.Reg()
	pb.CallAPI(eq, dex.APIStrEquals, pcur, ko)
	pb.BranchZ(dex.OpIfNez, eq, "ok")
	pb.CallAPI(-1, dex.APICrash, []int32{}...)
	pb.Label("ok")
	pb.ReturnVoid()
	pm := pb.MustFinish()
	pm.Flags = dex.FlagSynthetic
	pc.AddMethod(pm)
	if err := pf.AddClass(pc); err != nil {
		t.Fatal(err)
	}

	// armBomb(x): if sha1(x|salt) == Hc { h = decryptLoad(0, x, salt); invoke(h) }
	const salt = "salt-test"
	cval := dex.Int64(1234)
	hc := lockbox.HashHex(cval, salt)
	sealed, err := lockbox.SealValue(dex.Encode(pf), cval, salt)
	if err != nil {
		t.Fatal(err)
	}
	blob := f.AddBlob(sealed)

	b = dex.NewBuilder(f, "armBomb", 1)
	saltReg := b.Reg()
	b.ConstStr(saltReg, salt)
	h := b.Reg()
	b.CallAPI(h, dex.APISHA1Hex, 0, saltReg)
	hcReg := b.Reg()
	b.ConstStr(hcReg, hc)
	eq2 := b.Reg()
	b.CallAPI(eq2, dex.APIStrEquals, h, hcReg)
	b.BranchZ(dex.OpIfEqz, eq2, "skip")
	blobReg := b.Reg()
	b.ConstInt(blobReg, blob)
	hd := b.Reg()
	b.CallAPI(hd, dex.APIDecryptLoad, blobReg, 0, saltReg)
	b.CallAPI(-1, dex.APIInvokePayload, hd)
	b.Label("skip")
	b.ReturnVoid()
	app.AddMethod(b.MustFinish())

	// forceDecrypt(x): calls decryptLoad unconditionally (what forced
	// execution does).
	b = dex.NewBuilder(f, "forceDecrypt", 1)
	saltReg = b.Reg()
	b.ConstStr(saltReg, salt)
	blobReg = b.Reg()
	b.ConstInt(blobReg, blob)
	hd = b.Reg()
	b.CallAPI(hd, dex.APIDecryptLoad, blobReg, 0, saltReg)
	b.CallAPI(-1, dex.APIInvokePayload, hd)
	b.ReturnVoid()
	app.AddMethod(b.MustFinish())

	// spin(): endless loop (budget test)
	b = dex.NewBuilder(f, "spin", 0)
	b.Label("top")
	b.Goto("top")
	app.AddMethod(b.MustFinish())

	// recurse(): unbounded recursion (depth test)
	b = dex.NewBuilder(f, "recurse", 0)
	b.Invoke(-1, "App.recurse")
	b.ReturnVoid()
	app.AddMethod(b.MustFinish())

	if err := f.AddClass(app); err != nil {
		t.Fatal(err)
	}
	return f, hc
}

// installApp signs and installs the file, patching KO_PLACEHOLDER with
// the actual developer key so the payload detects honestly.
func installApp(t *testing.T, f *dex.File, repackaged bool) *VM {
	t.Helper()
	devKey, err := apk.NewKeyPair(101)
	if err != nil {
		t.Fatal(err)
	}
	// Patch Ko: payloads carry the developer's public key.
	patched := patchPayloadKey(t, f, devKey.PublicKeyHex())
	pkg, err := apk.Sign(apk.Build("test.app", patched, apk.Resources{
		Strings: []string{"Tap to start"}, Author: "dev", Icon: []byte{1},
	}), devKey)
	if err != nil {
		t.Fatal(err)
	}
	if repackaged {
		attacker, err := apk.NewKeyPair(999)
		if err != nil {
			t.Fatal(err)
		}
		pkg, err = apk.Repackage(pkg, attacker, apk.RepackOptions{NewAuthor: "pirate"})
		if err != nil {
			t.Fatal(err)
		}
	}
	dev := android.EmulatorLab(1)[0]
	v, err := New(pkg, dev, Options{Seed: 7, Profile: true})
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// patchPayloadKey reseals blob 0 with KO replaced by the real key.
func patchPayloadKey(t *testing.T, f *dex.File, ko string) *dex.File {
	t.Helper()
	if len(f.Blobs) == 0 {
		return f
	}
	out := f.Clone()
	cval := dex.Int64(1234)
	const salt = "salt-test"
	plain, err := lockbox.OpenValue(out.Blobs[0], cval, salt)
	if err != nil {
		t.Fatal(err)
	}
	pf, err := dex.Decode(plain)
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range pf.Strings {
		if s == "KO_PLACEHOLDER" {
			pf.Strings[i] = ko
		}
	}
	sealed, err := lockbox.SealValue(dex.Encode(pf), cval, salt)
	if err != nil {
		t.Fatal(err)
	}
	out.Blobs[0] = sealed
	return out
}

func mustInvoke(t *testing.T, v *VM, name string, args ...dex.Value) dex.Value {
	t.Helper()
	res, err := v.Invoke(name, args...)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return res
}

func TestArithmeticAndCalls(t *testing.T) {
	f, _ := buildTestApp(t)
	v := installApp(t, f, false)
	if got := mustInvoke(t, v, "App.add", dex.Int64(2), dex.Int64(3)); got.Int != 5 {
		t.Errorf("add = %v", got)
	}
	if got := mustInvoke(t, v, "App.callAdd"); got.Int != 42 {
		t.Errorf("callAdd = %v", got)
	}
	if got := mustInvoke(t, v, "App.sum3"); got.Int != 6 {
		t.Errorf("sum3 = %v", got)
	}
}

func TestSwitchDispatch(t *testing.T) {
	f, _ := buildTestApp(t)
	v := installApp(t, f, false)
	for in, want := range map[int64]int64{1: 10, 2: 20, 3: -1, -5: -1} {
		if got := mustInvoke(t, v, "App.classify", dex.Int64(in)); got.Int != want {
			t.Errorf("classify(%d) = %v, want %d", in, got.Int, want)
		}
	}
}

func TestStaticsPersistAcrossInvocations(t *testing.T) {
	f, _ := buildTestApp(t)
	v := installApp(t, f, false)
	if got := mustInvoke(t, v, "App.bump"); got.Int != 1 {
		t.Errorf("first bump = %v", got)
	}
	if got := mustInvoke(t, v, "App.bump"); got.Int != 2 {
		t.Errorf("second bump = %v", got)
	}
	if got := v.Static("App.count"); got.Int != 2 {
		t.Errorf("static = %v", got)
	}
	if got := v.Static("App.title"); got.Str() != "start" {
		t.Errorf("title init = %v", got)
	}
}

// TestStaticSlots: a resolved slot reads what Static reads, through
// later writes; an unknown name has no slot until SetStatic gives it
// one, which grows NumStatics, and every earlier slot stays put.
func TestStaticSlots(t *testing.T) {
	f, _ := buildTestApp(t)
	v := installApp(t, f, false)
	count, ok := v.StaticSlot("App.count")
	if !ok {
		t.Fatal("App.count has no slot")
	}
	mustInvoke(t, v, "App.bump")
	if got := v.StaticAt(count); got.Int != 1 || got.Int != v.Static("App.count").Int {
		t.Errorf("StaticAt(count) = %v, Static = %v", got, v.Static("App.count"))
	}
	n := v.NumStatics()
	if _, ok := v.StaticSlot("App.later"); ok {
		t.Fatal("an unwritten unknown name has a slot")
	}
	if v.NumStatics() != n {
		t.Error("a failed lookup grew the static table")
	}
	v.SetStatic("App.later", dex.Str("x"))
	later, ok := v.StaticSlot("App.later")
	if !ok || v.NumStatics() != n+1 {
		t.Fatalf("after SetStatic: slot ok %v, NumStatics %d, want %d", ok, v.NumStatics(), n+1)
	}
	if got := v.StaticAt(later); got.Str() != "x" {
		t.Errorf("StaticAt(later) = %v", got)
	}
	if again, _ := v.StaticSlot("App.count"); again != count {
		t.Errorf("App.count moved from slot %d to %d", count, again)
	}
}

func TestStringAPIsAndLog(t *testing.T) {
	f, _ := buildTestApp(t)
	v := installApp(t, f, false)
	got := mustInvoke(t, v, "App.greet", dex.Str("bob"))
	if got.Str() != "hi bob" {
		t.Errorf("greet = %v", got)
	}
	logs := v.Logs()
	if len(logs) != 1 || logs[0] != "hi bob" {
		t.Errorf("logs = %v", logs)
	}
}

func TestEnvRead(t *testing.T) {
	f, _ := buildTestApp(t)
	v := installApp(t, f, false)
	got := mustInvoke(t, v, "App.readEnv")
	if got.Int != v.Device().GetInt("api_level", 0) {
		t.Errorf("readEnv = %v", got)
	}
}

func TestBombDormantOnWrongInput(t *testing.T) {
	f, _ := buildTestApp(t)
	v := installApp(t, f, true) // repackaged!
	// Wrong trigger values leave the bomb dormant even on a pirated app.
	for _, x := range []int64{0, 1, 1233, 999999} {
		mustInvoke(t, v, "App.armBomb", dex.Int64(x))
	}
	if len(v.OuterTriggered()) != 0 || len(v.Responses()) != 0 {
		t.Fatal("bomb fired without the trigger constant")
	}
}

func TestBombFiresOnRepackagedApp(t *testing.T) {
	f, _ := buildTestApp(t)
	v := installApp(t, f, true)
	_, err := v.Invoke("App.armBomb", dex.Int64(1234))
	if !IsCrash(err) {
		t.Fatalf("want crash on repackaged app, got %v", err)
	}
	if len(v.OuterTriggered()) != 1 {
		t.Error("outer trigger not recorded")
	}
	runs := v.DetectionRuns()
	if runs["Bomb0"] == 0 {
		t.Error("detection check not attributed to payload")
	}
	resp := v.Responses()
	if len(resp) != 1 || resp[0].Kind != RespCrash || resp[0].BombID != "Bomb0" {
		t.Errorf("responses = %+v", resp)
	}
}

func TestBombSilentOnGenuineApp(t *testing.T) {
	f, _ := buildTestApp(t)
	v := installApp(t, f, false) // original signature
	mustInvoke(t, v, "App.armBomb", dex.Int64(1234))
	if len(v.Responses()) != 0 {
		t.Fatal("false positive: response on genuine app")
	}
	if v.DetectionRuns()["Bomb0"] == 0 {
		t.Error("detection should have run (and stayed silent)")
	}
}

func TestDecryptCacheIsOneTimeEffort(t *testing.T) {
	f, _ := buildTestApp(t)
	v := installApp(t, f, false)
	mustInvoke(t, v, "App.armBomb", dex.Int64(1234))
	mustInvoke(t, v, "App.armBomb", dex.Int64(1234))
	if v.DetectionRuns()["Bomb0"] != 2 {
		t.Errorf("detection runs = %v, want 2", v.DetectionRuns()["Bomb0"])
	}
	if len(v.OuterTriggered()) != 1 {
		t.Error("same blob should appear once")
	}
}

func TestForcedDecryptFails(t *testing.T) {
	f, _ := buildTestApp(t)
	v := installApp(t, f, true)
	_, err := v.Invoke("App.forceDecrypt", dex.Int64(42)) // wrong value
	if !IsDecryptFailure(err) {
		t.Fatalf("forced execution should corrupt, got %v", err)
	}
	if !AbnormalExit(err) {
		t.Error("decrypt failure is an abnormal exit")
	}
	if len(v.OuterTriggered()) != 0 {
		t.Error("failed decrypt must not count as outer trigger")
	}
}

func TestHookSubstitutesResult(t *testing.T) {
	f, _ := buildTestApp(t)
	v := installApp(t, f, true)
	// Attacker hooks getPublicKey to return the original key — the
	// vtable-hijack attack from §4.1.
	devKey, _ := apk.NewKeyPair(101)
	v.Hook(dex.APIGetPublicKey, func(call APICall) (dex.Value, bool, error) {
		return dex.Str(devKey.PublicKeyHex()), true, nil
	})
	mustInvoke(t, v, "App.armBomb", dex.Int64(1234))
	if len(v.Responses()) != 0 {
		t.Error("hooked key should suppress detection")
	}
	v.Unhook(dex.APIGetPublicKey)
	_, err := v.Invoke("App.armBomb", dex.Int64(1234))
	if !IsCrash(err) {
		t.Error("after unhooking, detection should fire")
	}
}

func TestObserverSeesCalls(t *testing.T) {
	f, _ := buildTestApp(t)
	v := installApp(t, f, true)
	var seen []string
	v.Observe(func(call APICall) { seen = append(seen, call.API.Name()) })
	v.Invoke("App.armBomb", dex.Int64(1234))
	joined := strings.Join(seen, ",")
	for _, want := range []string{"sha1Hex", "decryptLoad", "invokePayload", "getPublicKey"} {
		if !strings.Contains(joined, want) {
			t.Errorf("observer missed %s in %s", want, joined)
		}
	}
}

func TestBudgetAndDepth(t *testing.T) {
	f, _ := buildTestApp(t)
	v := installApp(t, f, false)
	if _, err := v.Invoke("App.spin"); !errors.Is(err, ErrBudget) {
		t.Errorf("spin: want ErrBudget, got %v", err)
	}
	if _, err := v.Invoke("App.recurse"); !errors.Is(err, ErrDepth) {
		t.Errorf("recurse: want ErrDepth, got %v", err)
	}
	if _, err := v.Invoke("App.noSuchMethod"); err == nil {
		t.Error("unknown method should error")
	}
}

func TestRuntimeFaults(t *testing.T) {
	f := dex.NewFile()
	app := &dex.Class{Name: "App"}
	// div(a, b) = a / b
	b := dex.NewBuilder(f, "div", 2)
	r := b.Reg()
	b.Arith(dex.OpDiv, r, 0, 1)
	b.Return(r)
	app.AddMethod(b.MustFinish())
	// typeErr(): "x" + 1 (arith on string)
	b = dex.NewBuilder(f, "typeErr", 0)
	s := b.Reg()
	b.ConstStr(s, "x")
	o := b.Reg()
	b.ConstInt(o, 1)
	r2 := b.Reg()
	b.Arith(dex.OpAdd, r2, s, o)
	b.Return(r2)
	app.AddMethod(b.MustFinish())
	if err := f.AddClass(app); err != nil {
		t.Fatal(err)
	}

	v := installApp(t, f, false)
	if _, err := v.Invoke("App.div", dex.Int64(6), dex.Int64(2)); err != nil {
		t.Errorf("6/2 failed: %v", err)
	}
	_, err := v.Invoke("App.div", dex.Int64(1), dex.Int64(0))
	if !IsRuntimeFault(err) {
		t.Errorf("div by zero: %v", err)
	}
	_, err = v.Invoke("App.typeErr")
	if !IsRuntimeFault(err) {
		t.Errorf("type confusion: %v", err)
	}
	if !AbnormalExit(err) {
		t.Error("runtime fault is abnormal")
	}
}

func TestDelayedResponses(t *testing.T) {
	f := dex.NewFile()
	app := &dex.Class{Name: "App"}
	b := dex.NewBuilder(f, "delay", 0)
	ms := b.Regs(2)
	b.ConstInt(ms, 5000)
	b.ConstInt(ms+1, int64(RespWarn))
	b.CallAPI(-1, dex.APIDelayBomb, ms, ms+1)
	b.ReturnVoid()
	app.AddMethod(b.MustFinish())
	if err := f.AddClass(app); err != nil {
		t.Fatal(err)
	}
	v := installApp(t, f, false)
	mustInvoke(t, v, "App.delay")
	if v.PendingDelayed() != 1 {
		t.Fatal("delayed response not armed")
	}
	if err := v.AdvanceIdle(1000); err != nil {
		t.Fatal(err)
	}
	if len(v.Responses()) != 0 {
		t.Error("fired too early")
	}
	if err := v.AdvanceIdle(5000); err != nil {
		t.Fatal(err)
	}
	resp := v.Responses()
	if len(resp) != 1 || resp[0].Kind != RespWarn {
		t.Errorf("responses = %+v", resp)
	}
	if v.PendingDelayed() != 0 {
		t.Error("delayed queue not drained")
	}
}

func TestReflectionAndDeobfuscation(t *testing.T) {
	f := dex.NewFile()
	app := &dex.Class{Name: "App"}
	// SSN-style: name = deobfuscate(obf, key); key2 = reflectCall(name)
	obf := make([]byte, len("getPublicKey"))
	for i, c := range []byte("getPublicKey") {
		obf[i] = c ^ 0x5A
	}
	b := dex.NewBuilder(f, "reflected", 0)
	so := b.Reg()
	b.ConstStr(so, hexEncode(obf))
	k := b.Reg()
	b.ConstInt(k, 0x5A)
	name := b.Reg()
	b.CallAPI(name, dex.APIDeobfuscate, so, k)
	res := b.Reg()
	b.CallAPI(res, dex.APIReflectCall, name)
	b.Return(res)
	app.AddMethod(b.MustFinish())
	if err := f.AddClass(app); err != nil {
		t.Fatal(err)
	}
	v := installApp(t, f, false)
	got := mustInvoke(t, v, "App.reflected")
	if got.Str() != v.Package().PublicKeyHex() {
		t.Errorf("reflected getPublicKey = %q", got.Str())
	}
	// A hook on the *target* API intercepts reflected calls too.
	v.Hook(dex.APIGetPublicKey, func(call APICall) (dex.Value, bool, error) {
		return dex.Str("faked"), true, nil
	})
	if got := mustInvoke(t, v, "App.reflected"); got.Str() != "faked" {
		t.Error("hook did not intercept reflected call")
	}
}

func hexEncode(b []byte) string {
	const digits = "0123456789abcdef"
	out := make([]byte, 0, len(b)*2)
	for _, x := range b {
		out = append(out, digits[x>>4], digits[x&0xF])
	}
	return string(out)
}

func TestProfilerCounts(t *testing.T) {
	f, _ := buildTestApp(t)
	v := installApp(t, f, false)
	for i := 0; i < 5; i++ {
		mustInvoke(t, v, "App.callAdd")
	}
	prof := v.Profile()
	if prof["App.callAdd"] != 5 {
		t.Errorf("callAdd count = %d", prof["App.callAdd"])
	}
	if prof["App.add"] != 5 {
		t.Errorf("add count = %d (inner calls must profile)", prof["App.add"])
	}
	v.ResetProfile()
	if len(v.Profile()) != 0 {
		t.Error("reset did not clear profile")
	}
}

func TestClockAdvances(t *testing.T) {
	f, _ := buildTestApp(t)
	v := installApp(t, f, false)
	t0 := v.NowTicks()
	mustInvoke(t, v, "App.sum3")
	if v.NowTicks() <= t0 {
		t.Error("clock did not advance")
	}
	v.SetClockMillis(12_345)
	if v.NowMillis() != 12_345 {
		t.Errorf("NowMillis = %d", v.NowMillis())
	}
	if err := v.AdvanceIdle(100); err != nil {
		t.Fatal(err)
	}
	if v.NowMillis() != 12_445 {
		t.Errorf("after idle: %d", v.NowMillis())
	}
}

func TestInstallRejectsTamperedPackage(t *testing.T) {
	f, _ := buildTestApp(t)
	devKey, _ := apk.NewKeyPair(101)
	pkg, err := apk.Sign(apk.Build("x", f, apk.Resources{}), devKey)
	if err != nil {
		t.Fatal(err)
	}
	pkg.Dex[0] ^= 0xFF
	if _, err := New(pkg, android.EmulatorLab(1)[0], Options{}); err == nil {
		t.Fatal("tampered package must not install")
	}
}

func TestHandlersAndInitLists(t *testing.T) {
	f := dex.NewFile()
	app := &dex.Class{Name: "App"}
	for _, spec := range []struct {
		name  string
		flags dex.MethodFlags
	}{
		{"onCreate", dex.FlagInit},
		{"onTap", dex.FlagHandler},
		{"onSwipe", dex.FlagHandler},
		{"helper", 0},
	} {
		b := dex.NewBuilder(f, spec.name, 0)
		b.ReturnVoid()
		m := b.MustFinish()
		m.Flags = spec.flags
		app.AddMethod(m)
	}
	if err := f.AddClass(app); err != nil {
		t.Fatal(err)
	}
	v := installApp(t, f, false)
	h := v.Handlers()
	if len(h) != 2 || h[0] != "App.onSwipe" && h[0] != "App.onTap" {
		t.Errorf("handlers = %v", h)
	}
	if got := v.InitMethods(); len(got) != 1 || got[0] != "App.onCreate" {
		t.Errorf("init methods = %v", got)
	}
}

func TestResponseKindString(t *testing.T) {
	for k := RespCrash; k <= RespReport; k++ {
		if k.String() == "?" {
			t.Errorf("kind %d missing name", k)
		}
	}
	if ResponseKind(99).String() != "?" {
		t.Error("unknown kind should render ?")
	}
}

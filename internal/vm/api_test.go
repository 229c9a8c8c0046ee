package vm

import (
	"errors"
	"math/rand"
	"strings"
	"testing"

	"bombdroid/internal/android"
	"bombdroid/internal/apk"
	"bombdroid/internal/dex"
)

// apiHarness compiles a one-off method that calls one API and returns
// its result, then runs it.
type apiHarness struct {
	t   *testing.T
	res apk.Resources
	dev *android.Device
}

func newAPIHarness(t *testing.T) *apiHarness {
	rng := rand.New(rand.NewSource(42))
	return &apiHarness{
		t: t,
		res: apk.Resources{
			Strings: []string{"plain", apk.HideInString("cover text", "deadbeef00112233", rng)},
			Author:  "author", Icon: []byte{1, 2, 3},
		},
		dev: android.EmulatorLab(1)[0],
	}
}

// run builds method `m` with the given body emitter and invokes it.
func (h *apiHarness) run(build func(b *dex.Builder)) (dex.Value, *VM, error) {
	h.t.Helper()
	f := dex.NewFile()
	b := dex.NewBuilder(f, "m", 0)
	build(b)
	m, err := b.Finish()
	if err != nil {
		h.t.Fatal(err)
	}
	cl := &dex.Class{Name: "T"}
	cl.AddMethod(m)
	if err := f.AddClass(cl); err != nil {
		h.t.Fatal(err)
	}
	key, err := apk.NewKeyPair(55)
	if err != nil {
		h.t.Fatal(err)
	}
	pkg, err := apk.Sign(apk.Build("t", f, h.res), key)
	if err != nil {
		h.t.Fatal(err)
	}
	v, err := New(pkg, h.dev, Options{Seed: 3})
	if err != nil {
		h.t.Fatal(err)
	}
	res, err := v.Invoke("T.m")
	return res, v, err
}

func TestAPIResourceAndStego(t *testing.T) {
	h := newAPIHarness(t)
	// getResourceString(1) |> stegoExtract
	res, _, err := h.run(func(b *dex.Builder) {
		idx := b.Reg()
		b.ConstInt(idx, 1)
		s := b.Reg()
		b.CallAPI(s, dex.APIGetResourceString, idx)
		out := b.Reg()
		b.CallAPI(out, dex.APIStegoExtract, s)
		b.Return(out)
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Str() != "deadbeef00112233" {
		t.Errorf("stego extract = %q", res.Str())
	}
	// Out-of-range resource reads as empty.
	res, _, err = h.run(func(b *dex.Builder) {
		idx := b.Reg()
		b.ConstInt(idx, 99)
		s := b.Reg()
		b.CallAPI(s, dex.APIGetResourceString, idx)
		b.Return(s)
	})
	if err != nil || res.Str() != "" {
		t.Errorf("oob resource = %q, %v", res.Str(), err)
	}
}

func TestAPIManifestDigest(t *testing.T) {
	h := newAPIHarness(t)
	res, v, err := h.run(func(b *dex.Builder) {
		n := b.Reg()
		b.ConstStr(n, apk.EntryIcon)
		d := b.Reg()
		b.CallAPI(d, dex.APIGetManifestDigest, n)
		b.Return(d)
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Str() != v.Package().Manifest.DigestOf(apk.EntryIcon) {
		t.Error("manifest digest mismatch")
	}
	if len(res.Str()) != 64 {
		t.Errorf("digest length %d", len(res.Str()))
	}
}

func TestAPICodeDigestMethodLevel(t *testing.T) {
	h := newAPIHarness(t)
	res, v, err := h.run(func(b *dex.Builder) {
		n := b.Reg()
		b.ConstStr(n, "T.m")
		d := b.Reg()
		b.CallAPI(d, dex.APICodeDigest, n)
		b.Return(d)
	})
	if err != nil {
		t.Fatal(err)
	}
	want := CodeDigest(v.File(), v.File().Method("T.m"))
	if res.Str() != want {
		t.Error("method digest mismatch")
	}
	// Class-level digest and unknown names.
	res, _, err = h.run(func(b *dex.Builder) {
		n := b.Reg()
		b.ConstStr(n, "NoSuch")
		d := b.Reg()
		b.CallAPI(d, dex.APICodeDigest, n)
		b.Return(d)
	})
	if err != nil || res.Str() != "" {
		t.Errorf("unknown class digest = %q, %v", res.Str(), err)
	}
}

func TestAPIStringHelpers(t *testing.T) {
	h := newAPIHarness(t)
	res, _, err := h.run(func(b *dex.Builder) {
		s := b.Reg()
		b.ConstStr(s, "hello world")
		lo := b.Reg()
		b.ConstInt(lo, 6)
		hi := b.Reg()
		b.ConstInt(hi, 11)
		sub := b.Reg()
		b.CallAPI(sub, dex.APIStrSubstr, s, lo, hi)
		n := b.Reg()
		b.CallAPI(n, dex.APIStrToInt, sub) // "world" -> 0
		l := b.Reg()
		b.CallAPI(l, dex.APIStrLen, sub)
		sum := b.Reg()
		b.Arith(dex.OpAdd, sum, n, l)
		b.Return(sum)
	})
	if err != nil || res.Int != 5 {
		t.Errorf("string pipeline = %v, %v", res, err)
	}
	// parseInt on a real number; charAt; hashCode stability.
	res, _, err = h.run(func(b *dex.Builder) {
		s := b.Reg()
		b.ConstStr(s, " 42 ")
		n := b.Reg()
		b.CallAPI(n, dex.APIStrToInt, s)
		b.Return(n)
	})
	if err != nil || res.Int != 42 {
		t.Errorf("parseInt = %v", res)
	}
	res, _, err = h.run(func(b *dex.Builder) {
		s := b.Reg()
		b.ConstStr(s, "abc")
		h1 := b.Reg()
		b.CallAPI(h1, dex.APIStrHashCode, s)
		b.Return(h1)
	})
	if err != nil || res.Int != 96354 { // Java's "abc".hashCode()
		t.Errorf("hashCode = %v", res)
	}
	// Substring bounds fault.
	_, _, err = h.run(func(b *dex.Builder) {
		s := b.Reg()
		b.ConstStr(s, "ab")
		lo := b.Reg()
		b.ConstInt(lo, 0)
		hi := b.Reg()
		b.ConstInt(hi, 99)
		sub := b.Reg()
		b.CallAPI(sub, dex.APIStrSubstr, s, lo, hi)
		b.Return(sub)
	})
	if !IsRuntimeFault(err) {
		t.Errorf("oob substring: %v", err)
	}
	// charAt fault.
	_, _, err = h.run(func(b *dex.Builder) {
		s := b.Reg()
		b.ConstStr(s, "ab")
		i := b.Reg()
		b.ConstInt(i, 5)
		c := b.Reg()
		b.CallAPI(c, dex.APIStrCharAt, s, i)
		b.Return(c)
	})
	if !IsRuntimeFault(err) {
		t.Errorf("oob charAt: %v", err)
	}
}

func TestAPIResponsesRecordEvents(t *testing.T) {
	h := newAPIHarness(t)
	_, v, err := h.run(func(b *dex.Builder) {
		kb := b.Reg()
		b.ConstInt(kb, 128)
		b.CallAPI(-1, dex.APILeakMemory, kb)
		ms := b.Reg()
		b.ConstInt(ms, 500)
		b.CallAPI(-1, dex.APISpinLoop, ms)
		msg := b.Reg()
		b.ConstStr(msg, "beware")
		b.CallAPI(-1, dex.APIWarnUser, msg)
		info := b.Reg()
		b.ConstStr(info, "piracy!")
		b.CallAPI(-1, dex.APIReportPiracy, info)
		b.ReturnVoid()
	})
	if err != nil {
		t.Fatal(err)
	}
	if v.LeakKB() != 128 {
		t.Errorf("leak = %d", v.LeakKB())
	}
	events := v.Responses()
	if len(events) != 4 {
		t.Fatalf("events = %d", len(events))
	}
	kinds := map[ResponseKind]bool{}
	for _, e := range events {
		kinds[e.Kind] = true
	}
	for _, want := range []ResponseKind{RespLeak, RespFreeze, RespWarn, RespReport} {
		if !kinds[want] {
			t.Errorf("missing %s event", want)
		}
	}
	if got := v.Warnings(); len(got) != 1 || got[0] != "beware" {
		t.Errorf("warnings = %v", got)
	}
	if got := v.PiracyReports(); len(got) != 1 || got[0] != "piracy!" {
		t.Errorf("reports = %v", got)
	}
}

func TestAPIDelayedCrash(t *testing.T) {
	h := newAPIHarness(t)
	_, v, err := h.run(func(b *dex.Builder) {
		args := b.Regs(2)
		b.ConstInt(args, 2_000)
		b.ConstInt(args+1, int64(RespCrash))
		b.CallAPI(-1, dex.APIDelayBomb, args, args+1)
		b.ReturnVoid()
	})
	if err != nil {
		t.Fatal(err)
	}
	err = v.AdvanceIdle(5_000)
	if !IsCrash(err) {
		t.Errorf("delayed crash should fire on idle: %v", err)
	}
	if len(v.Responses()) != 1 || v.Responses()[0].Kind != RespCrash {
		t.Errorf("responses = %+v", v.Responses())
	}
}

func TestAPIArgumentValidation(t *testing.T) {
	h := newAPIHarness(t)
	// Wrong arg types fault rather than panic.
	for _, api := range []dex.API{
		dex.APIGetManifestDigest, dex.APIStegoExtract, dex.APIGetEnvStr,
		dex.APIGetEnvInt, dex.APIStrEquals, dex.APIStrConcat, dex.APIStrLen,
		dex.APIDeobfuscate,
	} {
		api := api
		_, _, err := h.run(func(b *dex.Builder) {
			x := b.Reg()
			b.ConstInt(x, 1) // int where a string is expected
			r := b.Reg()
			b.CallAPI(r, api, x)
			b.ReturnVoid()
		})
		if !IsRuntimeFault(err) {
			t.Errorf("%s with wrong args: %v", api.Name(), err)
		}
	}
	// decryptLoad with a bad blob index.
	_, _, err := h.run(func(b *dex.Builder) {
		args := b.Regs(3)
		b.ConstInt(args, 42) // no such blob
		b.ConstInt(args+1, 1)
		b.ConstStr(args+2, "salt")
		r := b.Reg()
		b.Emit(dex.Instr{Op: dex.OpCallAPI, A: r, B: args, C: 3, Imm: int64(dex.APIDecryptLoad)})
		b.ReturnVoid()
	})
	if !IsRuntimeFault(err) {
		t.Errorf("bad blob index: %v", err)
	}
	// invokePayload with a stale handle.
	_, _, err = h.run(func(b *dex.Builder) {
		hreg := b.Reg()
		b.ConstInt(hreg, 7) // not a handle kind
		b.CallAPI(-1, dex.APIInvokePayload, hreg)
		b.ReturnVoid()
	})
	if !IsRuntimeFault(err) {
		t.Errorf("bad handle: %v", err)
	}
}

func TestAPIDeobfuscateErrors(t *testing.T) {
	h := newAPIHarness(t)
	_, _, err := h.run(func(b *dex.Builder) {
		args := b.Regs(2)
		b.ConstStr(args, "zz-not-hex")
		b.ConstInt(args+1, 0x5A)
		r := b.Reg()
		b.Emit(dex.Instr{Op: dex.OpCallAPI, A: r, B: args, C: 2, Imm: int64(dex.APIDeobfuscate)})
		b.ReturnVoid()
	})
	if !IsRuntimeFault(err) {
		t.Errorf("bad hex: %v", err)
	}
}

func TestAPIRandAndSensors(t *testing.T) {
	h := newAPIHarness(t)
	res, _, err := h.run(func(b *dex.Builder) {
		bound := b.Reg()
		b.ConstInt(bound, 10)
		r := b.Reg()
		b.CallAPI(r, dex.APIRandInt, bound)
		b.Return(r)
	})
	if err != nil || res.Int < 0 || res.Int >= 10 {
		t.Errorf("randInt = %v, %v", res, err)
	}
	// randInt(0) is 0, not a fault.
	res, _, err = h.run(func(b *dex.Builder) {
		bound := b.Reg()
		b.ConstInt(bound, 0)
		r := b.Reg()
		b.CallAPI(r, dex.APIRandInt, bound)
		b.Return(r)
	})
	if err != nil || res.Int != 0 {
		t.Errorf("randInt(0) = %v, %v", res, err)
	}
	for _, api := range []dex.API{dex.APIGPSLatE6, dex.APIGPSLonE6, dex.APISensorLight, dex.APISensorTempC, dex.APITimeMillis, dex.APIRandPercent} {
		api := api
		if _, _, err := h.run(func(b *dex.Builder) {
			r := b.Reg()
			b.CallAPI(r, api)
			b.Return(r)
		}); err != nil {
			t.Errorf("%s: %v", api.Name(), err)
		}
	}
}

func TestLogCapAndContents(t *testing.T) {
	h := newAPIHarness(t)
	_, v, err := h.run(func(b *dex.Builder) {
		s := b.Reg()
		b.ConstStr(s, "line")
		i := b.Reg()
		lim := b.Reg()
		b.ConstInt(i, 0)
		b.ConstInt(lim, 50)
		b.Label("top")
		b.Branch(dex.OpIfGe, i, lim, "done")
		b.CallAPI(-1, dex.APILog, s)
		b.AddK(i, i, 1)
		b.Goto("top")
		b.Label("done")
		b.ReturnVoid()
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(v.Logs()); got != 50 {
		t.Errorf("logs = %d", got)
	}
	if !strings.HasPrefix(v.Logs()[0], "line") {
		t.Error("log content mangled")
	}
}

func TestReflectCallGuards(t *testing.T) {
	h := newAPIHarness(t)
	// Reflecting into reflectCall itself is rejected.
	_, _, err := h.run(func(b *dex.Builder) {
		n := b.Reg()
		b.ConstStr(n, "reflectCall")
		r := b.Reg()
		b.CallAPI(r, dex.APIReflectCall, n)
		b.ReturnVoid()
	})
	if !IsRuntimeFault(err) {
		t.Errorf("recursive reflection: %v", err)
	}
	var re *RuntimeError
	if !errors.As(err, &re) {
		t.Fatal("expected RuntimeError")
	}
}

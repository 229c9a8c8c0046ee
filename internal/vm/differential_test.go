package vm

import (
	"fmt"
	"math/rand"
	"testing"

	"bombdroid/internal/android"
	"bombdroid/internal/apk"
	"bombdroid/internal/appgen"
	"bombdroid/internal/dex"
	"bombdroid/internal/lockbox"
	"bombdroid/internal/obs"
)

// The differential harness: every behaviour the quickened interpreter
// exhibits must be byte-identical to the retained reference
// interpreter — results, error strings, step counts, virtual clock,
// traces, fault ledgers, responses, logs, profiles, obs opcode
// tallies, and static state. These tests drive paired VMs (one per
// path) through the appgen corpus, the payload lifecycle, the
// malformed-input classes, and random instruction streams, comparing
// after every Invoke. scripts/verify.sh runs them as the differential
// smoke (-run 'TestDifferential').

// diffPair is a quickened/reference VM pair over the same package.
type diffPair struct {
	q, r *VM
}

// newDiffPair installs pkg twice with identical options (bar the
// interpreter selection). Each VM gets its own device instance, and
// with withObs its own obs registry, so nothing is shared but the
// immutable image.
func newDiffPair(t *testing.T, pkg *apk.Package, opts Options, withObs bool) *diffPair {
	t.Helper()
	build := func(ref bool) *VM {
		o := opts
		o.Reference = ref
		if withObs {
			o.Obs = obs.NewRegistry()
		}
		v, err := New(pkg, android.EmulatorLab(1)[0], o)
		if err != nil {
			t.Fatalf("install (reference=%v): %v", ref, err)
		}
		return v
	}
	return &diffPair{q: build(false), r: build(true)}
}

// instrumentation is one way of watching a diff pair. Scenarios run
// three ways: watched (an obs registry and a trace ring), which sends
// the quickened VM to the reference interpreter as the debugger's VM
// is; obs only, which runs the quickened loop's tallying head as
// instrumented campaigns do; and bare (neither), which is how plain
// campaign sessions, fuzz.Profile and the benchmark run.
type instrumentation struct {
	name       string
	obs        bool
	traceDepth int
}

// allWays is the watched configuration at traceDepth, then the obs-only
// and the bare ones.
func allWays(traceDepth int) []instrumentation {
	return []instrumentation{{"watched", true, traceDepth}, {"obs", true, 0}, {"bare", false, 0}}
}

// valueEq compares two dex.Values structurally. Arrays compare by
// contents (the pointers necessarily differ across VMs), with a depth
// cap against self-referential arrays built by hostile code.
func valueEq(a, b dex.Value, depth int) bool {
	if a.Kind != b.Kind || a.Int != b.Int || a.Str() != b.Str() {
		return false
	}
	if a.Kind == dex.KindArr {
		if (a.Arr() == nil) != (b.Arr() == nil) {
			return false
		}
		if a.Arr() == nil {
			return true
		}
		if len(*a.Arr()) != len(*b.Arr()) {
			return false
		}
		if depth == 0 {
			return true
		}
		for i := range *a.Arr() {
			if !valueEq((*a.Arr())[i], (*b.Arr())[i], depth-1) {
				return false
			}
		}
	}
	return true
}

func errStr(err error) string {
	if err == nil {
		return "<nil>"
	}
	return err.Error()
}

// invoke drives one method on both VMs and asserts the per-call
// contract: same result, same error, same step count, same clock.
func (p *diffPair) invoke(t *testing.T, full string, args ...dex.Value) {
	t.Helper()
	qres, qerr := p.q.Invoke(full, args...)
	rres, rerr := p.r.Invoke(full, args...)
	if es, er := errStr(qerr), errStr(rerr); es != er {
		t.Fatalf("%s: errors diverge:\n  quickened: %s\n  reference: %s", full, es, er)
	}
	if !valueEq(qres, rres, 8) {
		t.Fatalf("%s: results diverge: quickened %v, reference %v", full, qres, rres)
	}
	if p.q.steps != p.r.steps {
		t.Fatalf("%s: step counts diverge: quickened %d, reference %d", full, p.q.steps, p.r.steps)
	}
	if p.q.NowTicks() != p.r.NowTicks() {
		t.Fatalf("%s: clocks diverge: quickened %d, reference %d", full, p.q.NowTicks(), p.r.NowTicks())
	}
}

// finish asserts the whole-session contract once a scenario is done.
func (p *diffPair) finish(t *testing.T) {
	t.Helper()
	// Obs opcode tallies, before any flush.
	if p.q.obsOps != nil || p.r.obsOps != nil {
		for op := range p.q.obsOps {
			if p.q.obsOps[op] != p.r.obsOps[op] {
				t.Errorf("obs op count for %s diverges: quickened %d, reference %d",
					dex.Op(op), p.q.obsOps[op], p.r.obsOps[op])
			}
		}
	}
	// Trace ring buffers.
	qt, rt := p.q.Trace(), p.r.Trace()
	if len(qt) != len(rt) {
		t.Fatalf("trace lengths diverge: quickened %d, reference %d", len(qt), len(rt))
	}
	for i := range qt {
		if qt[i] != rt[i] {
			t.Fatalf("trace[%d] diverges:\n  quickened: %+v\n  reference: %+v", i, qt[i], rt[i])
		}
	}
	// Fault ledger.
	qf, rf := p.q.Faults(), p.r.Faults()
	if len(qf) != len(rf) {
		t.Fatalf("fault ledgers diverge: quickened %d, reference %d", len(qf), len(rf))
	}
	for i := range qf {
		if qf[i] != rf[i] {
			t.Errorf("fault[%d] diverges:\n  quickened: %+v\n  reference: %+v", i, qf[i], rf[i])
		}
	}
	// Responses, logs, warnings, reports, leaks.
	qresp, rresp := p.q.Responses(), p.r.Responses()
	if len(qresp) != len(rresp) {
		t.Fatalf("response counts diverge: quickened %d, reference %d", len(qresp), len(rresp))
	}
	for i := range qresp {
		if qresp[i] != rresp[i] {
			t.Errorf("response[%d] diverges: %+v vs %+v", i, qresp[i], rresp[i])
		}
	}
	ql, rl := p.q.Logs(), p.r.Logs()
	if len(ql) != len(rl) {
		t.Fatalf("log lengths diverge: quickened %d, reference %d", len(ql), len(rl))
	}
	for i := range ql {
		if ql[i] != rl[i] {
			t.Errorf("log[%d] diverges: %q vs %q", i, ql[i], rl[i])
		}
	}
	if p.q.LeakKB() != p.r.LeakKB() {
		t.Errorf("leakKB diverges: %d vs %d", p.q.LeakKB(), p.r.LeakKB())
	}
	// Profile (method invocation counts).
	qp, rp := p.q.Profile(), p.r.Profile()
	if len(qp) != len(rp) {
		t.Errorf("profile sizes diverge: quickened %d, reference %d", len(qp), len(rp))
	}
	for k, n := range qp {
		if rp[k] != n {
			t.Errorf("profile[%s] diverges: quickened %d, reference %d", k, n, rp[k])
		}
	}
	// Static state: compare through the name-indexed view so slot
	// numbering differences (there should be none, but the contract is
	// about values) cannot mask a real divergence.
	for name := range p.q.staticIdx {
		if !valueEq(p.q.Static(name), p.r.Static(name), 8) {
			t.Errorf("static %q diverges: %v vs %v", name, p.q.Static(name), p.r.Static(name))
		}
	}
	for name := range p.q.staticExtra {
		if !valueEq(p.q.Static(name), p.r.Static(name), 8) {
			t.Errorf("static %q diverges: %v vs %v", name, p.q.Static(name), p.r.Static(name))
		}
	}
	// Bomb bookkeeping.
	qo, ro := p.q.OuterTriggered(), p.r.OuterTriggered()
	if fmt.Sprint(qo) != fmt.Sprint(ro) {
		t.Errorf("outer-trigger sets diverge: %v vs %v", qo, ro)
	}
	qd, rd := p.q.DetectionRuns(), p.r.DetectionRuns()
	if len(qd) != len(rd) {
		t.Errorf("detection-run maps diverge: %v vs %v", qd, rd)
	}
	for k, n := range qd {
		if rd[k] != n {
			t.Errorf("detectionRuns[%s] diverges: %d vs %d", k, n, rd[k])
		}
	}
}

// signApp wraps a dex file into a signed package.
func signApp(t *testing.T, name string, f *dex.File) *apk.Package {
	t.Helper()
	key, err := apk.NewKeyPair(31)
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := apk.Sign(apk.Build(name, f, apk.Resources{Strings: []string{"s"}}), key)
	if err != nil {
		t.Fatal(err)
	}
	return pkg
}

// TestDifferentialCorpus executes a cross-section of the appgen corpus
// (one app per Table 1 category) on both interpreter paths: every init
// method, then a deterministic pseudo-random event storm over the
// app's handler surface with idle gaps — the same shape sim sessions
// drive.
func TestDifferentialCorpus(t *testing.T) {
	var apps []*appgen.App
	if err := appgen.SampleCorpus(1, func(a *appgen.App) error {
		apps = append(apps, a)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(apps) != len(appgen.Categories) {
		t.Fatalf("sampled %d apps, want one per category (%d)", len(apps), len(appgen.Categories))
	}
	for _, app := range apps {
		t.Run(app.Name, func(t *testing.T) {
			for _, way := range allWays(128) {
				t.Run(way.name, func(t *testing.T) {
					pkg := signApp(t, app.Name, app.File)
					p := newDiffPair(t, pkg, Options{Seed: 11, Profile: true, TraceDepth: way.traceDepth}, way.obs)
					for _, init := range p.q.InitMethods() {
						p.invoke(t, init)
					}
					handlers := p.q.Handlers()
					if len(handlers) == 0 {
						t.Fatal("corpus app has no handlers")
					}
					rng := rand.New(rand.NewSource(app.Config.Seed))
					dom := app.Config.ParamDomain
					if dom <= 0 {
						dom = 16
					}
					for ev := 0; ev < 120; ev++ {
						h := handlers[rng.Intn(len(handlers))]
						p.invoke(t, h, dex.Int64(rng.Int63n(dom)), dex.Int64(rng.Int63n(dom)))
						gap := 200 + rng.Int63n(500)
						if err1, err2 := p.q.AdvanceIdle(gap), p.r.AdvanceIdle(gap); errStr(err1) != errStr(err2) {
							t.Fatalf("AdvanceIdle errors diverge: %v vs %v", err1, err2)
						}
					}
					p.finish(t)
				})
			}
		})
	}
}

// TestDifferentialPayload executes the full bomb lifecycle — sealed
// decrypt, payload quickening at runtime, detection check, crash
// response — on both paths, over both the clean and the repackaged
// package.
func TestDifferentialPayload(t *testing.T) {
	f, _ := buildTestApp(t)
	for _, repackaged := range []bool{false, true} {
		name := "clean"
		if repackaged {
			name = "repackaged"
		}
		t.Run(name, func(t *testing.T) {
			for _, way := range allWays(256) {
				t.Run(way.name, func(t *testing.T) {
					diffPayload(t, f, repackaged, way)
				})
			}
		})
	}
}

// diffPayload is one TestDifferentialPayload scenario.
func diffPayload(t *testing.T, f *dex.File, repackaged bool, way instrumentation) {
	pkg := payloadPackage(t, f, repackaged)
	p := newDiffPair(t, pkg, Options{Seed: 7, Profile: true, TraceDepth: way.traceDepth}, way.obs)
	p.invoke(t, "App.add", dex.Int64(20), dex.Int64(22))
	p.invoke(t, "App.classify", dex.Int64(2))
	p.invoke(t, "App.classify", dex.Int64(99))
	p.invoke(t, "App.bump")
	p.invoke(t, "App.bump")
	p.invoke(t, "App.sum3")
	p.invoke(t, "App.greet", dex.Str("user"))
	p.invoke(t, "App.callAdd")
	p.invoke(t, "App.readEnv")
	p.invoke(t, "App.armBomb", dex.Int64(5))    // wrong constant: bomb stays sealed
	p.invoke(t, "App.armBomb", dex.Int64(1234)) // true constant: decrypt + detonate path
	p.invoke(t, "App.add", dex.Int64(1))        // arity mismatch fault
	p.invoke(t, "App.spin")                     // budget exhaustion
	p.invoke(t, "App.recurse")                  // depth exhaustion
	p.invoke(t, "App.nope")                     // no such method
	p.finish(t)
}

// payloadPackage signs the payload test app under the developer key
// its bomb checks for, and repackages it under an attacker key when
// asked.
func payloadPackage(t *testing.T, f *dex.File, repackaged bool) *apk.Package {
	devKey, err := apk.NewKeyPair(101)
	if err != nil {
		t.Fatal(err)
	}
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
	return pkg
}

// TestDifferentialPayloadFailClosed pins the fault-ledger parity when
// a corrupted sealed blob degrades gracefully under FailClosed.
func TestDifferentialPayloadFailClosed(t *testing.T) {
	f, _ := buildTestApp(t)
	devKey, err := apk.NewKeyPair(101)
	if err != nil {
		t.Fatal(err)
	}
	patched := patchPayloadKey(t, f, devKey.PublicKeyHex())
	pkg, err := apk.Sign(apk.Build("test.app", patched, apk.Resources{
		Strings: []string{"x"}, Author: "dev", Icon: []byte{1},
	}), devKey)
	if err != nil {
		t.Fatal(err)
	}
	corrupt := func(blob int64, sealed []byte) []byte {
		bad := append([]byte(nil), sealed...)
		if len(bad) > 0 {
			bad[len(bad)/2] ^= 0xFF
		}
		return bad
	}
	p := newDiffPair(t, pkg, Options{Seed: 7, FailClosed: true, BlobFault: corrupt}, true)
	p.invoke(t, "App.armBomb", dex.Int64(1234))
	p.invoke(t, "App.forceDecrypt", dex.Int64(0))
	if len(p.q.Faults()) == 0 {
		t.Fatal("corrupted blob produced no ledgered fault")
	}
	p.finish(t)
}

// TestDifferentialMalformed runs the malformed-input classes from the
// fuzz suite on both paths with obs on: faults and opcode tallies must
// match byte-for-byte, including the contained-panic cases.
func TestDifferentialMalformed(t *testing.T) {
	cases := map[string]*dex.File{
		"register out of range": badFile(1, []dex.Instr{
			{Op: dex.OpConstInt, A: 100, B: -1, C: -1, Imm: 7},
			{Op: dex.OpReturnVoid},
		}),
		"negative register": badFile(2, []dex.Instr{
			{Op: dex.OpMove, A: -5, B: 0, C: -1},
			{Op: dex.OpReturnVoid},
		}),
		"branch target out of range": badFile(1, []dex.Instr{
			{Op: dex.OpGoto, A: -1, B: -1, C: 999},
		}),
		"negative branch target": badFile(1, []dex.Instr{
			{Op: dex.OpGoto, A: -1, B: -1, C: -7},
		}),
		"arg window outside frame": badFile(2, []dex.Instr{
			{Op: dex.OpCallAPI, A: -1, B: 1, C: 40, Imm: int64(dex.APILog)},
			{Op: dex.OpReturnVoid},
		}),
		"huge register count": badFile(1<<30, []dex.Instr{
			{Op: dex.OpReturnVoid},
		}),
		"missing switch table": badFile(1, []dex.Instr{
			{Op: dex.OpConstInt, A: 0, B: -1, C: -1, Imm: 3},
			{Op: dex.OpSwitch, A: 0, B: -1, C: -1, Imm: 9},
			{Op: dex.OpReturnVoid},
		}),
		"switch target out of range": badFile(1, []dex.Instr{
			{Op: dex.OpConstInt, A: 0, B: -1, C: -1, Imm: 3},
			{Op: dex.OpSwitch, A: 0, B: -1, C: -1, Imm: 0},
			{Op: dex.OpReturnVoid},
		}, dex.SwitchTable{Cases: []dex.SwitchCase{{Match: 3, Target: 500}}, Default: -2}),
		"truncated method body": badFile(1, []dex.Instr{
			{Op: dex.OpConstInt, A: 0, B: -1, C: -1, Imm: 1},
		}),
		"unresolved invoke": badFile(2, []dex.Instr{
			{Op: dex.OpInvoke, A: -1, B: 0, C: 0, Imm: 12345},
			{Op: dex.OpReturnVoid},
		}),
		"invalid opcode": badFile(1, []dex.Instr{
			{Op: dex.Op(200), A: 0, B: 0, C: 0},
			{Op: dex.OpReturnVoid},
		}),
		"type confusion arith": badFile(2, []dex.Instr{
			{Op: dex.OpConstStr, A: 0, B: -1, C: -1, Imm: 0},
			{Op: dex.OpAdd, A: 1, B: 0, C: 0},
			{Op: dex.OpReturnVoid},
		}),
		"cost-only call into register out of range": badFile(2, []dex.Instr{
			{Op: dex.OpCallAPI, A: 9, B: 0, C: 1, Imm: int64(dex.APIUIDraw)},
			{Op: dex.OpReturnVoid},
		}),
		"division by zero": badFile(2, []dex.Instr{
			{Op: dex.OpConstInt, A: 0, B: -1, C: -1, Imm: 0},
			{Op: dex.OpDiv, A: 1, B: 0, C: 0},
			{Op: dex.OpReturnVoid},
		}),
	}
	for name, file := range cases {
		file := file
		t.Run(name, func(t *testing.T) {
			// Via fuzzVM: no validation, quickening over raw garbage.
			// Obs is on, so the quickened VM tallies runs and an
			// opcode past dex.NumOps panics at the reference step.
			vq := fuzzVM(file, Options{Obs: obs.NewRegistry()})
			vr := fuzzVM(file, Options{Obs: obs.NewRegistry(), Reference: true})
			qres, qerr := vq.Invoke("Bad.m")
			rres, rerr := vr.Invoke("Bad.m")
			if errStr(qerr) != errStr(rerr) {
				t.Fatalf("errors diverge:\n  quickened: %s\n  reference: %s", errStr(qerr), errStr(rerr))
			}
			if !valueEq(qres, rres, 8) {
				t.Fatalf("results diverge: %v vs %v", qres, rres)
			}
			if vq.steps != vr.steps || vq.NowTicks() != vr.NowTicks() {
				t.Fatalf("accounting diverges: steps %d/%d, ticks %d/%d",
					vq.steps, vr.steps, vq.NowTicks(), vr.NowTicks())
			}
			for op := range vq.obsOps {
				if vq.obsOps[op] != vr.obsOps[op] {
					t.Fatalf("obs op count for %s diverges: %d vs %d", dex.Op(op), vq.obsOps[op], vr.obsOps[op])
				}
			}
		})
	}
}

// TestDifferentialRandomCode sweeps random instruction streams —
// including invalid opcodes, out-of-range registers, wild branch
// targets, and accidental fusable dyads — through both paths. This is
// the fuzz-seed leg of the harness: quickening must be a total,
// semantics-preserving rewrite over arbitrary input.
func TestDifferentialRandomCode(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	const numFiles = 60
	for fi := 0; fi < numFiles; fi++ {
		file := randomFile(rng)
		for _, way := range allWays(64) {
			diffRandomFile(t, fmt.Sprintf("file %d %s", fi, way.name), file, way)
		}
	}
}

// randomFile is one random Bad.m of 4 to 27 instructions over six
// registers, with operands a little past every range.
func randomFile(rng *rand.Rand) *dex.File {
	n := 4 + rng.Intn(24)
	code := make([]dex.Instr, n)
	for i := range code {
		code[i] = dex.Instr{
			Op:  dex.Op(rng.Intn(dex.NumOps + 3)), // a bit past opMax: invalid ops too
			A:   int32(rng.Intn(10) - 2),
			B:   int32(rng.Intn(10) - 2),
			C:   int32(rng.Intn(n+6) - 3),
			Imm: int64(rng.Intn(20) - 4),
		}
	}
	var tables []dex.SwitchTable
	if rng.Intn(2) == 0 {
		tables = append(tables, dex.SwitchTable{
			Cases: []dex.SwitchCase{
				{Match: int64(rng.Intn(6)), Target: int32(rng.Intn(n+4) - 2)},
				{Match: int64(rng.Intn(6)), Target: int32(rng.Intn(n+4) - 2)},
			},
			Default: int32(rng.Intn(n+4) - 2),
		})
	}
	return badFile(6, code, tables...)
}

// buildCostApp is a method heavy in cost-only framework calls:
// render(n) loops n times over uiDraw/playSound/vibrate, branching on
// the results, so a hook that returns non-nil changes control flow.
// tap() reaches render through an invoke and a reflective vibrate.
func buildCostApp(t *testing.T) *dex.File {
	t.Helper()
	f := dex.NewFile()
	app := &dex.Class{Name: "App"}
	b := dex.NewBuilder(f, "render", 1)
	i, acc, res := b.Reg(), b.Reg(), b.Reg()
	b.ConstInt(i, 0)
	b.ConstInt(acc, 0)
	b.ConstStr(res, "stale") // overwritten by the first call's nil
	b.Label("loop")
	b.Branch(dex.OpIfGe, i, 0, "done")
	b.CallAPI(res, dex.APIUIDraw, i)
	b.BranchZ(dex.OpIfEqz, res, "quiet")
	b.AddK(acc, acc, 100)
	b.Label("quiet")
	b.CallAPI(-1, dex.APIPlaySound, i)
	b.CallAPI(res, dex.APIVibrate, i)
	b.BranchZ(dex.OpIfEqz, res, "next")
	b.AddK(acc, acc, 1)
	b.Label("next")
	b.AddK(i, i, 1)
	b.Goto("loop")
	b.Label("done")
	b.Return(acc)
	app.AddMethod(b.MustFinish())

	b = dex.NewBuilder(f, "tap", 0)
	n, out, name := b.Reg(), b.Reg(), b.Reg()
	b.ConstInt(n, 7)
	b.Invoke(out, "App.render", n)
	b.ConstStr(name, "vibrate")
	b.CallAPI(res, dex.APIReflectCall, name, n)
	b.Return(out)
	app.AddMethod(b.MustFinish())
	if err := f.AddClass(app); err != nil {
		t.Fatal(err)
	}
	return f
}

// TestDifferentialCostOnlyCalls pins the quickened cost-only call
// (qCallAPINop) to the reference interpreter in the three states it
// distinguishes: nothing watching, an observer installed between two
// Invokes, and a hook on vibrate that substitutes a non-nil result for
// some calls and declines others.
func TestDifferentialCostOnlyCalls(t *testing.T) {
	pkg := signApp(t, "cost.app", buildCostApp(t))
	opts := Options{Seed: 3, Profile: true, TraceDepth: 64}

	t.Run("quickened", func(t *testing.T) {
		p := newDiffPair(t, pkg, opts, true)
		nops := 0
		for _, in := range p.q.app.q.byName["App.render"].code {
			if in.op == qCallAPINop {
				nops++
			}
		}
		if nops != 3 {
			t.Fatalf("render has %d qCallAPINop instructions, want 3", nops)
		}
	})
	t.Run("no hooks", func(t *testing.T) {
		p := newDiffPair(t, pkg, opts, true)
		p.invoke(t, "App.render", dex.Int64(40))
		p.invoke(t, "App.tap")
		p.finish(t)
	})
	t.Run("observer between invokes", func(t *testing.T) {
		p := newDiffPair(t, pkg, opts, true)
		p.invoke(t, "App.render", dex.Int64(25))
		var seen [2][]string
		for k, v := range []*VM{p.q, p.r} {
			k := k
			v.Observe(func(c APICall) {
				seen[k] = append(seen[k], fmt.Sprint(c.API.Name(), c.Args, c.InPayload, c.Method))
			})
		}
		p.invoke(t, "App.render", dex.Int64(25))
		p.invoke(t, "App.tap")
		if len(seen[0]) != 3*25+3*7+2 {
			t.Fatalf("observer saw %d calls, want %d", len(seen[0]), 3*25+3*7+2)
		}
		if fmt.Sprint(seen[0]) != fmt.Sprint(seen[1]) {
			t.Fatalf("observed calls diverge:\n  quickened: %v\n  reference: %v", seen[0], seen[1])
		}
		p.finish(t)
	})
	t.Run("hook returns non-nil", func(t *testing.T) {
		p := newDiffPair(t, pkg, opts, true)
		p.invoke(t, "App.render", dex.Int64(10))
		for _, v := range []*VM{p.q, p.r} {
			v.Hook(dex.APIVibrate, func(c APICall) (dex.Value, bool, error) {
				if len(c.Args) == 1 && c.Args[0].Int%3 == 0 {
					return dex.Int64(9), true, nil
				}
				return dex.Nil(), false, nil
			})
		}
		p.invoke(t, "App.render", dex.Int64(30))
		p.invoke(t, "App.tap")
		if got, _ := p.q.Invoke("App.render", dex.Int64(6)); got.Int != 2 {
			t.Fatalf("hooked render(6) = %v, want 2 (vibrate hooked at i=0 and i=3)", got)
		}
		p.r.Invoke("App.render", dex.Int64(6))
		for _, v := range []*VM{p.q, p.r} {
			v.Unhook(dex.APIVibrate)
		}
		p.invoke(t, "App.render", dex.Int64(10))
		p.finish(t)
	})
}

// TestDifferentialProfileShadowedName covers the profile merge: the
// quickened path counts app methods in dense slots and payload methods
// by name, so a payload method shadowing an app method's name must add
// into the same profile entry, as in the reference's single map.
func TestDifferentialProfileShadowedName(t *testing.T) {
	pf := dex.NewFile()
	shadow := &dex.Class{Name: "App"}
	pb := dex.NewBuilder(pf, "bump", 0)
	pb.ReturnVoid()
	shadow.AddMethod(pb.MustFinish())
	entry := &dex.Class{Name: "P"}
	pb = dex.NewBuilder(pf, "run", 0)
	pb.Invoke(-1, "App.bump") // resolves to the payload's own App.bump
	pb.ReturnVoid()
	entry.AddMethod(pb.MustFinish())
	for _, c := range []*dex.Class{shadow, entry} {
		if err := pf.AddClass(c); err != nil {
			t.Fatal(err)
		}
	}
	sealed, err := lockbox.SealValue(dex.Encode(pf), dex.Int64(5), "s")
	if err != nil {
		t.Fatal(err)
	}

	f := dex.NewFile()
	app := &dex.Class{Name: "App"}
	blob := f.AddBlob(sealed)
	b := dex.NewBuilder(f, "bump", 0)
	b.ReturnVoid()
	app.AddMethod(b.MustFinish())
	b = dex.NewBuilder(f, "fire", 0)
	args := b.Regs(3)
	b.ConstInt(args, blob)
	b.ConstInt(args+1, 5)
	b.ConstStr(args+2, "s")
	h := b.Reg()
	b.CallAPI(h, dex.APIDecryptLoad, args, args+1, args+2)
	b.CallAPI(-1, dex.APIInvokePayload, h)
	b.Invoke(-1, "App.bump")
	b.ReturnVoid()
	app.AddMethod(b.MustFinish())
	if err := f.AddClass(app); err != nil {
		t.Fatal(err)
	}

	p := newDiffPair(t, signApp(t, "shadow.app", f), Options{Seed: 1, Profile: true}, true)
	p.invoke(t, "App.fire")
	p.invoke(t, "App.fire")
	if got := p.q.Profile()["App.bump"]; got != 4 {
		t.Fatalf("profile[App.bump] = %d, want 4 (2 app + 2 payload)", got)
	}
	p.finish(t)
	for _, v := range []*VM{p.q, p.r} {
		v.ResetProfile()
	}
	p.invoke(t, "App.bump")
	if got := p.q.Profile(); len(got) != 1 || got["App.bump"] != 1 {
		t.Fatalf("profile after reset = %v, want only App.bump:1", got)
	}
	p.finish(t)
}

// diffRandomFile runs one random file's Bad.m on both paths and
// compares result, error, accounting, trace and, with obs on, the obs
// opcode tallies.
func diffRandomFile(t *testing.T, name string, file *dex.File, way instrumentation) {
	t.Helper()
	opts := Options{MaxSteps: 2_000, MaxDepth: 8, TraceDepth: way.traceDepth}
	build := func(ref bool) *VM {
		o := opts
		o.Reference = ref
		if way.obs {
			o.Obs = obs.NewRegistry()
		}
		return fuzzVM(file, o)
	}
	vq, vr := build(false), build(true)
	qres, qerr := vq.Invoke("Bad.m")
	rres, rerr := vr.Invoke("Bad.m")
	code := file.Methods()[0].Code
	if errStr(qerr) != errStr(rerr) {
		t.Fatalf("%s: errors diverge:\n  quickened: %s\n  reference: %s\n  code: %+v",
			name, errStr(qerr), errStr(rerr), code)
	}
	if !valueEq(qres, rres, 8) {
		t.Fatalf("%s: results diverge: %v vs %v\n  code: %+v", name, qres, rres, code)
	}
	if vq.steps != vr.steps || vq.NowTicks() != vr.NowTicks() {
		t.Fatalf("%s: accounting diverges: steps %d/%d ticks %d/%d\n  code: %+v",
			name, vq.steps, vr.steps, vq.NowTicks(), vr.NowTicks(), code)
	}
	qt, rt := vq.Trace(), vr.Trace()
	if len(qt) != len(rt) {
		t.Fatalf("%s: trace lengths diverge: %d vs %d", name, len(qt), len(rt))
	}
	for i := range qt {
		if qt[i] != rt[i] {
			t.Fatalf("%s: trace[%d] diverges: %+v vs %+v", name, i, qt[i], rt[i])
		}
	}
	for op := range vq.obsOps {
		if vq.obsOps[op] != vr.obsOps[op] {
			t.Fatalf("%s: obs op count for %s diverges: %d vs %d", name, dex.Op(op), vq.obsOps[op], vr.obsOps[op])
		}
	}
}

// buildEnvApp reads the device through getEnvInt/getEnvString of
// constant names, the pattern inner triggers compile to: sense() sums
// api_level, a jittered light_lux and the length of cpu_abi, and adds
// 1000 when cpu_abi is "x86". A name outside the catalog stays a plain
// call.
func buildEnvApp(t *testing.T) *dex.File {
	t.Helper()
	f := dex.NewFile()
	app := &dex.Class{Name: "App"}
	b := dex.NewBuilder(f, "sense", 0)
	name, acc, x, want := b.Reg(), b.Reg(), b.Reg(), b.Reg()
	b.ConstStr(name, "api_level")
	b.CallAPI(acc, dex.APIGetEnvInt, name)
	b.ConstStr(name, "light_lux")
	b.CallAPI(x, dex.APIGetEnvInt, name)
	b.Arith(dex.OpAdd, acc, acc, x)
	b.ConstStr(name, "cpu_abi")
	b.CallAPI(x, dex.APIGetEnvStr, name)
	b.ConstStr(want, "x86")
	b.Branch(dex.OpIfNe, x, want, "other")
	b.AddK(acc, acc, 1000)
	b.Label("other")
	b.CallAPI(x, dex.APIStrLen, x)
	b.Arith(dex.OpAdd, acc, acc, x)
	b.ConstStr(name, "no_such_var")
	b.CallAPI(x, dex.APIGetEnvInt, name)
	b.Arith(dex.OpAdd, acc, acc, x)
	b.Return(acc)
	app.AddMethod(b.MustFinish())
	if err := f.AddClass(app); err != nil {
		t.Fatal(err)
	}
	return f
}

// TestDifferentialEnvReads pins the quickened env read (qEnvInt,
// qEnvStr) to the reference interpreter with nothing watching, with an
// observer, and with hooks installed after the image was quickened
// that misreport the device, as chaos campaigns do.
func TestDifferentialEnvReads(t *testing.T) {
	pkg := signApp(t, "env.app", buildEnvApp(t))
	for _, way := range allWays(64) {
		t.Run(way.name, func(t *testing.T) {
			diffEnvReads(t, pkg, way)
		})
	}
}

// diffEnvReads is one TestDifferentialEnvReads scenario.
func diffEnvReads(t *testing.T, pkg *apk.Package, way instrumentation) {
	p := newDiffPair(t, pkg, Options{Seed: 5, Profile: true, TraceDepth: way.traceDepth}, way.obs)
	fused := 0
	for _, in := range p.q.app.q.byName["App.sense"].code {
		if in.op == qEnvInt || in.op == qEnvStr {
			fused++
		}
	}
	if fused != 3 {
		t.Fatalf("sense has %d fused env reads, want 3 (the unknown name stays a call)", fused)
	}
	for i := 0; i < 5; i++ {
		p.invoke(t, "App.sense")
	}
	var seen [2][]string
	for k, v := range []*VM{p.q, p.r} {
		k := k
		v.Observe(func(c APICall) {
			seen[k] = append(seen[k], fmt.Sprint(c.API.Name(), c.Args, c.Method))
		})
	}
	p.invoke(t, "App.sense")
	if len(seen[0]) != 5 || fmt.Sprint(seen[0]) != fmt.Sprint(seen[1]) {
		t.Fatalf("observed calls diverge or miss env reads:\n  quickened: %v\n  reference: %v", seen[0], seen[1])
	}
	for _, v := range []*VM{p.q, p.r} {
		v.Hook(dex.APIGetEnvInt, func(c APICall) (dex.Value, bool, error) {
			if c.Args[0].Str() == "api_level" {
				return dex.Int64(100_000), true, nil
			}
			return dex.Nil(), false, nil
		})
		v.Hook(dex.APIGetEnvStr, func(c APICall) (dex.Value, bool, error) {
			return dex.Str("x86"), true, nil
		})
	}
	got, err := p.q.Invoke("App.sense")
	if err != nil || got.Int < 101_003 {
		t.Fatalf("hooked sense() = %v, %v; want api_level 100000, cpu_abi x86", got, err)
	}
	p.r.Invoke("App.sense")
	p.invoke(t, "App.sense")
	p.finish(t)
}

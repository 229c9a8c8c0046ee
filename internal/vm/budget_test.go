package vm

import (
	"fmt"
	"math/rand"
	"testing"

	"bombdroid/internal/android"
	"bombdroid/internal/apk"
	"bombdroid/internal/appgen"
	"bombdroid/internal/dex"
	"bombdroid/internal/obs"
)

// sweepCase is one scenario of the budget sweep: a fresh VM over img
// runs one method.
type sweepCase struct {
	name   string
	img    *image
	pkg    *apk.Package
	method string
	args   []dex.Value
	opts   Options
}

// pkgCase is a sweep case over an installed package.
func pkgCase(t *testing.T, name string, pkg *apk.Package, method string, args []dex.Value, opts Options) *sweepCase {
	t.Helper()
	img, err := loadImage(pkg.Dex)
	if err != nil {
		t.Fatal(err)
	}
	return &sweepCase{name: name, img: img, pkg: pkg, method: method, args: args, opts: opts}
}

// vm builds the scenario's VM under maxSteps, on the reference or the
// quickened interpreter, instrumented as way says.
func (c *sweepCase) vm(maxSteps int64, ref bool, way instrumentation) *VM {
	o := c.opts
	o.MaxSteps, o.Reference, o.TraceDepth = maxSteps, ref, way.traceDepth
	if way.obs {
		o.Obs = obs.NewRegistry()
	}
	return newVM(c.img, c.pkg, android.EmulatorLab(1)[0], o)
}

// sweepBudgets lists the budgets a scenario runs under: every budget
// from 1 to its reference step count plus one, up to dense, then a
// stride that reaches the step count in about 16 more runs. The
// reference step count and the one past it, where the call first
// completes, are always included.
func sweepBudgets(steps int64, dense int64) []int64 {
	var out []int64
	top := steps + 1
	for b := int64(1); b <= top && b <= dense; b++ {
		out = append(out, b)
	}
	if top > dense {
		stride := (top-dense)/16 + 1
		for b := dense + stride; b < steps; b += stride {
			out = append(out, b)
		}
		out = append(out, steps, top)
	}
	return out
}

// sweep runs c under every budget of sweepBudgets, each of allWays,
// on both interpreters and asserts the diff-pair contract after each.
func (c *sweepCase) sweep(t *testing.T, dense int64) {
	t.Helper()
	ref := c.vm(c.opts.MaxSteps, true, instrumentation{})
	ref.Invoke(c.method, c.args...)
	var budget int64
	var way instrumentation
	defer func() {
		// Runs on t.Fatal too, which the diff-pair checks call.
		if t.Failed() {
			t.Logf("%s failed at MaxSteps %d (%s)", c.name, budget, way.name)
		}
	}()
	for _, budget = range sweepBudgets(ref.steps, dense) {
		for _, way = range allWays(32) {
			p := &diffPair{q: c.vm(budget, false, way), r: c.vm(budget, true, way)}
			p.invoke(t, c.method, c.args...)
			p.finish(t)
			if t.Failed() {
				return
			}
		}
	}
}

// TestDifferentialBudgetSweep moves the step budget across every
// instruction of a run, so that it runs out inside straight-line runs
// the block loop charges whole, between the halves of fused pairs, at
// calls and inside payloads: the quickened VM must stop at the
// reference step with the reference clock, error, statics, responses
// and trace. Inputs are a sample of the corpus's methods, the payload
// suite, random code that stays inside its frame, and a type fault in
// the middle of a run. Under the race detector, which slows the
// reference interpreter about tenfold, the corpus and random samples
// are smaller.
func TestDifferentialBudgetSweep(t *testing.T) {
	corpusStride, randomFiles := 64, 16
	if raceEnabled {
		corpusStride, randomFiles = 512, 4
	}
	var cases []*sweepCase
	if err := appgen.SampleCorpus(1, func(a *appgen.App) error {
		pkg := signApp(t, a.Name, a.File)
		for i, m := range a.File.Methods() {
			if i%corpusStride != 0 {
				continue
			}
			args := make([]dex.Value, m.NumArgs)
			for k := range args {
				args[k] = dex.Int64(int64(k + 1))
			}
			cases = append(cases, pkgCase(t, m.FullName(), pkg, m.FullName(), args, Options{Seed: 3, Profile: true}))
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}

	f, _ := buildTestApp(t)
	for _, repackaged := range []bool{false, true} {
		pkg := payloadPackage(t, f, repackaged)
		for _, call := range []struct {
			method string
			args   []dex.Value
		}{
			{"App.add", []dex.Value{dex.Int64(20), dex.Int64(22)}},
			{"App.classify", []dex.Value{dex.Int64(2)}},
			{"App.sum3", nil},
			{"App.greet", []dex.Value{dex.Str("user")}},
			{"App.callAdd", nil},
			{"App.readEnv", nil},
			{"App.armBomb", []dex.Value{dex.Int64(1234)}},
			{"App.recurse", nil},
		} {
			for _, failClosed := range []bool{false, true} {
				cases = append(cases, pkgCase(t,
					fmt.Sprintf("%s repackaged=%v failClosed=%v", call.method, repackaged, failClosed),
					pkg, call.method, call.args, Options{Seed: 7, Profile: true, FailClosed: failClosed}))
			}
		}
	}

	rng := rand.New(rand.NewSource(1234))
	for fi := 0; fi < randomFiles; fi++ {
		cases = append(cases, fileCase(fmt.Sprintf("random file %d", fi), runnableFile(rng)))
	}

	// const-int r0; const-str r1; add r2 = r0 + r1 faults at pc 2 in
	// the middle of the run pc 0..5, which the block loop charged
	// whole: it must take back pcs 3 to 5.
	midRun := fileCase("type fault mid-run", badFile(4, []dex.Instr{
		{Op: dex.OpConstInt, A: 0, B: -1, C: -1, Imm: 5},
		{Op: dex.OpConstStr, A: 1, B: -1, C: -1, Imm: 0},
		{Op: dex.OpAdd, A: 2, B: 0, C: 1},
		{Op: dex.OpConstInt, A: 3, B: -1, C: -1, Imm: 1},
		{Op: dex.OpAddK, A: 3, B: 3, C: -1, Imm: 1},
		{Op: dex.OpReturn, A: 3, B: -1, C: -1},
	}))
	if qm := midRun.img.unit.q.byName["Bad.m"]; qm.perInstr || qm.code[0].run != 6 || qm.code[2].run != 4 {
		t.Fatalf("mid-run case: perInstr %v, runs %d/%d, want false, 6/4", qm.perInstr, qm.code[0].run, qm.code[2].run)
	}
	v := midRun.vm(0, false, instrumentation{})
	if _, err := v.Invoke("Bad.m"); !IsRuntimeFault(err) || v.steps != 3 || v.NowTicks() != 3 {
		t.Fatalf("mid-run type fault: err %v, steps %d, ticks %d; want a runtime fault at 3 steps and ticks",
			err, v.steps, v.NowTicks())
	}
	cases = append(cases, midRun)

	// A loop whose head, pc 2, is the second half of the fused pair
	// const-int; add at pc 1: entering at pc 2 charges its own run,
	// pcs 2 to 4, and falling into the pair charges pcs 1 to 4.
	intoPair := fileCase("jump into a fused pair", badFile(3, []dex.Instr{
		{Op: dex.OpConstInt, A: 2, B: -1, C: -1, Imm: 0},
		{Op: dex.OpConstInt, A: 0, B: -1, C: -1, Imm: 3},
		{Op: dex.OpAdd, A: 1, B: 0, C: 0},
		{Op: dex.OpAddK, A: 2, B: 2, C: -1, Imm: 1},
		{Op: dex.OpIfLt, A: 2, B: 0, C: 2},
		{Op: dex.OpReturn, A: 1, B: -1, C: -1},
	}))
	if qm := intoPair.img.unit.q.byName["Bad.m"]; qm.code[1].op != qFuseConstArith || qm.code[1].run != 4 || qm.code[2].run != 3 {
		t.Fatalf("fused-pair case: pc 1 op %d run %d, pc 2 run %d; want qFuseConstArith, 4, 3",
			qm.code[1].op, qm.code[1].run, qm.code[2].run)
	}
	cases = append(cases, intoPair)

	for _, c := range cases {
		c.sweep(t, 2_000)
	}
}

// fileCase is a sweep case over unvalidated code, with the fuzz
// harness's options.
func fileCase(name string, f *dex.File) *sweepCase {
	return &sweepCase{name: name, img: buildImage(f), pkg: &apk.Package{Name: "fuzz"}, method: "Bad.m",
		opts: Options{MaxSteps: 2_000, MaxDepth: 8, Seed: 1}}
}

// runnableFile is a random Bad.m whose registers and branch targets
// stay in range, so it runs on the block loop, and whose backward
// branches often loop until a fault or the budget stops it.
func runnableFile(rng *rand.Rand) *dex.File {
	n := 6 + rng.Intn(20)
	code := make([]dex.Instr, n)
	for i := range code {
		op := dex.Op(rng.Intn(dex.NumOps))
		in := dex.Instr{Op: op, A: int32(rng.Intn(6)), B: int32(rng.Intn(6)), C: int32(rng.Intn(6)),
			Imm: int64(rng.Intn(8))}
		if op.IsIfCmp() || op == dex.OpIfEqz || op == dex.OpIfNez || op == dex.OpGoto {
			in.C = int32(rng.Intn(n + 1))
		}
		code[i] = in
	}
	table := dex.SwitchTable{
		Cases:   []dex.SwitchCase{{Match: 1, Target: int32(rng.Intn(n))}, {Match: 3, Target: int32(rng.Intn(n))}},
		Default: int32(rng.Intn(n + 1)),
	}
	return badFile(6, code, table)
}

package vm

import (
	"testing"

	"bombdroid/internal/android"
	"bombdroid/internal/apk"
	"bombdroid/internal/dex"
	"bombdroid/internal/obs"
)

// fuzzVM assembles a VM around file WITHOUT install-time validation —
// the interpreter's worst case: executing code that was corrupted in
// memory after every check already passed. buildImage (and with it the
// quickening pass) runs on the raw file directly, so quickening itself
// is exercised as a total function over garbage input.
func fuzzVM(file *dex.File, opts Options) *VM {
	if opts.MaxSteps == 0 {
		opts.MaxSteps = 50_000
	}
	if opts.MaxDepth == 0 {
		opts.MaxDepth = 24
	}
	if opts.Seed == 0 {
		opts.Seed = 1
	}
	return newVM(buildImage(file), &apk.Package{Name: "fuzz"}, android.EmulatorLab(1)[0], opts)
}

// diffAllMethods drives every method with zero-value arguments on a
// quickened/reference pair over file, each side with its own obs
// registry when withObs is set, and asserts the diff-pair contract
// after each Invoke and at the end. Nothing may panic: faults must
// surface as returned errors.
func diffAllMethods(t *testing.T, file *dex.File, opts Options, withObs bool) {
	t.Helper()
	build := func(ref bool) *VM {
		o := opts
		o.Reference = ref
		if withObs {
			o.Obs = obs.NewRegistry()
		}
		return fuzzVM(file, o)
	}
	p := &diffPair{q: build(false), r: build(true)}
	for _, m := range file.Methods() {
		if m.NumArgs < 0 || m.NumArgs > 8 {
			continue
		}
		p.invoke(t, m.FullName(), make([]dex.Value, m.NumArgs)...)
	}
	p.finish(t)
}

// badFile builds a file with one method of raw (unvalidated) code.
func badFile(numRegs int, code []dex.Instr, tables ...dex.SwitchTable) *dex.File {
	f := dex.NewFile()
	c := &dex.Class{Name: "Bad"}
	c.AddMethod(&dex.Method{Name: "m", NumArgs: 0, NumRegs: numRegs, Code: code, Tables: tables})
	_ = f.AddClass(c)
	return f
}

// TestExecMalformedNoPanic pins the malformed-input classes the chaos
// model cares about: each must come back as a returned error, never a
// panic, even though none of these files would pass validation.
func TestExecMalformedNoPanic(t *testing.T) {
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
			// control falls off the end: no return instruction
		}),
	}
	for name, file := range cases {
		v := fuzzVM(file, Options{})
		_, err := v.Invoke("Bad.m")
		if err == nil {
			t.Errorf("%s: expected an error", name)
			continue
		}
		if !IsRuntimeFault(err) {
			t.Errorf("%s: error %v is not a RuntimeError", name, err)
		}
	}
}

// FuzzExec: whatever decodes must execute without panicking, with or
// without validation having been run first, and the quickened loop
// must agree with the reference interpreter on it. Each file runs bare
// and with obs, with and without FailClosed, and each pair compares
// errors, results, steps, ticks, statics and obs opcode counts.
func FuzzExec(f *testing.F) {
	f.Add(dex.Encode(dex.NewFile()))
	good := dex.NewFile()
	c := &dex.Class{Name: "App", Fields: []dex.Field{{Name: "x", Init: dex.Int64(1)}}}
	c.AddMethod(&dex.Method{Name: "run", NumArgs: 0, NumRegs: 4, Code: []dex.Instr{
		{Op: dex.OpConstInt, A: 0, B: -1, C: -1, Imm: 41},
		{Op: dex.OpAddK, A: 1, B: 0, C: -1, Imm: 1},
		{Op: dex.OpReturn, A: 1, B: -1, C: -1},
	}})
	_ = good.AddClass(c)
	f.Add(dex.Encode(good))
	f.Add(dex.Encode(badFile(1, []dex.Instr{
		{Op: dex.OpConstInt, A: 100, B: -1, C: -1, Imm: 7},
		{Op: dex.OpReturnVoid},
	})))
	f.Add(dex.Encode(badFile(2, []dex.Instr{
		{Op: dex.OpCallAPI, A: 0, B: 0, C: 2, Imm: int64(dex.APIDecryptLoad)},
		{Op: dex.OpReturnVoid},
	})))
	// Cost-only calls, including a result register out of range.
	f.Add(dex.Encode(badFile(3, []dex.Instr{
		{Op: dex.OpConstInt, A: 0, B: -1, C: -1, Imm: 5},
		{Op: dex.OpCallAPI, A: 1, B: 0, C: 1, Imm: int64(dex.APIUIDraw)},
		{Op: dex.OpCallAPI, A: -1, B: 0, C: 1, Imm: int64(dex.APIPlaySound)},
		{Op: dex.OpCallAPI, A: 2, B: 0, C: 1, Imm: int64(dex.APIVibrate)},
		{Op: dex.OpIfNez, A: 2, B: -1, C: 6},
		{Op: dex.OpCallAPI, A: 7, B: 0, C: 0, Imm: int64(dex.APIVibrate)},
		{Op: dex.OpReturn, A: 1, B: -1, C: -1},
	})))
	f.Fuzz(func(t *testing.T, data []byte) {
		file, err := dex.Decode(data)
		if err != nil {
			return
		}
		// Deliberately skip dex.Validate: exec must be total anyway.
		for _, failClosed := range []bool{false, true} {
			for _, withObs := range []bool{false, true} {
				diffAllMethods(t, file, Options{FailClosed: failClosed}, withObs)
			}
		}
	})
}

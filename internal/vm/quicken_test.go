package vm

import (
	"fmt"
	"strings"
	"testing"
	"unsafe"

	"bombdroid/internal/dex"
)

// qmOf quickens a raw file and returns the named method's quickened
// form for structural assertions.
func qmOf(t *testing.T, file *dex.File, name string) *qmethod {
	t.Helper()
	img := buildImage(file)
	qm := img.unit.q.byName[name]
	if qm == nil {
		t.Fatalf("no quickened method %q", name)
	}
	return qm
}

// TestQuickenSwitchTableSorted pins the load-time switch rewrite:
// matches sorted ascending for binary search, every target (including
// the default) resolved to an index inside the quickened code — the
// dispatch loop trusts these without rechecking.
func TestQuickenSwitchTableSorted(t *testing.T) {
	f := badFile(2, []dex.Instr{
		{Op: dex.OpSwitch, A: 0, B: -1, C: -1, Imm: 0},
		{Op: dex.OpConstInt, A: 1, B: -1, C: -1, Imm: 1},
		{Op: dex.OpConstInt, A: 1, B: -1, C: -1, Imm: 2},
		{Op: dex.OpConstInt, A: 1, B: -1, C: -1, Imm: 3},
		{Op: dex.OpReturn, A: 1, B: -1, C: -1},
	}, dex.SwitchTable{Cases: []dex.SwitchCase{
		{Match: 9, Target: 1}, {Match: -4, Target: 2}, {Match: 3, Target: 3},
	}, Default: 4})
	qm := qmOf(t, f, "Bad.m")
	if len(qm.tables) != 1 {
		t.Fatalf("got %d quickened tables, want 1", len(qm.tables))
	}
	qt := qm.tables[0]
	wantM := []int64{-4, 3, 9}
	wantT := []int32{2, 3, 1}
	for i := range wantM {
		if qt.matches[i] != wantM[i] || qt.targets[i] != wantT[i] {
			t.Fatalf("sorted table[%d] = (%d,%d), want (%d,%d)",
				i, qt.matches[i], qt.targets[i], wantM[i], wantT[i])
		}
	}
	for i, tg := range append(append([]int32(nil), qt.targets...), qt.def) {
		if tg < 0 || int(tg) >= len(qm.code) {
			t.Fatalf("target %d = %d escapes quickened code [0,%d)", i, tg, len(qm.code))
		}
	}
}

// TestQuickenSwitchDuplicateMatch pins first-match-wins among
// duplicated match values — the reference interpreter's linear scan
// takes the earliest case, so the stable sort plus leftmost-equal
// binary search must too.
func TestQuickenSwitchDuplicateMatch(t *testing.T) {
	f := badFile(2, []dex.Instr{
		{Op: dex.OpConstInt, A: 0, B: -1, C: -1, Imm: 7},
		{Op: dex.OpSwitch, A: 0, B: -1, C: -1, Imm: 0},
		{Op: dex.OpConstInt, A: 1, B: -1, C: -1, Imm: 111}, // pc 2: first case
		{Op: dex.OpReturn, A: 1, B: -1, C: -1},
		{Op: dex.OpConstInt, A: 1, B: -1, C: -1, Imm: 222}, // pc 4: duplicate case
		{Op: dex.OpReturn, A: 1, B: -1, C: -1},
	}, dex.SwitchTable{Cases: []dex.SwitchCase{
		{Match: 7, Target: 2}, {Match: 7, Target: 4},
	}, Default: 2})
	for _, ref := range []bool{false, true} {
		v := fuzzVM(f, Options{Reference: ref})
		res, err := v.Invoke("Bad.m")
		if err != nil {
			t.Fatalf("reference=%v: %v", ref, err)
		}
		if res.Int != 111 {
			t.Errorf("reference=%v: duplicate match took value %d, want 111 (first case)", ref, res.Int)
		}
	}
}

// TestQuickenMalformedSwitchTargets is the regression test for
// load-time bounds checking of switch targets: a table pointing at
// pc 500 (and a default of -2) must fault only when the bad arm is
// actually selected, with the reference interpreter's exact error —
// including the original out-of-range pc.
func TestQuickenMalformedSwitchTargets(t *testing.T) {
	mk := func(sel int64) *dex.File {
		return badFile(1, []dex.Instr{
			{Op: dex.OpConstInt, A: 0, B: -1, C: -1, Imm: sel},
			{Op: dex.OpSwitch, A: 0, B: -1, C: -1, Imm: 0},
			{Op: dex.OpReturnVoid},
		}, dex.SwitchTable{Cases: []dex.SwitchCase{{Match: 3, Target: 500}}, Default: -2})
	}
	for _, tc := range []struct {
		sel    int64
		wantPC int
	}{
		{sel: 3, wantPC: 500}, // matched case target out of range
		{sel: 8, wantPC: -2},  // default target out of range
	} {
		for _, ref := range []bool{false, true} {
			v := fuzzVM(mk(tc.sel), Options{Reference: ref})
			_, err := v.Invoke("Bad.m")
			if err == nil {
				t.Fatalf("sel=%d reference=%v: expected a fault", tc.sel, ref)
			}
			want := fmt.Sprintf("at pc %d: control fell outside the method", tc.wantPC)
			if !strings.Contains(err.Error(), want) {
				t.Errorf("sel=%d reference=%v: fault %q does not contain %q", tc.sel, ref, err, want)
			}
		}
	}
	// The quickened table itself must hold no out-of-range indices:
	// bad targets are rewritten to in-range trap instructions.
	qm := qmOf(t, mk(3), "Bad.m")
	qt := qm.tables[0]
	for _, tg := range append(append([]int32(nil), qt.targets...), qt.def) {
		if tg < 0 || int(tg) >= len(qm.code) {
			t.Fatalf("quickened switch target %d escapes code [0,%d)", tg, len(qm.code))
		}
	}
}

// TestQuickenFusesDyads pins that the dominant dyads actually fuse,
// and that the second instruction of a pair keeps its plain form (the
// jump-into-the-middle guarantee).
func TestQuickenFusesDyads(t *testing.T) {
	f := badFile(4, []dex.Instr{
		{Op: dex.OpConstInt, A: 0, B: -1, C: -1, Imm: 2}, // pc 0: fuses with pc 1
		{Op: dex.OpAdd, A: 1, B: 0, C: 0},                // pc 1: plain form kept
		{Op: dex.OpConstInt, A: 2, B: -1, C: -1, Imm: 4}, // pc 2: fuses with pc 3
		{Op: dex.OpIfLt, A: 1, B: 2, C: 6},               // pc 3
		{Op: dex.OpReturn, A: 1, B: -1, C: -1},           // pc 4 (not taken: 4 < 4 false)
		{Op: dex.OpNop},                                  // pc 5
		{Op: dex.OpReturn, A: 2, B: -1, C: -1},           // pc 6
	})
	qm := qmOf(t, f, "Bad.m")
	if qm.code[0].op != qFuseConstArith {
		t.Errorf("pc 0: op %d, want qFuseConstArith", qm.code[0].op)
	}
	if qm.code[1].op != qArith {
		t.Errorf("pc 1: op %d, want plain qArith (jump target form)", qm.code[1].op)
	}
	if qm.code[2].op != qFuseConstIf {
		t.Errorf("pc 2: op %d, want qFuseConstIf", qm.code[2].op)
	}
	if qm.code[0].op2 != dex.OpAdd {
		t.Errorf("fused pair lost its second opcode: %v", qm.code[0].op2)
	}
	for _, ref := range []bool{false, true} {
		v := fuzzVM(f, Options{Reference: ref})
		res, err := v.Invoke("Bad.m")
		if err != nil {
			t.Fatalf("reference=%v: %v", ref, err)
		}
		if res.Int != 4 {
			t.Errorf("reference=%v: got %d, want 4", ref, res.Int)
		}
	}
}

// TestQuickenFusedBudgetParity pins mid-pair accounting: when the step
// budget runs out between the two halves of a fused pair, the
// quickened path must fail at exactly the same step, clock tick, and
// error as two reference dispatches.
func TestQuickenFusedBudgetParity(t *testing.T) {
	f := badFile(4, []dex.Instr{
		{Op: dex.OpConstInt, A: 0, B: -1, C: -1, Imm: 2},
		{Op: dex.OpAdd, A: 1, B: 0, C: 0},
		{Op: dex.OpReturn, A: 1, B: -1, C: -1},
	})
	run := func(ref bool) (int64, int64, error) {
		v := fuzzVM(f, Options{Reference: ref, MaxSteps: 1})
		_, err := v.Invoke("Bad.m")
		return v.steps, v.NowTicks(), err
	}
	qs, qc, qerr := run(false)
	rs, rc, rerr := run(true)
	if qerr != ErrBudget || rerr != ErrBudget {
		t.Fatalf("errors: quickened %v, reference %v, want ErrBudget", qerr, rerr)
	}
	if qs != rs || qc != rc {
		t.Errorf("mid-pair budget state diverged: quickened (steps=%d, ticks=%d), reference (steps=%d, ticks=%d)",
			qs, qc, rs, rc)
	}
}

// TestQuickenConstStrOutOfRange pins the shared ""-slot rewrite for
// out-of-range string indices in unvalidated code.
func TestQuickenConstStrOutOfRange(t *testing.T) {
	f := badFile(1, []dex.Instr{
		{Op: dex.OpConstStr, A: 0, B: -1, C: -1, Imm: 999},
		{Op: dex.OpReturn, A: 0, B: -1, C: -1},
	})
	for _, ref := range []bool{false, true} {
		v := fuzzVM(f, Options{Reference: ref})
		res, err := v.Invoke("Bad.m")
		if err != nil {
			t.Fatalf("reference=%v: %v", ref, err)
		}
		if res.Kind != dex.KindStr || res.Str() != "" {
			t.Errorf("reference=%v: got %v, want empty string", ref, res)
		}
	}
}

// TestQInstrSize pins a quickened instruction at 40 bytes: the run
// length fills what was padding.
func TestQInstrSize(t *testing.T) {
	if n := unsafe.Sizeof(qinstr{}); n != 40 {
		t.Fatalf("qinstr is %d bytes, want 40", n)
	}
}

package vm

import (
	"fmt"

	"bombdroid/internal/dex"
)

// arenaChunk is the frame arena's chunk size in register slots. Bigger
// than any generated method's frame, small enough that a campaign VM
// retains only a few KB; frames larger than a chunk (possible only in
// hand-built or corrupted code) fall back to a one-off allocation.
const arenaChunk = 256

// frameArena hands out register files for qcall frames with
// stack-discipline lifetime: mark at frame entry, release at frame
// exit. Chunks are retained for the VM's lifetime, so the steady-state
// session loop allocates no frames at all. A VM is single-goroutine by
// contract, and frames nest strictly (calls, payload invokes, hook
// reentry all push/pop in LIFO order), so a pair of cursor ints is the
// whole bookkeeping. Frames release on return without a defer; a
// panic unwinding through them skips those releases, and Invoke's
// recover rewinds the arena to the mark its call started from.
type frameArena struct {
	chunks [][]dex.Value
	ci     int // current chunk
	off    int // next free slot in chunks[ci]
}

type arenaMark struct{ ci, off int }

func (a *frameArena) mark() arenaMark { return arenaMark{a.ci, a.off} }

func (a *frameArena) release(m arenaMark) { a.ci, a.off = m.ci, m.off }

// get returns a zeroed register window of length n. The reference
// free-list zeroes recycled frames too (the frame-reuse contract in
// frame_test.go), so a recycled window is indistinguishable from a
// fresh allocation.
func (a *frameArena) get(n int) []dex.Value {
	if n > arenaChunk {
		return make([]dex.Value, n)
	}
	for {
		if a.ci == len(a.chunks) {
			a.chunks = append(a.chunks, make([]dex.Value, arenaChunk))
		}
		if c := a.chunks[a.ci]; a.off+n <= len(c) {
			s := c[a.off : a.off+n : a.off+n]
			a.off += n
			for i := range s {
				s[i] = dex.Value{}
			}
			return s
		}
		a.ci++
		a.off = 0
	}
}

// qfault builds a bytecode fault. It lives out of line (with typeFault)
// so the dispatch loop carries no per-frame error closures — the
// reference interpreter allocates two closures per call frame for
// this; here faults cost nothing until one actually fires.
func qfault(qm *qmethod, pc int, format string, a ...any) error {
	return &RuntimeError{Method: qm.full, PC: pc, Reason: fmt.Sprintf(format, a...)}
}

// typeFault is the int-typecheck failure path.
func typeFault(qm *qmethod, pc int, k dex.ValueKind) error {
	return &RuntimeError{Method: qm.full, PC: pc,
		Reason: fmt.Sprintf("expected int, got %s", k)}
}

// fuseStep charges the second half of a fused pair exactly as a
// separate dispatch would have: one step, one tick, the budget check,
// then obs and trace under the second instruction's own pc and opcode.
// Ordering matters for byte-identical budget exhaustion: a pair split
// by MaxSteps must fail at the same step with the same ledger state as
// two plain dispatches.
func (v *VM) fuseStep(qm *qmethod, pc int, in *qinstr, inPayload string) error {
	v.steps++
	v.clock++
	if v.steps > v.opts.MaxSteps {
		return ErrBudget
	}
	if v.obsOps != nil {
		v.obsOps[in.op2]++
	}
	if v.trace != nil {
		v.recordTrace(qm.full, pc+1, in.op2, inPayload)
	}
	return nil
}

// fuseArith2 executes the arithmetic second half of a fused pair.
// Int operands are read through pointers into the register file here
// and in the loop below, saving a 40-byte copy per operand.
func fuseArith2(qm *qmethod, pc int, in *qinstr, regs []dex.Value) error {
	x := &regs[in.b2]
	if x.Kind != dex.KindInt {
		return typeFault(qm, pc+1, x.Kind)
	}
	y := &regs[in.c2]
	if y.Kind != dex.KindInt {
		return typeFault(qm, pc+1, y.Kind)
	}
	r, err := arith(in.op2, x.Int, y.Int)
	if err != nil {
		return qfault(qm, pc+1, "%v", err)
	}
	regs[in.a2] = dex.Int64(r)
	return nil
}

// qcond evaluates the conditional-branch second half of a fused pair,
// replicating each reference branch's operand checks at pc.
func qcond(qm *qmethod, pc int, op dex.Op, regs []dex.Value, a, b int32) (bool, error) {
	switch op {
	case dex.OpIfEq:
		return regs[a].Equal(regs[b]), nil
	case dex.OpIfNe:
		return !regs[a].Equal(regs[b]), nil
	case dex.OpIfEqz:
		return !regs[a].Truthy(), nil
	case dex.OpIfNez:
		return regs[a].Truthy(), nil
	}
	x := &regs[a]
	if x.Kind != dex.KindInt {
		return false, typeFault(qm, pc, x.Kind)
	}
	y := &regs[b]
	if y.Kind != dex.KindInt {
		return false, typeFault(qm, pc, y.Kind)
	}
	switch op {
	case dex.OpIfLt:
		return x.Int < y.Int, nil
	case dex.OpIfLe:
		return x.Int <= y.Int, nil
	case dex.OpIfGt:
		return x.Int > y.Int, nil
	default:
		return x.Int >= y.Int, nil
	}
}

// qcall executes one quickened frame. It is the steady-state
// counterpart of call() in exec.go and must stay observationally
// byte-identical to it — results, error strings, step counts, clock
// ticks, obs tallies, trace entries — a contract enforced by the
// differential harness. Registers come from the per-VM frame arena;
// register indices are used unchecked just like the reference loop, so
// out-of-range registers in unvalidated code fault via the contained
// panic in Invoke, with identical messages.
func (v *VM) qcall(u *unit, inPayload string, qm *qmethod, args []dex.Value, depth int) (dex.Value, error) {
	if depth > v.opts.MaxDepth {
		return dex.Nil(), ErrDepth
	}
	m := qm.m
	if len(args) != m.NumArgs {
		return dex.Nil(), &RuntimeError{Method: qm.full, PC: -1,
			Reason: fmt.Sprintf("arity mismatch: got %d args, want %d", len(args), m.NumArgs)}
	}
	if m.NumRegs < 0 || m.NumRegs > maxFrameRegs {
		return dex.Nil(), &RuntimeError{Method: qm.full, PC: -1,
			Reason: fmt.Sprintf("register count %d outside [0,%d]", m.NumRegs, maxFrameRegs)}
	}
	if v.opts.Profile {
		if qm.idx >= 0 {
			v.profDense[qm.idx]++
		} else {
			v.profile[qm.full]++
		}
	}
	mk := v.arena.mark()
	regs := v.arena.get(m.NumRegs)
	copy(regs, args)
	res, err := v.qrun(u, inPayload, qm, regs, depth)
	v.arena.release(mk)
	return res, err
}

// qrun is the dispatch loop over one frame's registers.
func (v *VM) qrun(u *unit, inPayload string, qm *qmethod, regs []dex.Value, depth int) (dex.Value, error) {
	pc := 0
	code := qm.code
	// Hoisted loop invariants: obsOps and trace are fixed at VM
	// construction, maxSteps at option resolution. Loading them once
	// keeps the per-instruction prologue to increments and registers
	// instead of repeated pointer chases through v (the obs-off and
	// obs-on paths both pay these loads every dispatch).
	obsOps := v.obsOps
	tracing := v.trace != nil
	maxSteps := v.opts.MaxSteps
	for {
		in := &code[pc]
		if in.op < qFirstReal {
			// qEnd (control fell off the end) or qTrap (a branch whose
			// encoded target was out of range; imm holds the original
			// target). Both reproduce the reference bounds-check fault
			// and, like it, charge no step.
			at := pc
			if in.op == qTrap {
				at = int(in.imm)
			}
			return dex.Nil(), qfault(qm, at, "control fell outside the method")
		}
		v.steps++
		v.clock++
		if v.steps > maxSteps {
			return dex.Nil(), ErrBudget
		}
		if obsOps != nil {
			obsOps[in.srcOp]++
		}
		if tracing {
			v.recordTrace(qm.full, pc, in.srcOp, inPayload)
		}
		switch in.op {
		case qNop:

		case qConstInt:
			regs[in.a] = dex.Int64(in.imm)

		case qConstStr:
			regs[in.a] = u.q.strs[in.imm]

		case qMove:
			regs[in.a] = regs[in.b]

		case qArith:
			x := &regs[in.b]
			if x.Kind != dex.KindInt {
				return dex.Nil(), typeFault(qm, pc, x.Kind)
			}
			y := &regs[in.c]
			if y.Kind != dex.KindInt {
				return dex.Nil(), typeFault(qm, pc, y.Kind)
			}
			r, err := arith(in.srcOp, x.Int, y.Int)
			if err != nil {
				return dex.Nil(), qfault(qm, pc, "%v", err)
			}
			regs[in.a] = dex.Int64(r)

		case qNeg:
			x := regs[in.b]
			if x.Kind != dex.KindInt {
				return dex.Nil(), typeFault(qm, pc, x.Kind)
			}
			regs[in.a] = dex.Int64(-x.Int)

		case qNot:
			x := regs[in.b]
			if x.Kind != dex.KindInt {
				return dex.Nil(), typeFault(qm, pc, x.Kind)
			}
			regs[in.a] = dex.Int64(^x.Int)

		case qAddK:
			x := regs[in.b]
			if x.Kind != dex.KindInt {
				return dex.Nil(), typeFault(qm, pc, x.Kind)
			}
			regs[in.a] = dex.Int64(x.Int + in.imm)

		case qIfEq:
			if regs[in.a].Equal(regs[in.b]) {
				pc = int(in.c)
				continue
			}

		case qIfNe:
			if !regs[in.a].Equal(regs[in.b]) {
				pc = int(in.c)
				continue
			}

		case qIfLt:
			x := &regs[in.a]
			if x.Kind != dex.KindInt {
				return dex.Nil(), typeFault(qm, pc, x.Kind)
			}
			y := &regs[in.b]
			if y.Kind != dex.KindInt {
				return dex.Nil(), typeFault(qm, pc, y.Kind)
			}
			if x.Int < y.Int {
				pc = int(in.c)
				continue
			}

		case qIfLe:
			x := &regs[in.a]
			if x.Kind != dex.KindInt {
				return dex.Nil(), typeFault(qm, pc, x.Kind)
			}
			y := &regs[in.b]
			if y.Kind != dex.KindInt {
				return dex.Nil(), typeFault(qm, pc, y.Kind)
			}
			if x.Int <= y.Int {
				pc = int(in.c)
				continue
			}

		case qIfGt:
			x := &regs[in.a]
			if x.Kind != dex.KindInt {
				return dex.Nil(), typeFault(qm, pc, x.Kind)
			}
			y := &regs[in.b]
			if y.Kind != dex.KindInt {
				return dex.Nil(), typeFault(qm, pc, y.Kind)
			}
			if x.Int > y.Int {
				pc = int(in.c)
				continue
			}

		case qIfGe:
			x := &regs[in.a]
			if x.Kind != dex.KindInt {
				return dex.Nil(), typeFault(qm, pc, x.Kind)
			}
			y := &regs[in.b]
			if y.Kind != dex.KindInt {
				return dex.Nil(), typeFault(qm, pc, y.Kind)
			}
			if x.Int >= y.Int {
				pc = int(in.c)
				continue
			}

		case qIfEqz:
			if !regs[in.a].Truthy() {
				pc = int(in.c)
				continue
			}

		case qIfNez:
			if regs[in.a].Truthy() {
				pc = int(in.c)
				continue
			}

		case qGoto:
			pc = int(in.c)
			continue

		case qSwitch:
			x := regs[in.a]
			if x.Kind != dex.KindInt {
				return dex.Nil(), typeFault(qm, pc, x.Kind)
			}
			t := &qm.tables[in.imm]
			lo, hi := 0, len(t.matches)
			for lo < hi {
				mid := int(uint(lo+hi) >> 1)
				if t.matches[mid] < x.Int {
					lo = mid + 1
				} else {
					hi = mid
				}
			}
			tg := t.def
			if lo < len(t.matches) && t.matches[lo] == x.Int {
				tg = t.targets[lo]
			}
			pc = int(tg)
			continue

		case qSwitchMissing:
			x := regs[in.a]
			if x.Kind != dex.KindInt {
				return dex.Nil(), typeFault(qm, pc, x.Kind)
			}
			return dex.Nil(), qfault(qm, pc, "switch table %d missing", in.imm)

		case qInvoke:
			tg := &u.q.targets[in.imm]
			res, err := v.qcall(tg.u, inPayload, tg.qm, regs[in.b:int(in.b)+int(in.c)], depth+1)
			if err != nil {
				return dex.Nil(), err
			}
			if in.a != -1 {
				regs[in.a] = res
			}

		case qInvokeUnresolved:
			return dex.Nil(), qfault(qm, pc, "unresolved invoke %q", u.file.Str(in.imm))

		case qInvokeBadWindow, qCallAPIBadWindow:
			return dex.Nil(), qfault(qm, pc, "arg window [%d,%d) outside %d registers",
				in.b, int(in.b)+int(in.c), len(regs))

		case qCallAPINop:
			// Nothing can see the call, so its whole effect is the
			// clock charge and the nil result. Hooks or observers
			// installed since quickening take the full path below.
			if len(v.hooks) == 0 && len(v.observers) == 0 {
				v.clock += dex.API(in.imm).Cost()
				if in.a != -1 {
					regs[in.a] = dex.Value{}
				}
				break
			}
			fallthrough

		case qCallAPI:
			res, err := v.callAPI(u, inPayload, qm.full, dex.API(in.imm), regs[in.b:int(in.b)+int(in.c)], depth)
			if err != nil {
				return dex.Nil(), err
			}
			if in.a != -1 {
				regs[in.a] = res
			}

		case qReturn:
			return regs[in.a], nil

		case qReturnVoid:
			return dex.Nil(), nil

		case qGetStatic:
			regs[in.a] = v.staticVals[in.imm]

		case qPutStatic:
			v.staticVals[in.imm] = regs[in.a]
			v.staticSet[in.imm] = true

		case qNewArr:
			x := regs[in.b]
			if x.Kind != dex.KindInt {
				return dex.Nil(), typeFault(qm, pc, x.Kind)
			}
			if x.Int < 0 || x.Int > 1<<20 {
				return dex.Nil(), qfault(qm, pc, "bad array length %d", x.Int)
			}
			regs[in.a] = dex.NewArr(int(x.Int))

		case qALoad:
			arr := regs[in.b]
			if arr.Kind != dex.KindArr || arr.Arr == nil {
				return dex.Nil(), qfault(qm, pc, "aload on %s", arr.Kind)
			}
			iv := regs[in.c]
			if iv.Kind != dex.KindInt {
				return dex.Nil(), typeFault(qm, pc, iv.Kind)
			}
			if iv.Int < 0 || int(iv.Int) >= len(*arr.Arr) {
				return dex.Nil(), qfault(qm, pc, "index %d out of bounds %d", iv.Int, len(*arr.Arr))
			}
			regs[in.a] = (*arr.Arr)[iv.Int]

		case qAStore:
			arr := regs[in.a]
			if arr.Kind != dex.KindArr || arr.Arr == nil {
				return dex.Nil(), qfault(qm, pc, "astore on %s", arr.Kind)
			}
			iv := regs[in.b]
			if iv.Kind != dex.KindInt {
				return dex.Nil(), typeFault(qm, pc, iv.Kind)
			}
			if iv.Int < 0 || int(iv.Int) >= len(*arr.Arr) {
				return dex.Nil(), qfault(qm, pc, "index %d out of bounds %d", iv.Int, len(*arr.Arr))
			}
			(*arr.Arr)[iv.Int] = regs[in.c]

		case qArrLen:
			arr := regs[in.b]
			if arr.Kind != dex.KindArr || arr.Arr == nil {
				return dex.Nil(), qfault(qm, pc, "arr-len on %s", arr.Kind)
			}
			regs[in.a] = dex.Int64(int64(len(*arr.Arr)))

		case qBadOp:
			return dex.Nil(), qfault(qm, pc, "invalid opcode %d", in.srcOp)

		case qFuseConstArith:
			regs[in.a] = dex.Int64(in.imm)
			if err := v.fuseStep(qm, pc, in, inPayload); err != nil {
				return dex.Nil(), err
			}
			if err := fuseArith2(qm, pc, in, regs); err != nil {
				return dex.Nil(), err
			}
			pc += 2
			continue

		case qFuseConstIf:
			regs[in.a] = dex.Int64(in.imm)
			if err := v.fuseStep(qm, pc, in, inPayload); err != nil {
				return dex.Nil(), err
			}
			taken, err := qcond(qm, pc+1, in.op2, regs, in.a2, in.b2)
			if err != nil {
				return dex.Nil(), err
			}
			if taken {
				pc = int(in.c2)
				continue
			}
			pc += 2
			continue

		case qFuseALoadArith:
			arr := regs[in.b]
			if arr.Kind != dex.KindArr || arr.Arr == nil {
				return dex.Nil(), qfault(qm, pc, "aload on %s", arr.Kind)
			}
			iv := regs[in.c]
			if iv.Kind != dex.KindInt {
				return dex.Nil(), typeFault(qm, pc, iv.Kind)
			}
			if iv.Int < 0 || int(iv.Int) >= len(*arr.Arr) {
				return dex.Nil(), qfault(qm, pc, "index %d out of bounds %d", iv.Int, len(*arr.Arr))
			}
			regs[in.a] = (*arr.Arr)[iv.Int]
			if err := v.fuseStep(qm, pc, in, inPayload); err != nil {
				return dex.Nil(), err
			}
			if err := fuseArith2(qm, pc, in, regs); err != nil {
				return dex.Nil(), err
			}
			pc += 2
			continue

		case qFuseArithIf:
			x := &regs[in.b]
			if x.Kind != dex.KindInt {
				return dex.Nil(), typeFault(qm, pc, x.Kind)
			}
			y := &regs[in.c]
			if y.Kind != dex.KindInt {
				return dex.Nil(), typeFault(qm, pc, y.Kind)
			}
			r, err := arith(in.srcOp, x.Int, y.Int)
			if err != nil {
				return dex.Nil(), qfault(qm, pc, "%v", err)
			}
			regs[in.a] = dex.Int64(r)
			if err := v.fuseStep(qm, pc, in, inPayload); err != nil {
				return dex.Nil(), err
			}
			taken, err := qcond(qm, pc+1, in.op2, regs, in.a2, in.b2)
			if err != nil {
				return dex.Nil(), err
			}
			if taken {
				pc = int(in.c2)
				continue
			}
			pc += 2
			continue

		default:
			return dex.Nil(), qfault(qm, pc, "invalid opcode %d", in.srcOp)
		}
		pc++
	}
}

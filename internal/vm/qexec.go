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

// envRead runs the call half of a fused env read (qEnvInt, qEnvStr).
// With nothing watching the call it makes the read by catalog index
// that dispatch would make by name, after the same clock charge;
// otherwise the call takes the full callAPI path with the name
// register as its argument, so hooks and observers installed after
// quickening see it.
func (v *VM) envRead(u *unit, inPayload string, qm *qmethod, in *qinstr, regs []dex.Value, depth int) (dex.Value, error) {
	api := dex.APIGetEnvInt
	if in.op == qEnvStr {
		api = dex.APIGetEnvStr
	}
	if len(v.hooks) != 0 || len(v.observers) != 0 {
		return v.callAPI(u, inPayload, qm.full, api, regs[in.a:in.a+1], depth)
	}
	v.clock += api.Cost()
	if in.op == qEnvInt {
		return dex.Int64(v.dev.GetIntAt(int(in.b), v.NowMillis())), nil
	}
	return dex.Str(v.dev.GetStrAt(int(in.b))), nil
}

// intArith computes regs[b] op regs[c] when both are ints and op is
// add, mul, xor or a nonzero remainder: the ops generated handlers run
// most. It is small enough to inline into the dispatch loop (one more
// case would not be); ok is false for a non-int operand, a zero
// remainder divisor, division and the rare ops (sub, which only
// endsWith triggers emit, and, or, shifts), all of which take qarith.
// Like the reference loop it reads regs[c] only once regs[b] is known
// to be an int, so an out-of-range c behind a non-int b still faults as
// a type error. Operands are read through pointers into the register
// file, saving a 24-byte copy per operand.
func intArith(op dex.Op, regs []dex.Value, b, c int32) (r int64, ok bool) {
	if x := &regs[b]; x.Kind == dex.KindInt {
		if y := &regs[c]; y.Kind == dex.KindInt {
			p, q := x.Int, y.Int
			switch op {
			case dex.OpAdd:
				return p + q, true
			case dex.OpMul:
				return p * q, true
			case dex.OpRem:
				if q != 0 {
					return p % q, true
				}
			case dex.OpXor:
				return p ^ q, true
			}
		}
	}
	return 0, false
}

// qarith executes regs[a] = regs[b] op regs[c] at pc with the reference
// checks in the reference order: b's type, c's type, then arith's
// faults. The loop calls it when intArith declines.
func qarith(qm *qmethod, pc int, op dex.Op, regs []dex.Value, a, b, c int32) error {
	x := &regs[b]
	if x.Kind != dex.KindInt {
		return typeFault(qm, pc, x.Kind)
	}
	y := &regs[c]
	if y.Kind != dex.KindInt {
		return typeFault(qm, pc, y.Kind)
	}
	r, err := arith(op, x.Int, y.Int)
	if err != nil {
		return qfault(qm, pc, "%v", err)
	}
	regs[a] = dex.Int64(r)
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
// differential harness. Registers come from the per-VM frame arena.
// Two kinds of frame run on call() instead: every frame of a traced VM,
// since the trace wants each instruction, and a perInstr method, which
// may panic in the middle of a run, where a contained panic must see
// the reference step count.
func (v *VM) qcall(u *unit, inPayload string, qm *qmethod, args []dex.Value, depth int) (dex.Value, error) {
	if qm.perInstr || v.trace != nil {
		return v.call(u, inPayload, qm.m, args, depth)
	}
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
	res, err := v.qrunBlocks(u, inPayload, qm, regs, depth)
	v.arena.release(mk)
	return res, err
}

// qrunBlocks is the quickened dispatch loop. It charges the steps and
// ticks of a whole run (see markRuns) when it enters one: at pc 0, at a
// branch target, after a call. The instructions inside a run then
// dispatch with no prologue at all; only those that end a run go back
// to the charging head. The head is one compare against v.runLimit,
// which is the budget when obs is off; with obs on it always fails, and
// the slow head tallies the run's source opcodes. When the budget does
// not cover the next run, the slow head hands the rest of the frame to
// the reference exec, which stops at exactly the reference step: a run
// is straight-line up to its one terminal, so exec runs fewer than run
// instructions. A fault inside a run takes back the steps, ticks and
// tallies of the instructions after it (the fault label).
func (v *VM) qrunBlocks(u *unit, inPayload string, qm *qmethod, regs []dex.Value, depth int) (dex.Value, error) {
	pc := 0
	code := qm.code
	var err error
run:
	for {
		in := &code[pc]
		if int64(in.run) > v.runLimit-v.steps {
			if int64(in.run) > v.opts.MaxSteps-v.steps {
				return v.exec(u, inPayload, qm.m, regs, depth, pc)
			}
			v.tallyRun(qm.m, pc, int(in.run), 1)
		}
		v.steps += int64(in.run)
		v.clock += int64(in.run)
		for {
			switch in.op {
			case qEnd, qTrap:
				// qEnd (control fell off the end) or qTrap (a branch
				// whose encoded target was out of range; imm holds the
				// original target) reproduce the reference bounds-check
				// fault. Their run is 0: no run falls into qEnd, and a
				// jump to either charges nothing, so there is nothing to
				// take back.
				at := pc
				if in.op == qTrap {
					at = int(in.imm)
				}
				err = qfault(qm, at, "control fell outside the method")
				goto fault

			case qNop:

			case qConstInt:
				regs[in.a] = dex.Int64(in.imm)

			case qConstStr:
				regs[in.a] = u.q.strs[in.imm]

			case qMove:
				regs[in.a] = regs[in.b]

			case qArith:
				if r, ok := intArith(in.srcOp, regs, in.b, in.c); ok {
					regs[in.a] = dex.Int64(r)
				} else if err = qarith(qm, pc, in.srcOp, regs, in.a, in.b, in.c); err != nil {
					goto fault
				}

			case qNeg:
				x := regs[in.b]
				if x.Kind != dex.KindInt {
					err = typeFault(qm, pc, x.Kind)
					goto fault
				}
				regs[in.a] = dex.Int64(-x.Int)

			case qNot:
				x := regs[in.b]
				if x.Kind != dex.KindInt {
					err = typeFault(qm, pc, x.Kind)
					goto fault
				}
				regs[in.a] = dex.Int64(^x.Int)

			case qAddK:
				x := regs[in.b]
				if x.Kind != dex.KindInt {
					err = typeFault(qm, pc, x.Kind)
					goto fault
				}
				regs[in.a] = dex.Int64(x.Int + in.imm)

			case qIfEq:
				if regs[in.a].Equal(regs[in.b]) {
					pc = int(in.c)
					continue run
				}
				pc++
				continue run

			case qIfNe:
				if !regs[in.a].Equal(regs[in.b]) {
					pc = int(in.c)
					continue run
				}
				pc++
				continue run

			case qIfLt:
				x := &regs[in.a]
				if x.Kind != dex.KindInt {
					err = typeFault(qm, pc, x.Kind)
					goto fault
				}
				y := &regs[in.b]
				if y.Kind != dex.KindInt {
					err = typeFault(qm, pc, y.Kind)
					goto fault
				}
				if x.Int < y.Int {
					pc = int(in.c)
					continue run
				}
				pc++
				continue run

			case qIfLe:
				x := &regs[in.a]
				if x.Kind != dex.KindInt {
					err = typeFault(qm, pc, x.Kind)
					goto fault
				}
				y := &regs[in.b]
				if y.Kind != dex.KindInt {
					err = typeFault(qm, pc, y.Kind)
					goto fault
				}
				if x.Int <= y.Int {
					pc = int(in.c)
					continue run
				}
				pc++
				continue run

			case qIfGt:
				x := &regs[in.a]
				if x.Kind != dex.KindInt {
					err = typeFault(qm, pc, x.Kind)
					goto fault
				}
				y := &regs[in.b]
				if y.Kind != dex.KindInt {
					err = typeFault(qm, pc, y.Kind)
					goto fault
				}
				if x.Int > y.Int {
					pc = int(in.c)
					continue run
				}
				pc++
				continue run

			case qIfGe:
				x := &regs[in.a]
				if x.Kind != dex.KindInt {
					err = typeFault(qm, pc, x.Kind)
					goto fault
				}
				y := &regs[in.b]
				if y.Kind != dex.KindInt {
					err = typeFault(qm, pc, y.Kind)
					goto fault
				}
				if x.Int >= y.Int {
					pc = int(in.c)
					continue run
				}
				pc++
				continue run

			case qIfEqz:
				if !regs[in.a].Truthy() {
					pc = int(in.c)
					continue run
				}
				pc++
				continue run

			case qIfNez:
				if regs[in.a].Truthy() {
					pc = int(in.c)
					continue run
				}
				pc++
				continue run

			case qGoto:
				pc = int(in.c)
				continue run

			case qSwitch:
				x := regs[in.a]
				if x.Kind != dex.KindInt {
					err = typeFault(qm, pc, x.Kind)
					goto fault
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
				continue run

			case qSwitchMissing:
				if x := regs[in.a]; x.Kind != dex.KindInt {
					err = typeFault(qm, pc, x.Kind)
				} else {
					err = qfault(qm, pc, "switch table %d missing", in.imm)
				}
				goto fault

			case qInvoke:
				tg := &u.q.targets[in.imm]
				res, err := v.qcall(tg.u, inPayload, tg.qm, regs[in.b:int(in.b)+int(in.c)], depth+1)
				if err != nil {
					return dex.Nil(), err
				}
				if in.a != -1 {
					regs[in.a] = res
				}
				pc++
				continue run

			case qInvokeUnresolved:
				err = qfault(qm, pc, "unresolved invoke %q", u.file.Str(in.imm))
				goto fault

			case qInvokeBadWindow, qCallAPIBadWindow:
				err = qfault(qm, pc, "arg window [%d,%d) outside %d registers",
					in.b, int(in.b)+int(in.c), len(regs))
				goto fault

			case qCallAPINop:
				// Nothing can see the call, so its whole effect is the
				// clock charge and the nil result. Hooks or observers
				// installed since quickening take the full path below.
				if len(v.hooks) == 0 && len(v.observers) == 0 {
					v.clock += dex.API(in.imm).Cost()
					if in.a != -1 {
						regs[in.a] = dex.Value{}
					}
					pc++
					continue run
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
				pc++
				continue run

			case qReturn:
				return regs[in.a], nil

			case qReturnVoid:
				return dex.Nil(), nil

			case qGetStatic:
				regs[in.a] = v.staticVals[in.imm]

			case qPutStatic:
				v.staticVals[in.imm] = regs[in.a]

			case qPutStaticNew:
				v.staticVals[in.imm] = regs[in.a]
				v.staticSet[in.imm] = true

			case qNewArr:
				x := regs[in.b]
				if x.Kind != dex.KindInt {
					err = typeFault(qm, pc, x.Kind)
					goto fault
				}
				if x.Int < 0 || x.Int > 1<<20 {
					err = qfault(qm, pc, "bad array length %d", x.Int)
					goto fault
				}
				regs[in.a] = dex.NewArr(int(x.Int))

			case qALoad:
				arr := regs[in.b]
				a := arr.Arr()
				if a == nil {
					err = qfault(qm, pc, "aload on %s", arr.Kind)
					goto fault
				}
				iv := regs[in.c]
				if iv.Kind != dex.KindInt {
					err = typeFault(qm, pc, iv.Kind)
					goto fault
				}
				if iv.Int < 0 || int(iv.Int) >= len(*a) {
					err = qfault(qm, pc, "index %d out of bounds %d", iv.Int, len(*a))
					goto fault
				}
				regs[in.a] = (*a)[iv.Int]

			case qAStore:
				arr := regs[in.a]
				a := arr.Arr()
				if a == nil {
					err = qfault(qm, pc, "astore on %s", arr.Kind)
					goto fault
				}
				iv := regs[in.b]
				if iv.Kind != dex.KindInt {
					err = typeFault(qm, pc, iv.Kind)
					goto fault
				}
				if iv.Int < 0 || int(iv.Int) >= len(*a) {
					err = qfault(qm, pc, "index %d out of bounds %d", iv.Int, len(*a))
					goto fault
				}
				(*a)[iv.Int] = regs[in.c]

			case qArrLen:
				arr := regs[in.b]
				a := arr.Arr()
				if a == nil {
					err = qfault(qm, pc, "arr-len on %s", arr.Kind)
					goto fault
				}
				regs[in.a] = dex.Int64(int64(len(*a)))

			// The second half of a fused pair runs at pc+1, inside the
			// same run; a fault there is at pc+1.

			case qFuseConstArith:
				regs[in.a] = dex.Int64(in.imm)
				pc++
				if r, ok := intArith(in.op2, regs, in.b2, in.c2); ok {
					regs[in.a2] = dex.Int64(r)
				} else if err = qarith(qm, pc, in.op2, regs, in.a2, in.b2, in.c2); err != nil {
					goto fault
				}

			case qFuseConstIf:
				regs[in.a] = dex.Int64(in.imm)
				pc++
				taken := false
				if taken, err = qcond(qm, pc, in.op2, regs, in.a2, in.b2); err != nil {
					goto fault
				}
				if taken {
					pc = int(in.c2)
					continue run
				}
				pc++
				continue run

			case qFuseALoadArith:
				arr := regs[in.b]
				a := arr.Arr()
				if a == nil {
					err = qfault(qm, pc, "aload on %s", arr.Kind)
					goto fault
				}
				iv := regs[in.c]
				if iv.Kind != dex.KindInt {
					err = typeFault(qm, pc, iv.Kind)
					goto fault
				}
				if iv.Int < 0 || int(iv.Int) >= len(*a) {
					err = qfault(qm, pc, "index %d out of bounds %d", iv.Int, len(*a))
					goto fault
				}
				regs[in.a] = (*a)[iv.Int]
				pc++
				if r, ok := intArith(in.op2, regs, in.b2, in.c2); ok {
					regs[in.a2] = dex.Int64(r)
				} else if err = qarith(qm, pc, in.op2, regs, in.a2, in.b2, in.c2); err != nil {
					goto fault
				}

			case qFuseArithIf:
				if r, ok := intArith(in.srcOp, regs, in.b, in.c); ok {
					regs[in.a] = dex.Int64(r)
				} else if err = qarith(qm, pc, in.srcOp, regs, in.a, in.b, in.c); err != nil {
					goto fault
				}
				pc++
				taken := false
				if taken, err = qcond(qm, pc, in.op2, regs, in.a2, in.b2); err != nil {
					goto fault
				}
				if taken {
					pc = int(in.c2)
					continue run
				}
				pc++
				continue run

			case qEnvInt, qEnvStr:
				regs[in.a] = u.q.strs[in.imm]
				res, err := v.envRead(u, inPayload, qm, in, regs, depth)
				if err != nil {
					return dex.Nil(), err
				}
				if in.a2 != -1 {
					regs[in.a2] = res
				}
				pc += 2
				continue run

			default:
				err = qfault(qm, pc, "invalid opcode %d", in.srcOp)
				goto fault
			}
			pc++
			in = &code[pc]
		}
	}

fault:
	if r := int(code[pc].run); r > 1 {
		// The run was charged whole: take back the instructions after
		// pc that the fault kept from running.
		v.steps -= int64(r - 1)
		v.clock -= int64(r - 1)
		if v.obsOps != nil {
			v.tallyRun(qm.m, pc+1, r-1, -1)
		}
	}
	return dex.Nil(), err
}

// tallyRun adds d to the obs counts of the n source opcodes from pc on;
// quickened pcs are source pcs. qEnd and qTrap lie past the source and
// have run 0, so the loop never indexes there.
func (v *VM) tallyRun(m *dex.Method, pc, n int, d int64) {
	for i := pc; i < pc+n; i++ {
		v.obsOps[m.Code[i].Op] += d
	}
}

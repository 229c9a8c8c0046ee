package vm

import (
	"fmt"

	"bombdroid/internal/dex"
)

// Invoke runs a method of the installed app by full name, resetting
// the step budget. It is the entry point drivers (fuzzers, user
// sessions, attacks) use to dispatch events.
//
// Invoke never panics: malformed bytecode that slipped past
// validation (or was corrupted in memory after it) surfaces as a
// RuntimeError, the same fate as any other bytecode-level fault.
func (v *VM) Invoke(full string, args ...dex.Value) (res dex.Value, err error) {
	mk := v.arena.mark()
	defer func() {
		if r := recover(); r != nil {
			// The panic skipped the unwound frames' arena releases.
			v.arena.release(mk)
			res = dex.Nil()
			err = &RuntimeError{Method: full, PC: -1,
				Reason: fmt.Sprintf("contained panic: %v", r)}
		}
	}()
	v.steps = 0
	if v.opts.Reference {
		m, ok := v.app.methods[full]
		if !ok {
			return dex.Nil(), fmt.Errorf("vm: no such method %q", full)
		}
		res, err = v.call(v.app, "", m, args, 0)
	} else {
		qm := v.app.q.byName[full]
		if qm == nil {
			return dex.Nil(), fmt.Errorf("vm: no such method %q", full)
		}
		res, err = v.qcall(v.app, "", qm, args, 0)
	}
	if v.obsInvokes != nil {
		// Dispatch-time profile in virtual ticks: one buffered
		// observation per top-level Invoke, published with the opcode
		// accumulator by FlushObs — the whole Invoke path is free of
		// atomics.
		v.obsInvokesBuf++
		v.obsInvokeSteps.Observe(v.steps)
	}
	return res, err
}

// maxFrameRegs bounds a single frame's register file — far above
// anything generated code uses, low enough that a corrupt register
// count cannot exhaust memory before validation would have caught it.
const maxFrameRegs = 1 << 16

// call executes one frame on the reference interpreter. inPayload
// carries the payload class name when executing decrypted bomb code.
func (v *VM) call(u *unit, inPayload string, m *dex.Method, args []dex.Value, depth int) (dex.Value, error) {
	if depth > v.opts.MaxDepth {
		return dex.Nil(), ErrDepth
	}
	if len(args) != m.NumArgs {
		return dex.Nil(), &RuntimeError{Method: m.FullName(), PC: -1,
			Reason: fmt.Sprintf("arity mismatch: got %d args, want %d", len(args), m.NumArgs)}
	}
	if m.NumRegs < 0 || m.NumRegs > maxFrameRegs {
		return dex.Nil(), &RuntimeError{Method: m.FullName(), PC: -1,
			Reason: fmt.Sprintf("register count %d outside [0,%d]", m.NumRegs, maxFrameRegs)}
	}
	if v.opts.Profile {
		v.profile[m.FullName()]++
	}
	// Frames recycle retired register files instead of allocating one
	// per call — the dominant per-Invoke allocation (BenchmarkInvoke).
	// Returned Values are struct copies and arrays have their own
	// backing store, so nothing escapes the frame through the slice.
	regs := v.getRegs(m.NumRegs)
	defer v.putRegs(regs)
	copy(regs, args)
	return v.exec(u, inPayload, m, regs, depth, 0)
}

// exec runs m's code over the frame regs from pc on, one instruction at
// a time: the reference dispatch loop. The quickened loop also hands it
// the rest of a frame once the budget no longer covers the next run.
func (v *VM) exec(u *unit, inPayload string, m *dex.Method, regs []dex.Value, depth int, pc int) (dex.Value, error) {
	fault := func(pc int, format string, a ...any) error {
		return &RuntimeError{Method: m.FullName(), PC: pc, Reason: fmt.Sprintf(format, a...)}
	}
	intOf := func(pc int, val dex.Value) (int64, error) {
		if val.Kind != dex.KindInt {
			return 0, fault(pc, "expected int, got %s", val.Kind)
		}
		return val.Int, nil
	}

	code := m.Code
	for {
		if pc < 0 || pc >= len(code) {
			return dex.Nil(), fault(pc, "control fell outside the method")
		}
		v.steps++
		v.clock++
		if v.steps > v.opts.MaxSteps {
			return dex.Nil(), ErrBudget
		}
		in := code[pc]
		if v.obsOps != nil {
			v.obsOps[in.Op]++
		}
		if v.trace != nil {
			v.recordTrace(m.FullName(), pc, in.Op, inPayload)
		}
		switch in.Op {
		case dex.OpNop:

		case dex.OpConstInt:
			regs[in.A] = dex.Int64(in.Imm)

		case dex.OpConstStr:
			regs[in.A] = dex.Str(u.file.Str(in.Imm))

		case dex.OpMove:
			regs[in.A] = regs[in.B]

		case dex.OpAdd, dex.OpSub, dex.OpMul, dex.OpDiv, dex.OpRem,
			dex.OpAnd, dex.OpOr, dex.OpXor, dex.OpShl, dex.OpShr:
			x, err := intOf(pc, regs[in.B])
			if err != nil {
				return dex.Nil(), err
			}
			y, err := intOf(pc, regs[in.C])
			if err != nil {
				return dex.Nil(), err
			}
			r, err := arith(in.Op, x, y)
			if err != nil {
				return dex.Nil(), fault(pc, "%v", err)
			}
			regs[in.A] = dex.Int64(r)

		case dex.OpNeg:
			x, err := intOf(pc, regs[in.B])
			if err != nil {
				return dex.Nil(), err
			}
			regs[in.A] = dex.Int64(-x)

		case dex.OpNot:
			x, err := intOf(pc, regs[in.B])
			if err != nil {
				return dex.Nil(), err
			}
			regs[in.A] = dex.Int64(^x)

		case dex.OpAddK:
			x, err := intOf(pc, regs[in.B])
			if err != nil {
				return dex.Nil(), err
			}
			regs[in.A] = dex.Int64(x + in.Imm)

		case dex.OpIfEq:
			if regs[in.A].Equal(regs[in.B]) {
				pc = int(in.C)
				continue
			}

		case dex.OpIfNe:
			if !regs[in.A].Equal(regs[in.B]) {
				pc = int(in.C)
				continue
			}

		case dex.OpIfLt, dex.OpIfLe, dex.OpIfGt, dex.OpIfGe:
			x, err := intOf(pc, regs[in.A])
			if err != nil {
				return dex.Nil(), err
			}
			y, err := intOf(pc, regs[in.B])
			if err != nil {
				return dex.Nil(), err
			}
			var taken bool
			switch in.Op {
			case dex.OpIfLt:
				taken = x < y
			case dex.OpIfLe:
				taken = x <= y
			case dex.OpIfGt:
				taken = x > y
			default:
				taken = x >= y
			}
			if taken {
				pc = int(in.C)
				continue
			}

		case dex.OpIfEqz:
			if !regs[in.A].Truthy() {
				pc = int(in.C)
				continue
			}

		case dex.OpIfNez:
			if regs[in.A].Truthy() {
				pc = int(in.C)
				continue
			}

		case dex.OpGoto:
			pc = int(in.C)
			continue

		case dex.OpSwitch:
			x, err := intOf(pc, regs[in.A])
			if err != nil {
				return dex.Nil(), err
			}
			if in.Imm < 0 || in.Imm >= int64(len(m.Tables)) {
				return dex.Nil(), fault(pc, "switch table %d missing", in.Imm)
			}
			t := m.Tables[in.Imm]
			target := t.Default
			for _, cs := range t.Cases {
				if cs.Match == x {
					target = cs.Target
					break
				}
			}
			pc = int(target)
			continue

		case dex.OpInvoke:
			name := u.file.Str(in.Imm)
			callee, cu := v.resolve(u, name)
			if callee == nil {
				return dex.Nil(), fault(pc, "unresolved invoke %q", name)
			}
			if in.B < 0 || in.C < 0 || int(in.B)+int(in.C) > len(regs) {
				return dex.Nil(), fault(pc, "arg window [%d,%d) outside %d registers", in.B, int(in.B)+int(in.C), len(regs))
			}
			callArgs := regs[in.B : int(in.B)+int(in.C)]
			res, err := v.call(cu, inPayload, callee, callArgs, depth+1)
			if err != nil {
				return dex.Nil(), err
			}
			if in.A != -1 {
				regs[in.A] = res
			}

		case dex.OpCallAPI:
			if in.B < 0 || in.C < 0 || int(in.B)+int(in.C) > len(regs) {
				return dex.Nil(), fault(pc, "arg window [%d,%d) outside %d registers", in.B, int(in.B)+int(in.C), len(regs))
			}
			callArgs := regs[in.B : int(in.B)+int(in.C)]
			res, err := v.callAPI(u, inPayload, m.FullName(), dex.API(in.Imm), callArgs, depth)
			if err != nil {
				return dex.Nil(), err
			}
			if in.A != -1 {
				regs[in.A] = res
			}

		case dex.OpReturn:
			return regs[in.A], nil

		case dex.OpReturnVoid:
			return dex.Nil(), nil

		case dex.OpGetStatic:
			regs[in.A] = v.Static(u.file.Str(in.Imm))

		case dex.OpPutStatic:
			v.SetStatic(u.file.Str(in.Imm), regs[in.A])

		case dex.OpNewArr:
			n, err := intOf(pc, regs[in.B])
			if err != nil {
				return dex.Nil(), err
			}
			if n < 0 || n > 1<<20 {
				return dex.Nil(), fault(pc, "bad array length %d", n)
			}
			regs[in.A] = dex.NewArr(int(n))

		case dex.OpALoad:
			arr := regs[in.B]
			a := arr.Arr()
			if a == nil {
				return dex.Nil(), fault(pc, "aload on %s", arr.Kind)
			}
			i, err := intOf(pc, regs[in.C])
			if err != nil {
				return dex.Nil(), err
			}
			if i < 0 || int(i) >= len(*a) {
				return dex.Nil(), fault(pc, "index %d out of bounds %d", i, len(*a))
			}
			regs[in.A] = (*a)[i]

		case dex.OpAStore:
			arr := regs[in.A]
			a := arr.Arr()
			if a == nil {
				return dex.Nil(), fault(pc, "astore on %s", arr.Kind)
			}
			i, err := intOf(pc, regs[in.B])
			if err != nil {
				return dex.Nil(), err
			}
			if i < 0 || int(i) >= len(*a) {
				return dex.Nil(), fault(pc, "index %d out of bounds %d", i, len(*a))
			}
			(*a)[i] = regs[in.C]

		case dex.OpArrLen:
			arr := regs[in.B]
			a := arr.Arr()
			if a == nil {
				return dex.Nil(), fault(pc, "arr-len on %s", arr.Kind)
			}
			regs[in.A] = dex.Int64(int64(len(*a)))

		default:
			return dex.Nil(), fault(pc, "invalid opcode %d", in.Op)
		}
		pc++
	}
}

// resolve finds an invoke target: the calling unit's own methods
// first (payload-local helpers), then the app. Both namespaces are
// flattened into the unit's resolved table at load time, so the hot
// path is one lookup.
func (v *VM) resolve(u *unit, name string) (*dex.Method, *unit) {
	if r, ok := u.resolved[name]; ok {
		return r.m, r.u
	}
	return nil, nil
}

func arith(op dex.Op, x, y int64) (int64, error) {
	switch op {
	case dex.OpAdd:
		return x + y, nil
	case dex.OpSub:
		return x - y, nil
	case dex.OpMul:
		return x * y, nil
	case dex.OpDiv:
		if y == 0 {
			return 0, fmt.Errorf("division by zero")
		}
		return x / y, nil
	case dex.OpRem:
		if y == 0 {
			return 0, fmt.Errorf("remainder by zero")
		}
		return x % y, nil
	case dex.OpAnd:
		return x & y, nil
	case dex.OpOr:
		return x | y, nil
	case dex.OpXor:
		return x ^ y, nil
	case dex.OpShl:
		return x << (uint64(y) & 63), nil
	case dex.OpShr:
		return x >> (uint64(y) & 63), nil
	}
	return 0, fmt.Errorf("not an arithmetic op: %s", op)
}

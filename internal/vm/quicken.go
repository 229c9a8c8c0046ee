package vm

import (
	"sort"

	"bombdroid/internal/android"
	"bombdroid/internal/dex"
)

// This file implements the load-time quickening pass: every method's
// dex code is rewritten once, at class load, into an internal
// executable form the dispatch loop in qexec.go runs directly.
//
// The rewrite buys four things the generic interpreter pays for on
// every executed instruction:
//
//   - Operand resolution. OpInvoke/OpConstStr/OpGetStatic/OpPutStatic
//     carry string-pool indices; the reference loop turns those into a
//     pool read plus a map probe per execution. Quickening resolves
//     them once: invokes become indices into a per-unit target table
//     (riding the flattened resolved table built at link time),
//     statics become slot numbers in a per-VM value array, and const
//     strings become prebuilt dex.Values.
//
//   - Control-flow safety without a hot bounds check. All branch and
//     switch targets are range-checked here. qcode is parallel-indexed
//     with the original pcs, followed by an end sentinel at len(code)
//     and one trap instruction per distinct out-of-range target; bad
//     targets are rewritten to their trap, which reproduces the
//     reference bounds-check fault (same message, same PC = the
//     original bad target) only if the jump is actually taken. The
//     dispatch loop therefore never needs `pc < 0 || pc >= len` per
//     instruction.
//
//   - Per-run metering. Each instruction records how many steps run
//     from it to the next branch, call, return or fault (markRuns), so
//     an unwatched VM charges a straight-line run once, on entry.
//
//   - Superinstructions. The dominant dyads in the generated corpus
//     (per the obs opcode counters: const-int feeding arithmetic or a
//     compare-and-branch, aload feeding arithmetic, arithmetic feeding
//     a compare-and-branch) fuse into single handlers; the run that
//     holds both halves charges their steps, ticks and obs counts, and
//     a fault in the first half takes back the second's.
//     Fusion never relocates code: the fused instruction lives at the
//     first pc and the second pc keeps its plain form, so a jump into
//     the middle of a pair executes the unfused second instruction —
//     no branch-target analysis or pc remapping required. An env read
//     of a constant name (const-str, then getEnvInt or getEnvString on
//     it) fuses too, carrying the name's android catalog index.
//
// Quickening is total: it never rejects code. Malformed input that
// validation would refuse (fuzzed or corrupted-in-memory images) is
// rewritten to forms that fault at execution time with byte-identical
// errors to the reference interpreter, enforced by the differential
// harness in differential_test.go.

// qop is an internal (quickened) opcode.
type qop uint8

const (
	// qEnd sits at index len(code): control fell off the end of the
	// method. qTrap replaces an out-of-range branch target; its imm
	// holds the original target for the fault message. Both charge
	// nothing, mirroring the reference loop's bounds check: their run
	// is 0.
	qEnd qop = iota
	qTrap

	qNop
	qConstInt
	qConstStr
	qMove
	qArith
	qNeg
	qNot
	qAddK
	qIfEq
	qIfNe
	qIfLt
	qIfLe
	qIfGt
	qIfGe
	qIfEqz
	qIfNez
	qGoto
	qSwitch
	qSwitchMissing
	qInvoke
	qInvokeUnresolved
	qInvokeBadWindow
	qCallAPI
	qCallAPINop // a dex.API CostOnly call: charge the cost, result nil
	qCallAPIBadWindow
	qReturn
	qReturnVoid
	qGetStatic
	qPutStatic    // slot set when quickened: the flag can never change
	qPutStaticNew // slot unset when quickened: the put sets its flag
	qNewArr
	qALoad
	qAStore
	qArrLen
	qBadOp

	// Fused superinstructions: first half's operands in a/b/c/imm,
	// second half's in op2/a2/b2/c2.
	qFuseConstArith // const-int ; arith
	qFuseConstIf    // const-int ; if
	qFuseALoadArith // aload ; arith
	qFuseArithIf    // arith ; if

	// const-str rX, name ; call-api getEnvInt|getEnvString [rX,1): a
	// and imm are the const-str's, b the name's android catalog index,
	// a2 the call's result register.
	qEnvInt
	qEnvStr
)

// qinstr is one quickened instruction. srcOp keeps the original
// opcode as the operation selector for qArith and the fault message of
// qBadOp; op2 and the *2 operands carry the second half of a fused
// pair. run is the number of steps from this instruction through the
// end of its straight-line run (see markRuns); it fills what was
// padding, so a qinstr stays 40 bytes.
type qinstr struct {
	op         qop
	srcOp      dex.Op
	op2        dex.Op
	a, b, c    int32
	a2, b2, c2 int32
	run        uint32
	imm        int64
}

// qtable is a switch table sorted by match value for binary search.
// Duplicated match values keep their original order (stable sort +
// leftmost-equal search), preserving the reference first-match-wins
// linear scan. All targets, including def, are already range-checked
// and trap-rewritten.
type qtable struct {
	matches []int64
	targets []int32
	def     int32
}

// qmethod is one quickened method. full is the precomputed
// "Class.Method" name reused by the profile, RuntimeError, and
// APICall paths, which otherwise re-format it per call. idx is the
// method's slot in the VM's dense profile counters (VM.profDense) for
// app-image methods, and -1 for payload methods, which count into the
// profile map by name. perInstr sends the method to the reference
// interpreter: it names a register outside its frame, or has a source
// opcode at or past dex.NumOps, which an obs tally would index with,
// so it may panic mid-run.
type qmethod struct {
	m        *dex.Method
	full     string
	idx      int
	perInstr bool
	code     []qinstr
	tables   []qtable
}

// qtarget is one pre-resolved invoke target.
type qtarget struct {
	qm *qmethod
	u  *unit
}

// qprog is a unit's quickened program: its methods plus the shared
// operand tables quickened code indexes into.
type qprog struct {
	byName   map[string]*qmethod
	byMethod map[*dex.Method]*qmethod
	targets  []qtarget
	// strs pre-wraps the string pool as dex.Values; the extra final
	// slot holds "" so out-of-range const-str indices (possible in
	// unvalidated code) stay a plain array read.
	strs []dex.Value
}

// slotFunc assigns (or looks up) the static slot for a "Class.Field"
// name and reports whether the slot is already set (declared or
// written). A set slot stays set, so a put to it never needs to touch
// the flag again.
type slotFunc func(name string) (slot int32, set bool)

// quickenUnit builds u.q. For the shared app image slotFor fills the
// image's slot table, for payload units loaded at runtime it extends
// the owning VM's. Invoke targets resolve through u.resolved, so
// buildResolved must have run first.
func quickenUnit(u *unit, slotFor slotFunc) {
	q := &qprog{
		byName:   make(map[string]*qmethod, len(u.methods)),
		byMethod: make(map[*dex.Method]*qmethod, len(u.methods)),
	}
	q.strs = make([]dex.Value, len(u.file.Strings)+1)
	for i, s := range u.file.Strings {
		q.strs[i] = dex.Str(s)
	}
	q.strs[len(u.file.Strings)] = dex.Str("")
	u.q = q

	// Phase 1: shells, so self- and mutually-recursive invoke targets
	// resolve to stable *qmethod pointers during phase 2.
	for name, m := range u.methods {
		qm := &qmethod{m: m, full: name, idx: -1}
		q.byName[name] = qm
		q.byMethod[m] = qm
	}
	// Phase 2 in file order: the targets table layout must not depend
	// on map iteration order.
	for _, m := range u.file.Methods() {
		if qm := q.byMethod[m]; qm != nil {
			quickenMethod(u, qm, slotFor)
		}
	}
}

// quickenMethod rewrites one method's code.
func quickenMethod(u *unit, qm *qmethod, slotFor slotFunc) {
	m := qm.m
	n := len(m.Code)
	code := make([]qinstr, n+1)
	code[n] = qinstr{op: qEnd}
	traps := map[int32]int32{}
	// target range-checks a branch target. Targets in [0, n] encode
	// directly — n is the end sentinel, which faults exactly like the
	// reference `pc >= len(code)` check. Anything else becomes a trap.
	target := func(t int32) int32 {
		if t >= 0 && int(t) <= n {
			return t
		}
		ti, ok := traps[t]
		if !ok {
			ti = int32(len(code))
			code = append(code, qinstr{op: qTrap, imm: int64(t)})
			traps[t] = ti
		}
		return ti
	}

	for pc := 0; pc < n; pc++ {
		in := m.Code[pc]
		qi := qinstr{srcOp: in.Op, a: in.A, b: in.B, c: in.C, imm: in.Imm}
		switch {
		case in.Op == dex.OpNop:
			qi.op = qNop
		case in.Op == dex.OpConstInt:
			qi.op = qConstInt
		case in.Op == dex.OpConstStr:
			qi.op = qConstStr
			if in.Imm < 0 || in.Imm >= int64(len(u.file.Strings)) {
				qi.imm = int64(len(u.file.Strings)) // the shared "" slot
			}
		case in.Op == dex.OpMove:
			qi.op = qMove
		case in.Op.IsArith():
			qi.op = qArith
		case in.Op == dex.OpNeg:
			qi.op = qNeg
		case in.Op == dex.OpNot:
			qi.op = qNot
		case in.Op == dex.OpAddK:
			qi.op = qAddK
		case in.Op.IsIfCmp(), in.Op == dex.OpIfEqz, in.Op == dex.OpIfNez, in.Op == dex.OpGoto:
			qi.op = qIfEq + qop(in.Op-dex.OpIfEq)
			qi.c = target(in.C)
		case in.Op == dex.OpSwitch:
			if in.Imm < 0 || in.Imm >= int64(len(m.Tables)) {
				qi.op = qSwitchMissing // imm keeps the index for the message
			} else {
				qi.op = qSwitch
				qi.imm = int64(len(qm.tables))
				qm.tables = append(qm.tables, quickenTable(m.Tables[in.Imm], target))
			}
		case in.Op == dex.OpInvoke:
			r, ok := u.resolved[u.file.Str(in.Imm)]
			var tq *qmethod
			if ok {
				tq = r.u.q.byMethod[r.m]
			}
			switch {
			case tq == nil:
				qi.op = qInvokeUnresolved // imm keeps the string index
			case in.B < 0 || in.C < 0 || int(in.B)+int(in.C) > m.NumRegs:
				qi.op = qInvokeBadWindow
			default:
				qi.op = qInvoke
				qi.imm = int64(len(u.q.targets))
				u.q.targets = append(u.q.targets, qtarget{qm: tq, u: r.u})
			}
		case in.Op == dex.OpCallAPI:
			switch {
			case in.B < 0 || in.C < 0 || int(in.B)+int(in.C) > m.NumRegs:
				qi.op = qCallAPIBadWindow
			case dex.API(in.Imm).CostOnly():
				qi.op = qCallAPINop
			default:
				qi.op = qCallAPI
			}
		case in.Op == dex.OpReturn:
			qi.op = qReturn
		case in.Op == dex.OpReturnVoid:
			qi.op = qReturnVoid
		case in.Op == dex.OpGetStatic:
			qi.op = qGetStatic
			slot, _ := slotFor(u.file.Str(in.Imm))
			qi.imm = int64(slot)
		case in.Op == dex.OpPutStatic:
			slot, set := slotFor(u.file.Str(in.Imm))
			qi.op = qPutStaticNew
			if set {
				qi.op = qPutStatic
			}
			qi.imm = int64(slot)
		case in.Op == dex.OpNewArr:
			qi.op = qNewArr
		case in.Op == dex.OpALoad:
			qi.op = qALoad
		case in.Op == dex.OpAStore:
			qi.op = qAStore
		case in.Op == dex.OpArrLen:
			qi.op = qArrLen
		default:
			qi.op = qBadOp
		}
		code[pc] = qi
	}

	markRuns(qm, code[:n])

	// Fusion pass. Greedy over every position: replacing code[pc] with
	// a fused form leaves code[pc+1] intact, so overlapping pairs and
	// jumps into the middle of a pair both stay correct.
	for pc := 0; pc+1 < n; pc++ {
		first := code[pc]
		second := code[pc+1]
		var fop qop
		switch {
		case first.op == qConstInt && second.op == qArith:
			fop = qFuseConstArith
		case first.op == qConstInt && isQIf(second.op):
			fop = qFuseConstIf
		case first.op == qALoad && second.op == qArith:
			fop = qFuseALoadArith
		case first.op == qArith && isQIf(second.op):
			fop = qFuseArithIf
		case first.op == qConstStr && second.op == qCallAPI && second.b == first.a && second.c == 1:
			// An env read of a constant name: resolve the name once.
			spec := android.Spec(u.q.strs[first.imm].Str())
			switch {
			case spec == nil:
				continue
			case dex.API(second.imm) == dex.APIGetEnvInt:
				fop = qEnvInt
			case dex.API(second.imm) == dex.APIGetEnvStr:
				fop = qEnvStr
			default:
				continue
			}
			first.b = int32(spec.Index)
		default:
			continue
		}
		first.op = fop
		first.op2 = second.srcOp
		first.a2, first.b2, first.c2 = second.a, second.b, second.c
		code[pc] = first
	}
	qm.code = code
}

// markRuns sets each instruction's run and the method's perInstr. A
// run goes from an instruction through the next one that does not
// simply fall through to its successor (straightLine), so the block
// loop can charge the steps and ticks from any point it enters the code
// (pc 0, a branch target, the instruction after a call) up to the next
// control transfer, call, return or fault at once. Runs overlap: one
// entered in the middle ends where the longer one does. A fused pair
// never ends between its halves, since no first half ends a run.
func markRuns(qm *qmethod, code []qinstr) {
	next := uint32(0) // run of the instruction after pc; qEnd charges nothing
	for pc := len(code) - 1; pc >= 0; pc-- {
		in := &code[pc]
		in.run = 1
		if straightLine(in.op) {
			in.run += next
		}
		next = in.run
		if !regsInFrame(in, qm.m.NumRegs) || int(in.srcOp) >= dex.NumOps {
			qm.perInstr = true
		}
	}
}

// straightLine reports whether op always either falls through to the
// next instruction or faults, and reads neither clock nor step count.
func straightLine(op qop) bool {
	switch op {
	case qNop, qConstInt, qConstStr, qMove, qArith, qNeg, qNot, qAddK,
		qGetStatic, qPutStatic, qPutStaticNew, qNewArr, qALoad, qAStore, qArrLen:
		return true
	}
	return false
}

// regsInFrame reports whether every register operand of in lies inside
// a frame of numRegs, so it cannot panic on a register index. (Invoke
// and call-api argument windows are checked when quickened.)
func regsInFrame(in *qinstr, numRegs int) bool {
	ok := func(r int32) bool { return r >= 0 && int(r) < numRegs }
	switch in.op {
	case qConstInt, qConstStr, qGetStatic, qPutStatic, qPutStaticNew,
		qReturn, qIfEqz, qIfNez, qSwitch, qSwitchMissing:
		return ok(in.a)
	case qMove, qNeg, qNot, qAddK, qNewArr, qArrLen,
		qIfEq, qIfNe, qIfLt, qIfLe, qIfGt, qIfGe:
		return ok(in.a) && ok(in.b)
	case qArith, qALoad, qAStore:
		return ok(in.a) && ok(in.b) && ok(in.c)
	case qInvoke, qCallAPI, qCallAPINop:
		return in.a == -1 || ok(in.a)
	}
	return true
}

// isQIf reports whether op is a quickened conditional branch.
func isQIf(op qop) bool { return op >= qIfEq && op <= qIfNez }

// quickenTable sorts one switch table for binary search, range-checking
// every target through the trap allocator.
func quickenTable(t dex.SwitchTable, target func(int32) int32) qtable {
	type pair struct {
		m int64
		t int32
	}
	ps := make([]pair, len(t.Cases))
	for i, cs := range t.Cases {
		ps[i] = pair{cs.Match, target(cs.Target)}
	}
	sort.SliceStable(ps, func(i, j int) bool { return ps[i].m < ps[j].m })
	qt := qtable{
		def:     target(t.Default),
		matches: make([]int64, len(ps)),
		targets: make([]int32, len(ps)),
	}
	for i, p := range ps {
		qt.matches[i] = p.m
		qt.targets[i] = p.t
	}
	return qt
}

package core

import (
	"bombdroid/internal/dex"
	"bombdroid/internal/lockbox"
)

// siteRegs is the scratch register block one bomb site needs. All
// sites within a method share the same block (their lifetimes never
// overlap), so each instrumented method grows by exactly this many
// registers.
const siteRegs = 18

// relSeq assembles a position-independent instruction sequence whose
// branch targets are relative (the form instrument.Splice consumes).
// branchEnd emits a branch that will resolve to "first instruction
// after the sequence".
type relSeq struct {
	ins    []dex.Instr
	endFix []int
}

func (s *relSeq) emit(in dex.Instr) { s.ins = append(s.ins, in) }

func (s *relSeq) constInt(dst int32, v int64) {
	s.emit(dex.Instr{Op: dex.OpConstInt, A: dst, B: -1, C: -1, Imm: v})
}

func (s *relSeq) constStr(f *dex.File, dst int32, str string) {
	s.emit(dex.Instr{Op: dex.OpConstStr, A: dst, B: -1, C: -1, Imm: f.Intern(str)})
}

func (s *relSeq) move(dst, src int32) {
	s.emit(dex.Instr{Op: dex.OpMove, A: dst, B: src, C: -1})
}

func (s *relSeq) callAPI(dst int32, api dex.API, base, argc int32) {
	s.emit(dex.Instr{Op: dex.OpCallAPI, A: dst, B: base, C: argc, Imm: int64(api)})
}

func (s *relSeq) branchEnd(op dex.Op, a, b int32) {
	s.endFix = append(s.endFix, len(s.ins))
	s.emit(dex.Instr{Op: op, A: a, B: b, C: -1})
}

func (s *relSeq) finish() []dex.Instr {
	for _, pc := range s.endFix {
		s.ins[pc].C = int32(len(s.ins))
	}
	return s.ins
}

// triggerSpec describes one outer trigger to materialize.
type triggerSpec struct {
	xReg    int32     // register holding ϕ (or the full string for prefix ops)
	c       dex.Value // the trigger constant
	salt    string
	blobIdx int64
	strOp   dex.API // equals/startsWith/endsWith for string ϕ; 0 otherwise
	// fieldRef, when nonempty, loads ϕ from a static field instead of
	// xReg (artificial QCs).
	fieldRef string
}

// outerTriggerSeq builds the transformed condition and bomb launch:
//
//	if (sha1(ϕ|salt) == Hc) { h = decryptLoad(blob, ϕ, salt); h.run(ϕ) }
//
// in relative form, using scratch registers [base, base+siteRegs).
// The constant c never appears; only Hc and the salt do.
func outerTriggerSeq(f *dex.File, t triggerSpec, base int32) []dex.Instr {
	s := &relSeq{}
	hc := lockbox.HashHex(t.c, t.salt)

	// b7 will hold ϕ's value, b8 the salt (adjacent for the hash call).
	bX := base + 7
	bSalt := base + 8

	switch {
	case t.fieldRef != "":
		s.emit(dex.Instr{Op: dex.OpGetStatic, A: bX, B: -1, C: -1, Imm: f.Intern(t.fieldRef)})
	case t.strOp == dex.APIStrStartsWith || t.strOp == dex.APIStrEndsWith:
		// ϕ is a prefix/suffix of the string in xReg; extract it, with
		// a length guard so short strings bypass the bomb (semantics
		// of startsWith/endsWith are preserved: they are false then).
		litLen := int64(len(t.c.Str()))
		b1 := base + 1 // S
		b2 := base + 2 // len(S)
		b3 := base + 3 // len(lit)
		s.move(b1, t.xReg)
		s.callAPI(b2, dex.APIStrLen, b1, 1)
		s.constInt(b3, litLen)
		s.branchEnd(dex.OpIfLt, b2, b3)
		// Substr(S, lo, hi) with args in a contiguous window b4..b6.
		b4, b5, b6 := base+4, base+5, base+6
		s.move(b4, b1)
		if t.strOp == dex.APIStrStartsWith {
			s.constInt(b5, 0)
			s.move(b6, b3)
		} else {
			s.emit(dex.Instr{Op: dex.OpSub, A: b5, B: b2, C: b3})
			s.move(b6, b2)
		}
		s.callAPI(bX, dex.APIStrSubstr, b4, 3)
	default:
		s.move(bX, t.xReg)
	}

	s.constStr(f, bSalt, t.salt)
	b9 := base + 9 // hash
	s.callAPI(b9, dex.APISHA1Hex, bX, 2)
	b10 := base + 10 // Hc
	s.constStr(f, b10, hc)
	b11 := base + 11
	s.callAPI(b11, dex.APIStrEquals, b9, 2)
	s.branchEnd(dex.OpIfEqz, b11, -1)

	// decryptLoad(blob, ϕ, salt) with window b12..b14.
	b12, b13, b14 := base+12, base+13, base+14
	s.constInt(b12, t.blobIdx)
	s.move(b13, bX)
	s.move(b14, bSalt)
	b15 := base + 15
	s.callAPI(b15, dex.APIDecryptLoad, b12, 3)
	// invokePayload(handle, ϕ) with window b15..b16.
	b16 := base + 16
	s.move(b16, bX)
	s.callAPI(-1, dex.APIInvokePayload, b15, 2)
	return s.finish()
}

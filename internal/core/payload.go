package core

import (
	"fmt"

	"bombdroid/internal/android"
	"bombdroid/internal/dex"
	"bombdroid/internal/instrument"
	"bombdroid/internal/vm"
)

// muteRef is the shared runtime flag §10-muted payloads coordinate
// through. It needs no declaration: unset statics read as nil (falsy)
// and the first PutStatic creates it.
const muteRef = "BombDroidRT.muted"

// payloadSpec describes one payload to build and seal.
type payloadSpec struct {
	id       string // payload class name ("Bomb<N>")
	inner    android.InnerCond
	detect   DetectionMethod
	response vm.ResponseKind
	delayMs  int64

	ko string // developer public key (DetectPublicKey)

	// mute wires the shared §10 muting flag into the payload.
	mute bool

	// DetectDigest / DetectIcon parameters.
	stegoResIdx int64
	digestEntry string // manifest entry compared (DetectIcon)

	// DetectSnippet parameters.
	snippetRef    string
	snippetDigest string

	// Weaving: when weaveFrom != nil, the original guarded region
	// [weaveStart, weaveEnd) of weaveMethod is compiled into the
	// payload tail.
	weaveFrom   *dex.File
	weaveMethod *dex.Method
	weaveStart  int
	weaveEnd    int
	weaveArgReg int32

	// bogus payloads carry only the woven code.
	bogus bool
}

// buildPayload compiles the payload class into its own dex file:
//
//	class Bomb<N> {
//	  run(x) {
//	    if (inner trigger unsatisfied) goto weave      // §6
//	    if (no repackaging detected)  goto weave       // §4.1
//	    <response>                                     // §4.2
//	  weave:
//	    <original guarded app code, if woven>          // §3.4
//	  }
//	}
func buildPayload(spec payloadSpec) (*dex.File, error) {
	pf := dex.NewFile()
	b := dex.NewBuilder(pf, "run", 1)
	b.SetFlags(dex.FlagSynthetic)

	const weaveLbl = "weave"
	if !spec.bogus {
		if spec.mute {
			// Once any bomb has responded, later bombs stay quiet:
			// dynamic analysis stops yielding new bomb locations.
			r := b.Reg()
			b.GetStatic(r, muteRef)
			b.BranchZ(dex.OpIfNez, r, weaveLbl)
		}
		if err := compileInner(b, spec.inner, weaveLbl); err != nil {
			return nil, err
		}
		if err := compileDetection(b, spec, weaveLbl); err != nil {
			return nil, err
		}
		if spec.mute {
			one := b.Reg()
			b.ConstInt(one, 1)
			b.PutStatic(muteRef, one)
		}
		compileResponse(b, spec)
	}
	b.Label(weaveLbl)
	if spec.weaveFrom != nil {
		err := instrument.ExtractRegion(spec.weaveFrom, spec.weaveMethod,
			spec.weaveStart, spec.weaveEnd, spec.weaveArgReg, b, "wend")
		if err != nil {
			return nil, fmt.Errorf("core: weaving %s: %w", spec.id, err)
		}
		b.Label("wend")
	}
	b.ReturnVoid()

	m, err := b.Finish()
	if err != nil {
		return nil, fmt.Errorf("core: payload %s: %w", spec.id, err)
	}
	cls := &dex.Class{Name: spec.id}
	cls.AddMethod(m)
	if err := pf.AddClass(cls); err != nil {
		return nil, err
	}
	if err := dex.Validate(pf); err != nil {
		return nil, fmt.Errorf("core: payload %s invalid: %w", spec.id, err)
	}
	return pf, nil
}

// compileInner emits the environment-sensitive inner trigger: when
// the condition is NOT satisfied, control skips to failLabel (the
// woven code), keeping the detection dormant (paper §6).
func compileInner(b *dex.Builder, ic android.InnerCond, failLabel string) error {
	if len(ic.Constraints) == 0 {
		return nil
	}
	if !ic.AnyOf {
		for _, c := range ic.Constraints {
			if err := compileConstraintFalseJump(b, c, failLabel); err != nil {
				return err
			}
		}
		return nil
	}
	// Disjunction: any satisfied constraint proceeds to detection.
	pass := "innerpass"
	for _, c := range ic.Constraints {
		if err := compileConstraintTrueJump(b, c, pass); err != nil {
			return err
		}
	}
	b.Goto(failLabel)
	b.Label(pass)
	return nil
}

// loadEnv emits the environment read for a constraint, returning the
// register holding the value.
func loadEnv(b *dex.Builder, c android.Constraint) int32 {
	name := b.Reg()
	b.ConstStr(name, c.Var)
	out := b.Reg()
	spec := android.Spec(c.Var)
	if spec != nil && spec.Kind == android.VarStr {
		b.CallAPI(out, dex.APIGetEnvStr, name)
	} else {
		b.CallAPI(out, dex.APIGetEnvInt, name)
	}
	return out
}

func compileConstraintFalseJump(b *dex.Builder, c android.Constraint, target string) error {
	spec := android.Spec(c.Var)
	v := loadEnv(b, c)
	if spec != nil && spec.Kind == android.VarStr {
		lit := b.Reg()
		b.ConstStr(lit, c.StrVal)
		eq := b.Reg()
		b.CallAPI(eq, dex.APIStrEquals, v, lit)
		switch c.Op {
		case android.OpEq:
			b.BranchZ(dex.OpIfEqz, eq, target)
		case android.OpNe:
			b.BranchZ(dex.OpIfNez, eq, target)
		default:
			return fmt.Errorf("core: string constraint with op %v", c.Op)
		}
		return nil
	}
	switch c.Op {
	case android.OpIn:
		lo := b.Reg()
		b.ConstInt(lo, c.Lo)
		b.Branch(dex.OpIfLt, v, lo, target)
		hi := b.Reg()
		b.ConstInt(hi, c.Hi)
		b.Branch(dex.OpIfGt, v, hi, target)
	default:
		k := b.Reg()
		b.ConstInt(k, c.Val)
		var op dex.Op
		switch c.Op {
		case android.OpEq:
			op = dex.OpIfNe
		case android.OpNe:
			op = dex.OpIfEq
		case android.OpLt:
			op = dex.OpIfGe
		case android.OpGt:
			op = dex.OpIfLe
		default:
			return fmt.Errorf("core: unsupported constraint op %v", c.Op)
		}
		b.Branch(op, v, k, target)
	}
	return nil
}

func compileConstraintTrueJump(b *dex.Builder, c android.Constraint, target string) error {
	spec := android.Spec(c.Var)
	v := loadEnv(b, c)
	if spec != nil && spec.Kind == android.VarStr {
		lit := b.Reg()
		b.ConstStr(lit, c.StrVal)
		eq := b.Reg()
		b.CallAPI(eq, dex.APIStrEquals, v, lit)
		switch c.Op {
		case android.OpEq:
			b.BranchZ(dex.OpIfNez, eq, target)
		case android.OpNe:
			b.BranchZ(dex.OpIfEqz, eq, target)
		default:
			return fmt.Errorf("core: string constraint with op %v", c.Op)
		}
		return nil
	}
	switch c.Op {
	case android.OpIn:
		// lo <= v <= hi → jump: implemented as two guards around a
		// fallthrough miss.
		miss := fmt.Sprintf("inmiss%d", b.PC())
		lo := b.Reg()
		b.ConstInt(lo, c.Lo)
		b.Branch(dex.OpIfLt, v, lo, miss)
		hi := b.Reg()
		b.ConstInt(hi, c.Hi)
		b.Branch(dex.OpIfLe, v, hi, target)
		b.Label(miss)
	default:
		k := b.Reg()
		b.ConstInt(k, c.Val)
		var op dex.Op
		switch c.Op {
		case android.OpEq:
			op = dex.OpIfEq
		case android.OpNe:
			op = dex.OpIfNe
		case android.OpLt:
			op = dex.OpIfLt
		case android.OpGt:
			op = dex.OpIfGt
		default:
			return fmt.Errorf("core: unsupported constraint op %v", c.Op)
		}
		b.Branch(op, v, k, target)
	}
	return nil
}

// compileDetection emits the repackaging check; when NO repackaging
// is detected, control jumps to okLabel (so genuine apps never reach
// the response — the zero-false-positive property).
func compileDetection(b *dex.Builder, spec payloadSpec, okLabel string) error {
	switch spec.detect {
	case DetectPublicKey:
		cur := b.Reg()
		b.CallAPI(cur, dex.APIGetPublicKey)
		ko := b.Reg()
		b.ConstStr(ko, spec.ko)
		eq := b.Reg()
		b.CallAPI(eq, dex.APIStrEquals, cur, ko)
		b.BranchZ(dex.OpIfNez, eq, okLabel)

	case DetectDigest:
		name := b.Reg()
		b.ConstStr(name, "classes.dex")
		dr := b.Reg()
		b.CallAPI(dr, dex.APIGetManifestDigest, name)
		// Fragment of the runtime digest.
		lo := b.Reg()
		b.ConstInt(lo, 0)
		hi := b.Reg()
		b.ConstInt(hi, stegoFragLen)
		frag := b.Reg()
		b.CallAPI(frag, dex.APIStrSubstr, dr, lo, hi)
		// Hidden original fragment from strings.xml.
		idx := b.Reg()
		b.ConstInt(idx, spec.stegoResIdx)
		res := b.Reg()
		b.CallAPI(res, dex.APIGetResourceString, idx)
		do := b.Reg()
		b.CallAPI(do, dex.APIStegoExtract, res)
		eq := b.Reg()
		b.CallAPI(eq, dex.APIStrEquals, frag, do)
		b.BranchZ(dex.OpIfNez, eq, okLabel)

	case DetectIcon:
		name := b.Reg()
		b.ConstStr(name, spec.digestEntry)
		dr := b.Reg()
		b.CallAPI(dr, dex.APIGetManifestDigest, name)
		lo := b.Reg()
		b.ConstInt(lo, 0)
		hi := b.Reg()
		b.ConstInt(hi, stegoFragLen)
		frag := b.Reg()
		b.CallAPI(frag, dex.APIStrSubstr, dr, lo, hi)
		idx := b.Reg()
		b.ConstInt(idx, spec.stegoResIdx)
		res := b.Reg()
		b.CallAPI(res, dex.APIGetResourceString, idx)
		do := b.Reg()
		b.CallAPI(do, dex.APIStegoExtract, res)
		eq := b.Reg()
		b.CallAPI(eq, dex.APIStrEquals, frag, do)
		b.BranchZ(dex.OpIfNez, eq, okLabel)

	case DetectSnippet:
		name := b.Reg()
		b.ConstStr(name, spec.snippetRef)
		got := b.Reg()
		b.CallAPI(got, dex.APICodeDigest, name)
		want := b.Reg()
		b.ConstStr(want, spec.snippetDigest)
		eq := b.Reg()
		b.CallAPI(eq, dex.APIStrEquals, got, want)
		b.BranchZ(dex.OpIfNez, eq, okLabel)

	default:
		return fmt.Errorf("core: unknown detection method %v", spec.detect)
	}
	return nil
}

// stegoFragLen is how many hex digits of the dex digest the
// digest-comparison method checks ("unnecessary to compare the
// complete digest value", §4.1).
const stegoFragLen = 16

// compileResponse emits the §4.2 response.
func compileResponse(b *dex.Builder, spec payloadSpec) {
	if spec.delayMs > 0 {
		ms := b.Regs(2)
		b.ConstInt(ms, spec.delayMs)
		b.ConstInt(ms+1, int64(spec.response))
		b.CallAPI(-1, dex.APIDelayBomb, ms, ms+1)
		return
	}
	switch spec.response {
	case vm.RespCrash:
		b.CallAPI(-1, dex.APICrash)
	case vm.RespFreeze:
		ms := b.Reg()
		b.ConstInt(ms, 30_000)
		b.CallAPI(-1, dex.APISpinLoop, ms)
	case vm.RespLeak:
		kb := b.Reg()
		b.ConstInt(kb, 8192)
		b.CallAPI(-1, dex.APILeakMemory, kb)
	case vm.RespWarn:
		msg := b.Reg()
		b.ConstStr(msg, "This copy of the app has been repackaged. Install the official version.")
		b.CallAPI(-1, dex.APIWarnUser, msg)
	case vm.RespReport:
		info := b.Reg()
		b.ConstStr(info, "repackaged:"+spec.id)
		b.CallAPI(-1, dex.APIReportPiracy, info)
	}
}

package symexec

import (
	"fmt"

	"bombdroid/internal/dex"
)

// Options bounds an analysis.
type Options struct {
	MaxPaths int // explored paths per method (default 256)
	MaxSteps int // instructions per path (default 4096)
	// Targets are the sensitive APIs whose reachability the attacker
	// wants inputs for; empty selects the bomb-relevant set.
	Targets []dex.API
}

func (o Options) withDefaults() Options {
	if o.MaxPaths == 0 {
		o.MaxPaths = 256
	}
	if o.MaxSteps == 0 {
		o.MaxSteps = 4096
	}
	if len(o.Targets) == 0 {
		o.Targets = []dex.API{
			dex.APIDecryptLoad, dex.APIGetPublicKey, dex.APIGetManifestDigest,
			dex.APICodeDigest, dex.APIReflectCall, dex.APIDelayBomb,
			dex.APICrash, dex.APIWarnUser, dex.APIReportPiracy,
		}
	}
	return o
}

// Hit is one discovered path to a target API.
type Hit struct {
	Method      string
	PC          int
	API         dex.API
	Constraints []Constraint
	// Solved + Assignment when the solver found concrete inputs;
	// otherwise Reason explains the failure (the interesting case:
	// "uninterpreted function" for hash-guarded paths).
	Solved     bool
	Assignment map[string]dex.Value
	Reason     string
}

// Summary aggregates an analysis.
type Summary struct {
	Methods       int
	PathsExplored int
	Hits          []Hit
}

// SolvedHits returns hits with concrete inputs.
func (s *Summary) SolvedHits() []Hit {
	var out []Hit
	for _, h := range s.Hits {
		if h.Solved {
			out = append(out, h)
		}
	}
	return out
}

// UnsolvableHits returns hits the solver could not satisfy.
func (s *Summary) UnsolvableHits() []Hit {
	var out []Hit
	for _, h := range s.Hits {
		if !h.Solved {
			out = append(out, h)
		}
	}
	return out
}

// state is one path's execution state.
type state struct {
	pc      int
	regs    []*Expr
	statics map[string]*Expr
	path    []Constraint
	steps   int
}

func (s *state) fork() *state {
	n := &state{
		pc:      s.pc,
		regs:    append([]*Expr(nil), s.regs...),
		statics: make(map[string]*Expr, len(s.statics)),
		path:    append([]Constraint(nil), s.path...),
		steps:   s.steps,
	}
	for k, v := range s.statics {
		n.statics[k] = v
	}
	return n
}

// AnalyzeMethod symbolically executes one method with symbolic
// arguments, statics, and environment.
func AnalyzeMethod(f *dex.File, m *dex.Method, opts Options) *Summary {
	opts = opts.withDefaults()
	targets := map[dex.API]bool{}
	for _, t := range opts.Targets {
		targets[t] = true
	}
	sum := &Summary{Methods: 1}
	e := &engine{f: f, m: m, opts: opts, targets: targets, sum: sum}

	init := &state{
		pc:      0,
		regs:    make([]*Expr, m.NumRegs),
		statics: map[string]*Expr{},
	}
	for i := 0; i < m.NumRegs; i++ {
		if i < m.NumArgs {
			init.regs[i] = NewIntSym(fmt.Sprintf("arg%d", i))
		} else {
			init.regs[i] = NewConst(dex.Nil())
		}
	}
	e.run(init)
	return sum
}

// Analyze runs AnalyzeMethod over every non-synthetic method.
func Analyze(f *dex.File, opts Options) *Summary {
	total := &Summary{}
	for _, m := range f.Methods() {
		if m.IsSynthetic() {
			continue
		}
		s := AnalyzeMethod(f, m, opts)
		total.Methods++
		total.PathsExplored += s.PathsExplored
		total.Hits = append(total.Hits, s.Hits...)
	}
	return total
}

type engine struct {
	f       *dex.File
	m       *dex.Method
	opts    Options
	targets map[dex.API]bool
	sum     *Summary
	fresh   int
}

func (e *engine) freshName(prefix string) string {
	e.fresh++
	return fmt.Sprintf("%s#%d", prefix, e.fresh)
}

// run explores paths depth-first from st.
func (e *engine) run(st *state) {
	work := []*state{st}
	for len(work) > 0 && e.sum.PathsExplored < e.opts.MaxPaths {
		cur := work[len(work)-1]
		work = work[:len(work)-1]
		forks := e.step(cur)
		if forks == nil {
			e.sum.PathsExplored++
			continue
		}
		work = append(work, forks...)
	}
}

// step advances one state until it ends or forks; returns successor
// states (nil when the path terminated).
func (e *engine) step(st *state) []*state {
	code := e.m.Code
	for {
		if st.pc < 0 || st.pc >= len(code) || st.steps > e.opts.MaxSteps {
			return nil
		}
		st.steps++
		in := code[st.pc]
		switch in.Op {
		case dex.OpNop:

		case dex.OpConstInt:
			st.regs[in.A] = NewConst(dex.Int64(in.Imm))

		case dex.OpConstStr:
			st.regs[in.A] = NewConst(dex.Str(e.f.Str(in.Imm)))

		case dex.OpMove:
			st.regs[in.A] = st.regs[in.B]

		case dex.OpAdd, dex.OpSub:
			a, aok := asLinear(st.regs[in.B])
			b, bok := asLinear(st.regs[in.C])
			if aok && bok {
				if in.Op == dex.OpSub {
					b = scaleLin(b, -1)
				}
				st.regs[in.A] = addLin(a, b)
			} else {
				st.regs[in.A] = NewOpaque(in.Op.String(), st.regs[in.B], st.regs[in.C])
			}

		case dex.OpMul:
			a, aok := asLinear(st.regs[in.B])
			k, kok := st.regs[in.C].ConstInt()
			if aok && kok {
				st.regs[in.A] = scaleLin(a, k)
			} else if k2, ok2 := st.regs[in.B].ConstInt(); ok2 {
				if b2, ok3 := asLinear(st.regs[in.C]); ok3 {
					st.regs[in.A] = scaleLin(b2, k2)
				} else {
					st.regs[in.A] = NewOpaque("mul", st.regs[in.B], st.regs[in.C])
				}
			} else {
				st.regs[in.A] = NewOpaque("mul", st.regs[in.B], st.regs[in.C])
			}

		case dex.OpRem:
			a, aok := asLinear(st.regs[in.B])
			k, kok := st.regs[in.C].ConstInt()
			if aok && kok && k > 0 {
				st.regs[in.A] = &Expr{Kind: EMod, X: a, K: k}
			} else {
				st.regs[in.A] = NewOpaque("rem", st.regs[in.B], st.regs[in.C])
			}

		case dex.OpAddK:
			if a, ok := asLinear(st.regs[in.B]); ok {
				st.regs[in.A] = addLin(a, NewConst(dex.Int64(in.Imm)))
			} else {
				st.regs[in.A] = NewOpaque("add-k", st.regs[in.B], NewConst(dex.Int64(in.Imm)))
			}

		case dex.OpDiv, dex.OpAnd, dex.OpOr, dex.OpXor, dex.OpShl, dex.OpShr:
			st.regs[in.A] = NewOpaque(in.Op.String(), st.regs[in.B], st.regs[in.C])

		case dex.OpNeg:
			if a, ok := asLinear(st.regs[in.B]); ok {
				st.regs[in.A] = scaleLin(a, -1)
			} else {
				st.regs[in.A] = NewOpaque("neg", st.regs[in.B])
			}

		case dex.OpNot:
			st.regs[in.A] = NewOpaque("not", st.regs[in.B])

		case dex.OpIfEq, dex.OpIfNe, dex.OpIfLt, dex.OpIfLe, dex.OpIfGt, dex.OpIfGe:
			return e.branch(st, in, cmpForOp(in.Op), st.regs[in.A], st.regs[in.B])

		case dex.OpIfEqz, dex.OpIfNez:
			cmp := CmpEq
			if in.Op == dex.OpIfNez {
				cmp = CmpNe
			}
			return e.branch(st, in, cmp, st.regs[in.A], NewConst(dex.Int64(0)))

		case dex.OpGoto:
			st.pc = int(in.C)
			continue

		case dex.OpSwitch:
			return e.switchFork(st, in)

		case dex.OpInvoke:
			// Calls are not inlined: the result is a fresh symbol.
			// (Per-method analysis visits callees independently.)
			if in.A != -1 {
				st.regs[in.A] = NewIntSym(e.freshName("ret:" + e.f.Str(in.Imm)))
			}

		case dex.OpCallAPI:
			e.apiCall(st, in)

		case dex.OpReturn, dex.OpReturnVoid:
			return nil

		case dex.OpGetStatic:
			ref := e.f.Str(in.Imm)
			v, ok := st.statics[ref]
			if !ok {
				v = NewIntSym("field:" + ref)
				st.statics[ref] = v
			}
			st.regs[in.A] = v

		case dex.OpPutStatic:
			st.statics[e.f.Str(in.Imm)] = st.regs[in.A]

		case dex.OpNewArr, dex.OpALoad, dex.OpArrLen:
			st.regs[in.A] = NewIntSym(e.freshName("arr"))

		case dex.OpAStore:
			// Heap writes are not tracked.

		default:
			return nil
		}
		st.pc++
	}
}

func cmpForOp(op dex.Op) CmpKind {
	switch op {
	case dex.OpIfEq:
		return CmpEq
	case dex.OpIfNe:
		return CmpNe
	case dex.OpIfLt:
		return CmpLt
	case dex.OpIfLe:
		return CmpLe
	case dex.OpIfGt:
		return CmpGt
	default:
		return CmpGe
	}
}

// branch forks a state on a comparison; concretely decidable
// comparisons do not fork.
func (e *engine) branch(st *state, in dex.Instr, cmp CmpKind, l, r *Expr) []*state {
	if res, decidable := evalCmpConst(cmp, l, r); decidable {
		if res {
			st.pc = int(in.C)
		} else {
			st.pc++
		}
		return []*state{st}
	}
	taken := st.fork()
	taken.pc = int(in.C)
	taken.path = append(taken.path, Constraint{Cmp: cmp, L: l, R: r})
	st.pc++
	st.path = append(st.path, Constraint{Cmp: cmp.Negate(), L: l, R: r})
	return []*state{st, taken}
}

// evalCmpConst decides a comparison when both sides are concrete.
func evalCmpConst(cmp CmpKind, l, r *Expr) (bool, bool) {
	li, lok := l.ConstInt()
	ri, rok := r.ConstInt()
	if lok && rok {
		switch cmp {
		case CmpEq:
			return li == ri, true
		case CmpNe:
			return li != ri, true
		case CmpLt:
			return li < ri, true
		case CmpLe:
			return li <= ri, true
		case CmpGt:
			return li > ri, true
		default:
			return li >= ri, true
		}
	}
	if l.Kind == EConst && r.Kind == EConst {
		eq := l.Val.Equal(r.Val)
		switch cmp {
		case CmpEq:
			return eq, true
		case CmpNe:
			return !eq, true
		}
	}
	return false, false
}

// switchFork forks a switch into its cases plus default.
func (e *engine) switchFork(st *state, in dex.Instr) []*state {
	if in.Imm < 0 || in.Imm >= int64(len(e.m.Tables)) {
		return nil
	}
	t := e.m.Tables[in.Imm]
	sel := st.regs[in.A]
	if v, ok := sel.ConstInt(); ok {
		st.pc = int(t.Default)
		for _, cs := range t.Cases {
			if cs.Match == v {
				st.pc = int(cs.Target)
			}
		}
		return []*state{st}
	}
	var out []*state
	for _, cs := range t.Cases {
		br := st.fork()
		br.pc = int(cs.Target)
		br.path = append(br.path, Constraint{Cmp: CmpEq, L: sel, R: NewConst(dex.Int64(cs.Match))})
		out = append(out, br)
	}
	def := st.fork()
	def.pc = int(t.Default)
	for _, cs := range t.Cases {
		def.path = append(def.path, Constraint{Cmp: CmpNe, L: sel, R: NewConst(dex.Int64(cs.Match))})
	}
	out = append(out, def)
	return out
}

// apiCall models framework calls symbolically and records target hits.
func (e *engine) apiCall(st *state, in dex.Instr) {
	api := dex.API(in.Imm)
	args := make([]*Expr, in.C)
	for i := int32(0); i < in.C; i++ {
		args[i] = st.regs[in.B+i]
	}
	if e.targets[api] {
		hit := Hit{
			Method:      e.m.FullName(),
			PC:          st.pc,
			API:         api,
			Constraints: append([]Constraint(nil), st.path...),
		}
		hit.Assignment, hit.Solved, hit.Reason = Solve(hit.Constraints)
		e.sum.Hits = append(e.sum.Hits, hit)
	}

	var result *Expr
	switch api {
	case dex.APIRandPercent, dex.APIRandInt, dex.APITimeMillis,
		dex.APIGPSLatE6, dex.APIGPSLonE6, dex.APISensorLight, dex.APISensorTempC:
		// Nondeterministic sources are fresh symbols: probabilistic
		// gates (SSN's rand() < 0.01) cannot stop path exploration.
		result = NewIntSym(e.freshName(api.Name()))
	case dex.APIGetEnvInt:
		result = NewIntSym(e.envName(args, "envi"))
	case dex.APIGetEnvStr:
		result = NewStrSym(e.envName(args, "envs"))
	case dex.APIStrEquals, dex.APIStrStartsWith, dex.APIStrEndsWith, dex.APIStrContains:
		if len(args) == 2 {
			if args[0].IsConst() && args[1].IsConst() {
				result = NewConst(evalStrCmpConst(api, args[0].Val.Str(), args[1].Val.Str()))
			} else {
				result = &Expr{Kind: EStrCmp, API: api, X: args[0], Y: args[1]}
			}
		} else {
			result = NewIntSym(e.freshName("strcmp"))
		}
	case dex.APISHA1Hex:
		// The cryptographic hash is uninterpreted: its output cannot
		// be related to its input by any constraint solver.
		result = NewOpaque("sha1Hex", args...)
	case dex.APIStrLen, dex.APIStrHashCode, dex.APIStrToInt, dex.APIStrCharAt:
		result = NewIntSym(e.freshName(api.Name()))
	case dex.APIStrConcat, dex.APIStrSubstr, dex.APIStrFromInt,
		dex.APIGetPublicKey, dex.APIGetManifestDigest, dex.APIGetResourceString,
		dex.APIStegoExtract, dex.APICodeDigest, dex.APIDeobfuscate, dex.APIReflectCall:
		result = NewStrSym(e.freshName(api.Name()))
	case dex.APIDecryptLoad, dex.APIInvokePayload:
		// Statically opaque: the payload cannot be decrypted offline.
		result = NewOpaque(api.Name(), args...)
	default:
		result = NewConst(dex.Nil())
	}
	if in.A != -1 {
		st.regs[in.A] = result
	}
}

// envName keys environment symbols by variable name when concrete, so
// two reads of the same variable share a symbol.
func (e *engine) envName(args []*Expr, prefix string) string {
	if len(args) == 1 && args[0].IsConst() {
		return prefix + ":" + args[0].Val.Str()
	}
	return e.freshName(prefix)
}

func evalStrCmpConst(api dex.API, a, b string) dex.Value {
	switch api {
	case dex.APIStrEquals:
		return dex.Bool(a == b)
	case dex.APIStrStartsWith:
		return dex.Bool(len(a) >= len(b) && a[:len(b)] == b)
	case dex.APIStrEndsWith:
		return dex.Bool(len(a) >= len(b) && a[len(a)-len(b):] == b)
	default:
		return dex.Bool(strContains(a, b))
	}
}

func strContains(a, b string) bool {
	for i := 0; i+len(b) <= len(a); i++ {
		if a[i:i+len(b)] == b {
			return true
		}
	}
	return false
}

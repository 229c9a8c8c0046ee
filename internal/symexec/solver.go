package symexec

import (
	"fmt"

	"bombdroid/internal/dex"
)

// Solve attempts to satisfy a path's constraints, returning concrete
// symbol assignments. It handles what real trigger-analysis solvers
// handle: linear integer (in)equalities, modular equalities from
// array-index/`% k` arithmetic, and string (in)equality against
// literals. Constraints over uninterpreted functions — cryptographic
// hashes above all — are reported unsolvable with a reason, which is
// precisely the paper's G1 claim.
func Solve(cons []Constraint) (map[string]dex.Value, bool, string) {
	s := &solver{
		eq:     map[string]int64{},
		strEq:  map[string]string{},
		ne:     map[string][]int64{},
		strNe:  map[string][]string{},
		bounds: map[string]*interval{},
	}
	for _, c := range cons {
		if ok, reason := s.add(c); !ok {
			return nil, false, reason
		}
	}
	asg, ok, reason := s.finish()
	if !ok {
		return nil, false, reason
	}
	// Verify: every constraint must evaluate true (or be unevaluable
	// only because of benign Ne-against-opaque forms).
	for _, c := range cons {
		if res, known := evalConstraint(c, asg); known && !res {
			return nil, false, fmt.Sprintf("verification failed for %s", c)
		}
	}
	return asg, true, ""
}

type interval struct {
	lo, hi int64
	hasLo  bool
	hasHi  bool
}

type solver struct {
	eq     map[string]int64
	strEq  map[string]string
	ne     map[string][]int64
	strNe  map[string][]string
	bounds map[string]*interval
}

// add digests one constraint.
func (s *solver) add(c Constraint) (bool, string) {
	l, r := c.L, c.R
	// Prefer constant on the right.
	if l.IsConst() && !r.IsConst() {
		l, r = r, l
		c = Constraint{Cmp: flip(c.Cmp), L: l, R: r}
	}

	// String-comparison booleans: strcmp(x, lit) ==/!= 0.
	if l.Kind == EStrCmp {
		want, ok := wantedBool(c)
		if !ok {
			return false, "string comparison in non-boolean context"
		}
		return s.addStrCmp(l, want)
	}

	// Uninterpreted functions.
	if containsOpaque(l) || containsOpaque(r) {
		if c.Cmp == CmpNe {
			// hash(x) != const holds for almost every x: vacuous.
			return true, ""
		}
		return false, "uninterpreted function " + opaqueName(l, r) + " cannot be inverted"
	}

	// String symbol against literal.
	if l.Kind == EStrSym && r.IsConst() && r.Val.Kind == dex.KindStr {
		switch c.Cmp {
		case CmpEq:
			if prev, dup := s.strEq[l.Sym]; dup && prev != r.Val.Str() {
				return false, "conflicting string equalities on " + l.Sym
			}
			s.strEq[l.Sym] = r.Val.Str()
			return true, ""
		case CmpNe:
			s.strNe[l.Sym] = append(s.strNe[l.Sym], r.Val.Str())
			return true, ""
		}
		return false, "ordered comparison on strings"
	}

	// Modular equality: (lin mod K) cmp c.
	if l.Kind == EMod {
		k, kok := r.ConstInt()
		if !kok {
			return false, "modular constraint against non-constant"
		}
		return s.addMod(l, c.Cmp, k)
	}

	// Linear.
	ll, lok := asLinear(l)
	rl, rok := asLinear(r)
	if !lok || !rok {
		return false, fmt.Sprintf("unsupported constraint form %s", c)
	}
	diff := addLin(ll, scaleLin(rl, -1)) // diff cmp 0
	dl, _ := asLinear(diff)
	switch len(dl.linCoef()) {
	case 0:
		if holdsConst(c.Cmp, dl.linOff()) {
			return true, ""
		}
		return false, "contradictory constant constraint"
	case 1:
		var sym string
		var a int64
		for sname, coef := range dl.linCoef() {
			sym, a = sname, coef
		}
		return s.addSingle(sym, a, dl.linOff(), c.Cmp)
	default:
		// Multi-symbol: satisfy greedily by zeroing all but one symbol.
		var sym string
		var a int64
		for sname, coef := range dl.linCoef() {
			if _, pinned := s.eq[sname]; !pinned {
				sym, a = sname, coef
				break
			}
		}
		if sym == "" {
			return false, "over-constrained multi-symbol relation"
		}
		off := dl.linOff()
		for sname, coef := range dl.linCoef() {
			if sname == sym {
				continue
			}
			if v, pinned := s.eq[sname]; pinned {
				off += coef * v
			} else {
				s.eq[sname] = 0
			}
		}
		return s.addSingle(sym, a, off, c.Cmp)
	}
}

// addSingle handles a*x + off cmp 0.
func (s *solver) addSingle(sym string, a, off int64, cmp CmpKind) (bool, string) {
	switch cmp {
	case CmpEq:
		if off%a != 0 {
			return false, "non-integral solution for " + sym
		}
		v := -off / a
		if prev, dup := s.eq[sym]; dup && prev != v {
			return false, "conflicting equalities on " + sym
		}
		s.eq[sym] = v
	case CmpNe:
		if off%a == 0 {
			s.ne[sym] = append(s.ne[sym], -off/a)
		}
	default:
		// a*x + off cmp 0 → bound on x (sign of a matters).
		iv := s.bounds[sym]
		if iv == nil {
			iv = &interval{}
			s.bounds[sym] = iv
		}
		// Convert to x cmp' bound.
		bound, cmp2 := solveIneq(a, off, cmp)
		switch cmp2 {
		case CmpLt:
			if !iv.hasHi || bound-1 < iv.hi {
				iv.hi, iv.hasHi = bound-1, true
			}
		case CmpLe:
			if !iv.hasHi || bound < iv.hi {
				iv.hi, iv.hasHi = bound, true
			}
		case CmpGt:
			if !iv.hasLo || bound+1 > iv.lo {
				iv.lo, iv.hasLo = bound+1, true
			}
		case CmpGe:
			if !iv.hasLo || bound > iv.lo {
				iv.lo, iv.hasLo = bound, true
			}
		}
		if iv.hasLo && iv.hasHi && iv.lo > iv.hi {
			return false, "empty interval for " + sym
		}
	}
	return true, ""
}

// solveIneq converts a*x + off cmp 0 into x cmp' bound (floor
// division; exactness is restored by the final verification pass).
func solveIneq(a, off int64, cmp CmpKind) (int64, CmpKind) {
	bound := -off / a
	if a < 0 {
		switch cmp {
		case CmpLt:
			cmp = CmpGt
		case CmpLe:
			cmp = CmpGe
		case CmpGt:
			cmp = CmpLt
		case CmpGe:
			cmp = CmpLe
		}
	}
	return bound, cmp
}

// addMod handles (lin mod K) cmp v.
func (s *solver) addMod(m *Expr, cmp CmpKind, v int64) (bool, string) {
	lin := m.X
	coef := lin.linCoef()
	if len(coef) != 1 {
		return false, "multi-symbol modular constraint"
	}
	var sym string
	var a int64
	for sname, c := range coef {
		sym, a = sname, c
	}
	if a != 1 && a != -1 {
		return false, "scaled modular constraint"
	}
	switch cmp {
	case CmpEq:
		if v < 0 || v >= m.K {
			return false, "modular equality outside range"
		}
		// x ≡ (v - off) * a (mod K); choose the smallest non-negative
		// representative unless already pinned compatibly.
		want := ((v-lin.linOff())*a%m.K + m.K) % m.K
		if prev, dup := s.eq[sym]; dup {
			if ((prev%m.K)+m.K)%m.K != want {
				return false, "conflicting modular equality on " + sym
			}
			return true, ""
		}
		s.eq[sym] = want
	case CmpNe:
		// Avoid one residue: remember as inequality on the residue by
		// excluding the smallest representative (refined at finish).
		want := ((v-lin.linOff())*a%m.K + m.K) % m.K
		s.ne[sym] = append(s.ne[sym], want)
	default:
		// Range constraints on residues: accept and let verification
		// filter (residues are 0..K-1, usually compatible).
	}
	return true, ""
}

// addStrCmp handles strcmp(x, lit) being required true/false.
func (s *solver) addStrCmp(e *Expr, want bool) (bool, string) {
	x, y := e.X, e.Y
	if x.IsConst() && !y.IsConst() {
		x, y = y, x
	}
	if containsOpaque(x) || containsOpaque(y) {
		if !want {
			return true, "" // hash != literal: vacuous
		}
		return false, "uninterpreted function " + opaqueName(x, y) + " cannot be inverted"
	}
	if x.Kind != EStrSym || !y.IsConst() || y.Val.Kind != dex.KindStr {
		return false, "unsupported string comparison operands"
	}
	lit := y.Val.Str()
	if want {
		// equals: x = lit; startsWith/endsWith: lit itself satisfies.
		if prev, dup := s.strEq[x.Sym]; dup && prev != lit &&
			!(e.API != dex.APIStrEquals && compatible(e.API, prev, lit)) {
			return false, "conflicting string constraints on " + x.Sym
		}
		if _, dup := s.strEq[x.Sym]; !dup {
			s.strEq[x.Sym] = lit
		}
		return true, ""
	}
	s.strNe[x.Sym] = append(s.strNe[x.Sym], lit)
	return true, ""
}

func compatible(api dex.API, val, lit string) bool {
	switch api {
	case dex.APIStrStartsWith:
		return len(val) >= len(lit) && val[:len(lit)] == lit
	case dex.APIStrEndsWith:
		return len(val) >= len(lit) && val[len(val)-len(lit):] == lit
	}
	return val == lit
}

// finish materializes an assignment.
func (s *solver) finish() (map[string]dex.Value, bool, string) {
	asg := map[string]dex.Value{}
	for sym, v := range s.eq {
		asg[sym] = dex.Int64(v)
	}
	for sym, str := range s.strEq {
		asg[sym] = dex.Str(str)
	}
	// Symbols with only bounds / disequalities: pick a value.
	pickInt := func(sym string) int64 {
		iv := s.bounds[sym]
		v := int64(0)
		if iv != nil && iv.hasLo {
			v = iv.lo
		}
		avoid := map[int64]bool{}
		for _, x := range s.ne[sym] {
			avoid[x] = true
		}
		for avoid[v] {
			v++
			if iv != nil && iv.hasHi && v > iv.hi {
				return v // verification will catch emptiness
			}
		}
		return v
	}
	for sym := range s.bounds {
		if _, done := asg[sym]; !done {
			asg[sym] = dex.Int64(pickInt(sym))
		}
	}
	for sym := range s.ne {
		if _, done := asg[sym]; !done {
			asg[sym] = dex.Int64(pickInt(sym))
		} else if asg[sym].Kind == dex.KindInt {
			for _, x := range s.ne[sym] {
				if asg[sym].Int == x {
					return nil, false, "equality conflicts with disequality on " + sym
				}
			}
		}
	}
	for sym, avoid := range s.strNe {
		if cur, done := asg[sym]; done {
			for _, a := range avoid {
				if cur.Str() == a {
					return nil, false, "string equality conflicts with disequality on " + sym
				}
			}
			continue
		}
		asg[sym] = dex.Str(freshString(avoid))
	}
	return asg, true, ""
}

func freshString(avoid []string) string {
	cand := "x"
	for {
		clash := false
		for _, a := range avoid {
			if a == cand {
				clash = true
			}
		}
		if !clash {
			return cand
		}
		cand += "x"
	}
}

// wantedBool interprets "strcmp ==/!= 0" as a boolean requirement on
// the comparison result.
func wantedBool(c Constraint) (want, ok bool) {
	v, isConst := c.R.ConstInt()
	if !isConst || v != 0 {
		return false, false
	}
	switch c.Cmp {
	case CmpEq:
		return false, true
	case CmpNe:
		return true, true
	}
	return false, false
}

func flip(c CmpKind) CmpKind {
	switch c {
	case CmpLt:
		return CmpGt
	case CmpLe:
		return CmpGe
	case CmpGt:
		return CmpLt
	case CmpGe:
		return CmpLe
	}
	return c
}

func containsOpaque(e *Expr) bool {
	switch e.Kind {
	case EOpaque:
		return true
	case EMod:
		return containsOpaque(e.X)
	case EStrCmp:
		return containsOpaque(e.X) || containsOpaque(e.Y)
	}
	return false
}

func opaqueName(l, r *Expr) string {
	for _, e := range []*Expr{l, r} {
		if e.Kind == EOpaque {
			return e.Fn
		}
		if e.Kind == EStrCmp {
			if n := opaqueName(e.X, e.Y); n != "?" {
				return n
			}
		}
	}
	return "?"
}

func holdsConst(cmp CmpKind, v int64) bool {
	switch cmp {
	case CmpEq:
		return v == 0
	case CmpNe:
		return v != 0
	case CmpLt:
		return v < 0
	case CmpLe:
		return v <= 0
	case CmpGt:
		return v > 0
	default:
		return v >= 0
	}
}

// evalConstraint evaluates a constraint under an assignment; known is
// false when opaque terms block evaluation.
func evalConstraint(c Constraint, asg map[string]dex.Value) (result, known bool) {
	lv, lok := evalExpr(c.L, asg)
	rv, rok := evalExpr(c.R, asg)
	if !lok || !rok {
		return false, false
	}
	if lv.Kind == dex.KindInt && rv.Kind == dex.KindInt {
		return holdsConst(c.Cmp, lv.Int-rv.Int), true
	}
	eq := lv.Equal(rv)
	switch c.Cmp {
	case CmpEq:
		return eq, true
	case CmpNe:
		return !eq, true
	}
	return false, false
}

func evalExpr(e *Expr, asg map[string]dex.Value) (dex.Value, bool) {
	switch e.Kind {
	case EConst:
		return e.Val, true
	case ELin:
		total := e.Off
		for sym, coef := range e.Coef {
			v, ok := asg[sym]
			if !ok || v.Kind != dex.KindInt {
				return dex.Value{}, false
			}
			total += coef * v.Int
		}
		return dex.Int64(total), true
	case EMod:
		v, ok := evalExpr(e.X, asg)
		if !ok || v.Kind != dex.KindInt || e.K == 0 {
			return dex.Value{}, false
		}
		return dex.Int64(((v.Int % e.K) + e.K) % e.K), true
	case EStrSym:
		v, ok := asg[e.Sym]
		return v, ok && v.Kind == dex.KindStr
	case EStrCmp:
		x, ok1 := evalExpr(e.X, asg)
		y, ok2 := evalExpr(e.Y, asg)
		if !ok1 || !ok2 || x.Kind != dex.KindStr || y.Kind != dex.KindStr {
			return dex.Value{}, false
		}
		return evalStrCmpConst(e.API, x.Str(), y.Str()), true
	}
	return dex.Value{}, false
}

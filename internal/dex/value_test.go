package dex

import (
	"testing"
	"testing/quick"
	"unsafe"
)

func TestValueConstructors(t *testing.T) {
	cases := []struct {
		v    Value
		kind ValueKind
	}{
		{Nil(), KindNil},
		{Int64(42), KindInt},
		{Bool(true), KindInt},
		{Str("x"), KindStr},
		{Bytes([]byte{1}), KindBytes},
		{NewArr(3), KindArr},
		{Handle(7), KindHandle},
	}
	for _, c := range cases {
		if c.v.Kind != c.kind {
			t.Errorf("kind = %v, want %v", c.v.Kind, c.kind)
		}
	}
	if Bool(true).Int != 1 || Bool(false).Int != 0 {
		t.Error("Bool mapping wrong")
	}
	if a := NewArr(3); len(*a.Arr) != 3 {
		t.Error("NewArr length wrong")
	}
}

func TestTruthy(t *testing.T) {
	truthy := []Value{Int64(1), Int64(-5), Str("a"), Bytes([]byte{0}), NewArr(1), Handle(2)}
	falsy := []Value{Nil(), Int64(0), Str(""), Bytes(nil), NewArr(0), Handle(0)}
	for _, v := range truthy {
		if !v.Truthy() {
			t.Errorf("%s should be truthy", v)
		}
	}
	for _, v := range falsy {
		if v.Truthy() {
			t.Errorf("%s should be falsy", v)
		}
	}
}

func TestValueEqual(t *testing.T) {
	if !Int64(3).Equal(Int64(3)) || Int64(3).Equal(Int64(4)) {
		t.Error("int equality wrong")
	}
	if !Str("ab").Equal(Str("ab")) || Str("ab").Equal(Str("ba")) {
		t.Error("string equality wrong")
	}
	if Int64(0).Equal(Nil()) || Int64(0).Equal(Str("")) {
		t.Error("cross-kind equality must be false")
	}
	a, b := NewArr(2), NewArr(2)
	if a.Equal(b) {
		t.Error("distinct arrays must compare unequal (reference identity)")
	}
	if !a.Equal(a) {
		t.Error("array must equal itself")
	}
	if !Bytes([]byte("xy")).Equal(Bytes([]byte("xy"))) {
		t.Error("bytes equality wrong")
	}
}

// Property: Repr is injective on ints and on strings, and equal values
// share a Repr. This underpins the bomb key derivation Hash(Repr(X)|salt).
func TestReprInjective(t *testing.T) {
	if err := quick.Check(func(a, b int64) bool {
		ra, rb := string(Int64(a).Repr()), string(Int64(b).Repr())
		return (a == b) == (ra == rb)
	}, nil); err != nil {
		t.Error(err)
	}
	if err := quick.Check(func(a, b string) bool {
		ra, rb := string(Str(a).Repr()), string(Str(b).Repr())
		return (a == b) == (ra == rb)
	}, nil); err != nil {
		t.Error(err)
	}
}

func TestReprCrossKindDistinct(t *testing.T) {
	// An int and a string that "look" the same must not collide:
	// otherwise an attacker could substitute operand kinds to derive keys.
	if string(Int64(7).Repr()) == string(Str("7").Repr()) {
		t.Error("int 7 and string \"7\" must have distinct Repr")
	}
}

func TestValueString(t *testing.T) {
	for _, v := range []Value{Nil(), Int64(9), Str("s"), Bytes([]byte{1, 2}), NewArr(2), Handle(3)} {
		if v.String() == "" || v.String() == "?" {
			t.Errorf("bad String for kind %v", v.Kind)
		}
	}
	if (Value{Kind: KindArr}).String() != "arr(nil)" {
		t.Error("nil array rendering wrong")
	}
}

func TestKindString(t *testing.T) {
	if KindInt.String() != "int" || KindStr.String() != "str" {
		t.Error("kind names wrong")
	}
	if ValueKind(99).String() != "kind(99)" {
		t.Error("unknown kind rendering wrong")
	}
}

// TestValueSize pins the 40-byte layout. The interpreter returns
// (Value, error) from every frame and API call; at 40 bytes that pair
// fits the register ABI (7 of 9 integer result registers) instead of
// going through memory, and every register copy moves five words.
func TestValueSize(t *testing.T) {
	if n := unsafe.Sizeof(Value{}); n > 40 {
		t.Fatalf("unsafe.Sizeof(Value{}) = %d, want <= 40", n)
	}
}

// TestBytesValue pins a blob's observable behaviour: it round-trips
// through the codec, and Equal/Truthy/Repr/String read the same as
// when blobs had a slice field of their own.
func TestBytesValue(t *testing.T) {
	blob := Bytes([]byte{0, 1, 0xfe, 'x'})
	f := NewFile()
	if err := f.AddClass(&Class{Name: "C", Fields: []Field{
		{Name: "blob", Init: blob},
		{Name: "empty", Init: Bytes(nil)},
	}}); err != nil {
		t.Fatal(err)
	}
	got, err := Decode(Encode(f))
	if err != nil {
		t.Fatal(err)
	}
	if g := got.Classes[0].Fields[0].Init; g.Kind != KindBytes || !g.Equal(blob) {
		t.Fatalf("decoded blob = %v %q, want %v", g.Kind, g.Str, blob)
	}
	if g := got.Classes[0].Fields[1].Init; g.Kind != KindBytes || g.Truthy() {
		t.Fatalf("decoded empty blob = %v (truthy %v)", g, g.Truthy())
	}

	if !blob.Truthy() || Bytes(nil).Truthy() || Bytes([]byte{}).Truthy() {
		t.Error("blob truthiness wrong")
	}
	if !Bytes(nil).Equal(Bytes([]byte{})) {
		t.Error("nil and empty blobs must be equal")
	}
	if blob.Equal(Str(blob.Str)) || Str(blob.Str).Equal(blob) {
		t.Error("a blob must not equal the string with the same bytes")
	}
	if blob.Equal(Bytes([]byte{0, 1, 0xfe, 'y'})) {
		t.Error("different blobs compared equal")
	}
	if r := string(blob.Repr()); r != "b:\x00\x01\xfex" {
		t.Errorf("Repr = %q", r)
	}
	if s := blob.String(); s != "bytes[4]" {
		t.Errorf("String = %q, want bytes[4]", s)
	}
	if s := Bytes(nil).String(); s != "bytes[0]" {
		t.Errorf("empty String = %q, want bytes[0]", s)
	}
}

package dex

import (
	"strings"
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
	if a := NewArr(3); len(*a.Arr()) != 3 {
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

// TestValueSize pins the 24-byte layout: kind and string length in one
// word, Int, and one pointer word. Every register copy moves three
// words, and a (Value, error) result fits the register ABI.
func TestValueSize(t *testing.T) {
	if n := unsafe.Sizeof(Value{}); n != 24 {
		t.Fatalf("unsafe.Sizeof(Value{}) = %d, want 24", n)
	}
}

// TestValueAccessors: Str and Arr read their own kinds back and return
// "" and nil for every other kind, the zero Value, and kinds outside
// the enum; a value's Int never shows through them.
func TestValueAccessors(t *testing.T) {
	arr, empty := NewArr(2), NewArr(0)
	long := "a string long enough to be more than a word or two of bytes"
	cases := []struct {
		name string
		v    Value
		str  string
		arr  *[]Value
	}{
		{"zero", Value{}, "", nil},
		{"nil", Nil(), "", nil},
		{"int", Int64(7), "", nil},
		{"bool", Bool(true), "", nil},
		{"handle", Handle(3), "", nil},
		{"str", Str("abc"), "abc", nil},
		{"long str", Str(long), long, nil},
		{"empty str", Str(""), "", nil},
		{"bytes", Bytes([]byte{0, 1, 0xff}), "\x00\x01\xff", nil},
		{"empty bytes", Bytes(nil), "", nil},
		{"arr", arr, "", arr.Arr()},
		{"empty arr", empty, "", empty.Arr()},
		{"bare str kind", Value{Kind: KindStr, Int: 5}, "", nil},
		{"bare bytes kind", Value{Kind: KindBytes}, "", nil},
		{"bare arr kind", Value{Kind: KindArr, Int: 5}, "", nil},
		{"unknown kind", Value{Kind: 200, Int: 9}, "", nil},
	}
	for _, c := range cases {
		if got := c.v.Str(); got != c.str {
			t.Errorf("%s: Str() = %q, want %q", c.name, got, c.str)
		}
		if got := c.v.Arr(); got != c.arr {
			t.Errorf("%s: Arr() = %p, want %p", c.name, got, c.arr)
		}
	}
	if len(*arr.Arr()) != 2 || empty.Arr() == nil || len(*empty.Arr()) != 0 {
		t.Errorf("NewArr(2), NewArr(0) hold %d and %v", len(*arr.Arr()), empty.Arr())
	}
	// Copies share the array: a write through one shows in the other.
	cp := arr
	(*cp.Arr())[1] = Str("x")
	if (*arr.Arr())[1].Str() != "x" {
		t.Error("an array write did not show through a copy of the value")
	}
	// Bytes copies its argument.
	b := []byte("abc")
	v := Bytes(b)
	b[0] = 'z'
	if v.Str() != "abc" {
		t.Errorf("Bytes aliases its argument: %q", v.Str())
	}
}

// TestBoxedString: a string too long for the length word is kept behind
// a pointer of its own and reads, compares and renders like any other.
// Such a string is 4 GiB, so the test boxes a short one directly.
func TestBoxedString(t *testing.T) {
	v, w := boxStr(KindStr, "boxed"), boxStr(KindStr, "boxed")
	if v.n != boxed {
		t.Fatalf("n = %d, want the boxed mark", v.n)
	}
	if v.Str() != "boxed" || !v.Truthy() || !v.Equal(w) {
		t.Errorf("boxed string reads %q, truthy %v, equal %v", v.Str(), v.Truthy(), v.Equal(w))
	}
	if v.String() != `"boxed"` || string(v.Repr()) != "s:boxed" {
		t.Errorf("boxed string renders %s / %q", v, v.Repr())
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
		t.Fatalf("decoded blob = %v %q, want %v", g.Kind, g.Str(), blob)
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
	if blob.Equal(Str(blob.Str())) || Str(blob.Str()).Equal(blob) {
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

// TestStrNoAlloc: wrapping a string and reading it back allocate
// nothing; the value points at the string's own bytes.
func TestStrNoAlloc(t *testing.T) {
	s := strings.Repeat("x", 100)
	var sink Value
	if n := testing.AllocsPerRun(100, func() {
		sink = Str(s)
		if sink.Str() != s || !sink.Equal(Str(s)) {
			t.Fatal("string did not round-trip")
		}
	}); n != 0 {
		t.Errorf("Str and Value.Str allocate %v times per call", n)
	}
	if unsafe.StringData(sink.Str()) != unsafe.StringData(s) {
		t.Error("Str copied the string's bytes")
	}
}

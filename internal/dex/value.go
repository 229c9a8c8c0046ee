package dex

import (
	"fmt"
	"strconv"
)

// ValueKind discriminates the dynamic type of a Value.
type ValueKind uint8

// Value kinds.
const (
	KindNil    ValueKind = iota
	KindInt              // 64-bit signed integer (also booleans: 0/1)
	KindStr              // immutable string
	KindBytes            // opaque byte blob (encrypted payloads etc.)
	KindArr              // mutable reference to a slice of Values
	KindHandle           // runtime handle (loaded payload id) in Int
)

var kindNames = [...]string{
	KindNil:    "nil",
	KindInt:    "int",
	KindStr:    "str",
	KindBytes:  "bytes",
	KindArr:    "arr",
	KindHandle: "handle",
}

// String returns the kind's name.
func (k ValueKind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Value is the dynamically typed slot stored in registers, static
// fields, and arrays. The zero Value is nil. A KindBytes blob lives in
// Str (immutable, like every blob the decoder produces): with no
// separate slice field a Value is 40 bytes, so a (Value, error) result
// still comes back in registers and a register copy moves five words.
type Value struct {
	Kind ValueKind
	Int  int64
	Str  string
	Arr  *[]Value
}

// Nil returns the nil value.
func Nil() Value { return Value{} }

// Int64 wraps an integer.
func Int64(v int64) Value { return Value{Kind: KindInt, Int: v} }

// Bool wraps a boolean as 0/1.
func Bool(b bool) Value {
	if b {
		return Int64(1)
	}
	return Int64(0)
}

// Str wraps a string.
func Str(s string) Value { return Value{Kind: KindStr, Str: s} }

// Bytes wraps a byte blob.
func Bytes(b []byte) Value { return Value{Kind: KindBytes, Str: string(b)} }

// NewArr allocates an array value of the given length.
func NewArr(n int) Value {
	s := make([]Value, n)
	return Value{Kind: KindArr, Arr: &s}
}

// Handle wraps a runtime handle id.
func Handle(id int64) Value { return Value{Kind: KindHandle, Int: id} }

// IsNil reports whether v is the nil value.
func (v Value) IsNil() bool { return v.Kind == KindNil }

// Truthy reports whether v counts as true in a zero-test branch:
// nonzero integers/handles, nonempty strings/blobs/arrays.
func (v Value) Truthy() bool {
	switch v.Kind {
	case KindNil:
		return false
	case KindInt, KindHandle:
		return v.Int != 0
	case KindStr, KindBytes:
		return v.Str != ""
	case KindArr:
		return v.Arr != nil && len(*v.Arr) != 0
	}
	return false
}

// Equal reports deep equality of two values. Arrays compare by
// reference identity (aliasing semantics), matching Java == on objects.
func (v Value) Equal(o Value) bool {
	if v.Kind != o.Kind {
		return false
	}
	switch v.Kind {
	case KindNil:
		return true
	case KindInt, KindHandle:
		return v.Int == o.Int
	case KindStr, KindBytes:
		return v.Str == o.Str
	case KindArr:
		return v.Arr == o.Arr
	}
	return false
}

// Repr returns a canonical byte representation of the value, used as
// key material when a bomb derives its decryption key from the trigger
// operand: Hash(Repr(X) | salt). Two equal values always share a Repr,
// and within a kind the mapping is injective.
func (v Value) Repr() []byte {
	switch v.Kind {
	case KindInt:
		return []byte("i:" + strconv.FormatInt(v.Int, 10))
	case KindStr:
		return append([]byte("s:"), v.Str...)
	case KindBytes:
		return append([]byte("b:"), v.Str...)
	case KindHandle:
		return []byte("h:" + strconv.FormatInt(v.Int, 10))
	default:
		return []byte("nil")
	}
}

// String renders the value for disassembly and debug output.
func (v Value) String() string {
	switch v.Kind {
	case KindNil:
		return "nil"
	case KindInt:
		return strconv.FormatInt(v.Int, 10)
	case KindStr:
		return strconv.Quote(v.Str)
	case KindBytes:
		return fmt.Sprintf("bytes[%d]", len(v.Str))
	case KindArr:
		if v.Arr == nil {
			return "arr(nil)"
		}
		return fmt.Sprintf("arr[%d]", len(*v.Arr))
	case KindHandle:
		return fmt.Sprintf("handle(%d)", v.Int)
	}
	return "?"
}

package dex

import (
	"fmt"
	"math"
	"strconv"
	"unsafe"
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
// fields, and arrays. The zero Value is nil.
//
// A Value is three words (24 bytes), so a register copy moves three
// words and a (Value, error) result comes back in five registers. The
// first word holds the kind and, for a string or blob, its byte length;
// the second is Int; the third points at a string's or blob's bytes, or
// at an array's slice header. A string therefore costs no allocation of
// its own: Str and Bytes store the data pointer of the string they are
// given, and the Str accessor rebuilds the header from the two words.
// Read a string or array only through Str and Arr; both return the zero
// result for any other kind.
//
// Value is deliberately not comparable: == would compare data pointers,
// so two equal strings with different backing bytes would differ. Use
// Equal.
type Value struct {
	_    [0]func()
	Kind ValueKind
	n    uint32 // byte length of a KindStr/KindBytes string, or boxed
	Int  int64
	p    unsafe.Pointer // string bytes, a *string when n == boxed, or a *[]Value
}

// boxed marks a string too long for n: p then points at a string
// header of its own. Only strings of 4 GiB and more take this path.
const boxed = math.MaxUint32

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
func Str(s string) Value { return strValue(KindStr, s) }

// Bytes wraps a byte blob. The blob is copied, so later writes to b do
// not show through.
func Bytes(b []byte) Value { return strValue(KindBytes, string(b)) }

// strValue wraps s as a value of kind k (KindStr or KindBytes) without
// copying it.
func strValue(k ValueKind, s string) Value {
	if uint64(len(s)) >= boxed {
		return boxStr(k, s)
	}
	return Value{Kind: k, n: uint32(len(s)), p: unsafe.Pointer(unsafe.StringData(s))}
}

// boxStr keeps a string too long for n behind a header of its own. It
// copies the header into a new box rather than taking s's address,
// which would move every strValue argument to the heap.
func boxStr(k ValueKind, s string) Value {
	h := new(string)
	*h = s
	return Value{Kind: k, n: boxed, p: unsafe.Pointer(h)}
}

// NewArr allocates an array value of the given length.
func NewArr(n int) Value { return arrOf(make([]Value, n)) }

// arrOf wraps s as an array value; the value refers to s's elements.
func arrOf(s []Value) Value { return Value{Kind: KindArr, p: unsafe.Pointer(&s)} }

// Handle wraps a runtime handle id.
func Handle(id int64) Value { return Value{Kind: KindHandle, Int: id} }

// Str returns the bytes of a KindStr or KindBytes value, and "" for
// every other kind.
func (v Value) Str() string {
	if v.Kind != KindStr && v.Kind != KindBytes {
		return ""
	}
	if v.n == boxed {
		return *(*string)(v.p)
	}
	return unsafe.String((*byte)(v.p), v.n)
}

// Arr returns the slice a KindArr value refers to, and nil for every
// other kind. Writes through it are visible to every copy of v.
func (v Value) Arr() *[]Value {
	if v.Kind != KindArr {
		return nil
	}
	return (*[]Value)(v.p)
}

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
		return v.n != 0
	case KindArr:
		return v.p != nil && len(*v.Arr()) != 0
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
		return v.n == o.n && v.Str() == o.Str()
	case KindArr:
		return v.p == o.p
	}
	return false
}

// Repr returns a canonical byte representation of the value, used as
// key material when a bomb derives its decryption key from the trigger
// operand: Hash(Repr(X) | salt). Two equal values always share a Repr,
// and within a kind the mapping is injective.
func (v Value) Repr() []byte { return v.AppendRepr(nil) }

// AppendRepr appends Repr(v) to dst, so a caller hashing it can build
// the input in a stack buffer.
func (v Value) AppendRepr(dst []byte) []byte {
	switch v.Kind {
	case KindInt:
		return strconv.AppendInt(append(dst, "i:"...), v.Int, 10)
	case KindStr:
		return append(append(dst, "s:"...), v.Str()...)
	case KindBytes:
		return append(append(dst, "b:"...), v.Str()...)
	case KindHandle:
		return strconv.AppendInt(append(dst, "h:"...), v.Int, 10)
	default:
		return append(dst, "nil"...)
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
		return strconv.Quote(v.Str())
	case KindBytes:
		return fmt.Sprintf("bytes[%d]", len(v.Str()))
	case KindArr:
		if v.p == nil {
			return "arr(nil)"
		}
		return fmt.Sprintf("arr[%d]", len(*v.Arr()))
	case KindHandle:
		return fmt.Sprintf("handle(%d)", v.Int)
	}
	return "?"
}

package dex

import (
	"encoding/binary"
)

// Binary format ("GDEX"):
//
//	magic   "GDEX"
//	version uvarint (currently 1)
//	strings uvarint count, then len-prefixed bytes
//	blobs   uvarint count, then len-prefixed bytes
//	classes uvarint count, then per class:
//	  name, fields (name + value), methods
//	  per method: name, args, regs, flags, code, switch tables
//
// All integers use varint (signed values zigzag-encoded); the format
// is deterministic, so Encode is a pure function of the File and the
// round-trip property Decode(Encode(f)) == f holds structurally.

const (
	magic         = "GDEX"
	formatVersion = 1
)

// encoder appends to one slice that Encode sizes from the file up
// front, so a typical encoding never regrows it.
type encoder struct {
	buf []byte
}

func (e *encoder) uvarint(v uint64) { e.buf = binary.AppendUvarint(e.buf, v) }

func (e *encoder) varint(v int64) { e.buf = binary.AppendVarint(e.buf, v) }

func (e *encoder) byte(b byte) { e.buf = append(e.buf, b) }

func (e *encoder) bytes(b []byte) {
	e.uvarint(uint64(len(b)))
	e.buf = append(e.buf, b...)
}

func (e *encoder) string(s string) {
	e.uvarint(uint64(len(s)))
	e.buf = append(e.buf, s...)
}

func (e *encoder) value(v Value) {
	e.byte(byte(v.Kind))
	switch v.Kind {
	case KindInt, KindHandle:
		e.varint(v.Int)
	case KindStr, KindBytes:
		e.string(v.Str())
	case KindArr:
		a := v.Arr()
		if a == nil {
			e.uvarint(0)
			return
		}
		e.uvarint(uint64(len(*a)))
		for _, el := range *a {
			e.value(el)
		}
	}
}

func (e *encoder) instr(in Instr) {
	e.byte(byte(in.Op))
	e.varint(int64(in.A))
	e.varint(int64(in.B))
	e.varint(int64(in.C))
	e.varint(in.Imm)
}

func (e *encoder) method(m *Method) {
	e.string(m.Name)
	e.uvarint(uint64(m.NumArgs))
	e.uvarint(uint64(m.NumRegs))
	e.byte(byte(m.Flags))
	e.uvarint(uint64(len(m.Code)))
	for _, in := range m.Code {
		e.instr(in)
	}
	e.uvarint(uint64(len(m.Tables)))
	for _, t := range m.Tables {
		e.uvarint(uint64(len(t.Cases)))
		for _, c := range t.Cases {
			e.varint(c.Match)
			e.varint(int64(c.Target))
		}
		e.varint(int64(t.Default))
	}
}

// Encode serializes the file to its binary form.
func Encode(f *File) []byte {
	e := encoder{buf: make([]byte, 0, encodedSizeHint(f))}
	e.buf = append(e.buf, magic...)
	e.uvarint(formatVersion)

	e.uvarint(uint64(len(f.Strings)))
	for _, s := range f.Strings {
		e.string(s)
	}
	e.uvarint(uint64(len(f.Blobs)))
	for _, b := range f.Blobs {
		e.bytes(b)
	}
	e.uvarint(uint64(len(f.Classes)))
	for _, c := range f.Classes {
		e.string(c.Name)
		e.uvarint(uint64(len(c.Fields)))
		for _, fd := range c.Fields {
			e.string(fd.Name)
			e.value(fd.Init)
		}
		e.uvarint(uint64(len(c.Methods)))
		for _, m := range c.Methods {
			e.method(m)
		}
	}
	return e.buf
}

// encodedSizeHint estimates Encode's output length: exact for the
// string and blob bytes, and a generous typical width for every count
// and varint. An instruction (opcode, three registers, an immediate)
// averages about 5.2 bytes on generated apps, so 6 leaves headroom
// without doubling the buffer.
func encodedSizeHint(f *File) int {
	n := len(magic) + 8
	for _, s := range f.Strings {
		n += 2 + len(s)
	}
	for _, b := range f.Blobs {
		n += 3 + len(b)
	}
	for _, c := range f.Classes {
		n += 4 + len(c.Name)
		for _, fd := range c.Fields {
			n += 12 + len(fd.Name) + len(fd.Init.Str())
		}
		for _, m := range c.Methods {
			n += 8 + len(m.Name) + 6*len(m.Code)
			for _, t := range m.Tables {
				n += 4 + 4*len(t.Cases)
			}
		}
	}
	return n
}

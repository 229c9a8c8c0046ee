package dex

import (
	"bytes"
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

type encoder struct {
	buf bytes.Buffer
	tmp [binary.MaxVarintLen64]byte
}

func (e *encoder) uvarint(v uint64) {
	n := binary.PutUvarint(e.tmp[:], v)
	e.buf.Write(e.tmp[:n])
}

func (e *encoder) varint(v int64) {
	n := binary.PutVarint(e.tmp[:], v)
	e.buf.Write(e.tmp[:n])
}

func (e *encoder) bytes(b []byte) {
	e.uvarint(uint64(len(b)))
	e.buf.Write(b)
}

func (e *encoder) string(s string) {
	e.uvarint(uint64(len(s)))
	e.buf.WriteString(s)
}

func (e *encoder) value(v Value) {
	e.buf.WriteByte(byte(v.Kind))
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
	e.buf.WriteByte(byte(in.Op))
	e.varint(int64(in.A))
	e.varint(int64(in.B))
	e.varint(int64(in.C))
	e.varint(in.Imm)
}

func (e *encoder) method(m *Method) {
	e.string(m.Name)
	e.uvarint(uint64(m.NumArgs))
	e.uvarint(uint64(m.NumRegs))
	e.buf.WriteByte(byte(m.Flags))
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
	var e encoder
	e.buf.WriteString(magic)
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
	return e.buf.Bytes()
}

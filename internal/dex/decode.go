package dex

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// ErrBadMagic reports that a byte stream is not a GDEX file. The bomb
// runtime relies on it: decrypting a payload with the wrong key yields
// garbage that fails this check (and the authentication tag before it).
var ErrBadMagic = errors.New("dex: bad magic (not a GDEX file)")

// Decoding limits guard against corrupt or adversarial inputs blowing
// up memory; they are far above anything the generators produce.
const (
	maxPoolEntries = 1 << 22
	maxEntryBytes  = 1 << 26
	// maxValueDepth bounds array nesting in a field initialiser. The
	// decoder recurses once per level, and a chain of two-byte levels
	// would otherwise overflow the goroutine stack, a fatal error no
	// recover can catch. No builder nests arrays in a file at all.
	maxValueDepth = 64
)

type decoder struct {
	r *bytes.Reader
}

func (d *decoder) uvarint() (uint64, error) {
	return binary.ReadUvarint(d.r)
}

func (d *decoder) varint() (int64, error) {
	return binary.ReadVarint(d.r)
}

func (d *decoder) count(what string) (int, error) {
	v, err := d.uvarint()
	if err != nil {
		return 0, fmt.Errorf("dex: reading %s count: %w", what, err)
	}
	if v > maxPoolEntries {
		return 0, fmt.Errorf("dex: %s count %d exceeds limit", what, v)
	}
	// Every counted item takes at least one byte, so a count past the
	// bytes left is corrupt; refusing it here keeps a few-byte input
	// from sizing a slice of millions of entries.
	if v > uint64(d.r.Len()) {
		return 0, fmt.Errorf("dex: %s count %d exceeds the %d bytes left", what, v, d.r.Len())
	}
	return int(v), nil
}

func (d *decoder) bytes() ([]byte, error) {
	n, err := d.uvarint()
	if err != nil {
		return nil, err
	}
	if n > maxEntryBytes {
		return nil, fmt.Errorf("dex: entry of %d bytes exceeds limit", n)
	}
	if n > uint64(d.r.Len()) {
		return nil, fmt.Errorf("dex: entry of %d bytes exceeds the %d bytes left", n, d.r.Len())
	}
	b := make([]byte, n)
	if _, err := io.ReadFull(d.r, b); err != nil {
		return nil, err
	}
	return b, nil
}

func (d *decoder) string() (string, error) {
	b, err := d.bytes()
	return string(b), err
}

func (d *decoder) value(depth int) (Value, error) {
	k, err := d.r.ReadByte()
	if err != nil {
		return Value{}, err
	}
	v := Value{Kind: ValueKind(k)}
	switch v.Kind {
	case KindNil:
	case KindInt, KindHandle:
		v.Int, err = d.varint()
	case KindStr, KindBytes:
		var s string
		s, err = d.string()
		v = strValue(v.Kind, s)
	case KindArr:
		if depth >= maxValueDepth {
			return Value{}, fmt.Errorf("dex: arrays nested deeper than %d", maxValueDepth)
		}
		var n int
		n, err = d.count("array")
		if err != nil {
			return Value{}, err
		}
		s := make([]Value, n)
		for i := range s {
			if s[i], err = d.value(depth + 1); err != nil {
				return Value{}, err
			}
		}
		v = arrOf(s)
	default:
		return Value{}, fmt.Errorf("dex: unknown value kind %d", k)
	}
	return v, err
}

func (d *decoder) instr() (Instr, error) {
	op, err := d.r.ReadByte()
	if err != nil {
		return Instr{}, err
	}
	var in Instr
	in.Op = Op(op)
	if !in.Op.Valid() {
		return Instr{}, fmt.Errorf("dex: unknown opcode %d", op)
	}
	for _, dst := range []*int32{&in.A, &in.B, &in.C} {
		v, err := d.varint()
		if err != nil {
			return Instr{}, err
		}
		*dst = int32(v)
	}
	if in.Imm, err = d.varint(); err != nil {
		return Instr{}, err
	}
	return in, nil
}

func (d *decoder) method() (*Method, error) {
	m := &Method{}
	var err error
	if m.Name, err = d.string(); err != nil {
		return nil, err
	}
	args, err := d.uvarint()
	if err != nil {
		return nil, err
	}
	regs, err := d.uvarint()
	if err != nil {
		return nil, err
	}
	m.NumArgs, m.NumRegs = int(args), int(regs)
	fl, err := d.r.ReadByte()
	if err != nil {
		return nil, err
	}
	m.Flags = MethodFlags(fl)

	n, err := d.count("instruction")
	if err != nil {
		return nil, err
	}
	m.Code = make([]Instr, n)
	for i := range m.Code {
		if m.Code[i], err = d.instr(); err != nil {
			return nil, fmt.Errorf("dex: method %s pc %d: %w", m.Name, i, err)
		}
	}

	nt, err := d.count("switch table")
	if err != nil {
		return nil, err
	}
	m.Tables = make([]SwitchTable, nt)
	for i := range m.Tables {
		nc, err := d.count("switch case")
		if err != nil {
			return nil, err
		}
		cases := make([]SwitchCase, nc)
		for j := range cases {
			if cases[j].Match, err = d.varint(); err != nil {
				return nil, err
			}
			t, err := d.varint()
			if err != nil {
				return nil, err
			}
			cases[j].Target = int32(t)
		}
		def, err := d.varint()
		if err != nil {
			return nil, err
		}
		m.Tables[i] = SwitchTable{Cases: cases, Default: int32(def)}
	}
	return m, nil
}

// Decode parses a binary GDEX file.
func Decode(data []byte) (*File, error) {
	if len(data) < len(magic) || string(data[:len(magic)]) != magic {
		return nil, ErrBadMagic
	}
	d := decoder{r: bytes.NewReader(data[len(magic):])}

	ver, err := d.uvarint()
	if err != nil {
		return nil, err
	}
	if ver != formatVersion {
		return nil, fmt.Errorf("dex: unsupported format version %d", ver)
	}

	f := &File{}
	ns, err := d.count("string")
	if err != nil {
		return nil, err
	}
	f.Strings = make([]string, ns)
	for i := range f.Strings {
		if f.Strings[i], err = d.string(); err != nil {
			return nil, err
		}
	}

	nb, err := d.count("blob")
	if err != nil {
		return nil, err
	}
	if nb > 0 {
		f.Blobs = make([][]byte, nb)
		for i := range f.Blobs {
			if f.Blobs[i], err = d.bytes(); err != nil {
				return nil, err
			}
		}
	}

	nc, err := d.count("class")
	if err != nil {
		return nil, err
	}
	for i := 0; i < nc; i++ {
		c := &Class{}
		if c.Name, err = d.string(); err != nil {
			return nil, err
		}
		nf, err := d.count("field")
		if err != nil {
			return nil, err
		}
		c.Fields = make([]Field, nf)
		for j := range c.Fields {
			if c.Fields[j].Name, err = d.string(); err != nil {
				return nil, err
			}
			if c.Fields[j].Init, err = d.value(0); err != nil {
				return nil, err
			}
		}
		nm, err := d.count("method")
		if err != nil {
			return nil, err
		}
		for j := 0; j < nm; j++ {
			m, err := d.method()
			if err != nil {
				return nil, fmt.Errorf("dex: class %s: %w", c.Name, err)
			}
			c.AddMethod(m)
		}
		if err := f.AddClass(c); err != nil {
			return nil, err
		}
	}
	return f, nil
}

package dex

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"runtime"
	"runtime/debug"
	"slices"
	"testing"
)

// FuzzDecode: arbitrary byte streams must never panic the decoder —
// the runtime feeds it attacker-controlled payload blobs after
// decryption failures would have been caught, but defence in depth
// demands totality. Whatever decodes must round-trip: re-encoding is a
// fixed point, Encode(Decode(Encode(f))) is Encode(f) byte for byte,
// and the two decodes agree on the string pool, every blob and every
// field initialiser.
func FuzzDecode(f *testing.F) {
	f.Add([]byte("GDEX"))
	f.Add([]byte("GDEXgarbage"))
	f.Add(Encode(NewFile()))
	rf := randomFile(rand.New(rand.NewSource(9)))
	f.Add(Encode(rf))
	enc := Encode(rf)
	f.Add(enc[:len(enc)/2])
	f.Add(nestedArrays(3, 1<<20))
	f.Fuzz(func(t *testing.T, data []byte) {
		file, err := Decode(data)
		if err != nil {
			return
		}
		enc := Encode(file)
		second, err := Decode(enc)
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if again := Encode(second); !bytes.Equal(again, enc) {
			t.Fatalf("re-encoding is not a fixed point:\n%x\n%x", enc, again)
		}
		if !slices.Equal(file.Strings, second.Strings) {
			t.Fatalf("string pools differ: %q vs %q", file.Strings, second.Strings)
		}
		if !slices.EqualFunc(file.Blobs, second.Blobs, bytes.Equal) {
			t.Fatal("blobs differ")
		}
		if len(file.Classes) != len(second.Classes) {
			t.Fatalf("%d classes, then %d", len(file.Classes), len(second.Classes))
		}
		for i, c := range file.Classes {
			c2 := second.Classes[i]
			if c.Name != c2.Name || len(c.Fields) != len(c2.Fields) || len(c.Methods) != len(c2.Methods) {
				t.Fatalf("class %d: %q (%d fields, %d methods), then %q (%d, %d)", i,
					c.Name, len(c.Fields), len(c.Methods), c2.Name, len(c2.Fields), len(c2.Methods))
			}
			for j, fd := range c.Fields {
				if fd2 := c2.Fields[j]; fd.Name != fd2.Name || !equalDeep(fd.Init, fd2.Init) {
					t.Fatalf("%s.%s = %s, then %s.%s = %s", c.Name, fd.Name, fd.Init, c2.Name, fd2.Name, fd2.Init)
				}
			}
		}
	})
}

// equalDeep is Equal with arrays compared element by element: two
// decodes build separate arrays, which Equal's reference identity would
// always tell apart.
func equalDeep(a, b Value) bool {
	if a.Kind != KindArr || b.Kind != KindArr {
		return a.Equal(b)
	}
	x, y := a.Arr(), b.Arr()
	if x == nil || y == nil {
		return x == y
	}
	return slices.EqualFunc(*x, *y, equalDeep)
}

// nestedArrays encodes a file with one field whose initialiser is depth
// arrays nested inside each other, each claiming n elements, with no
// element bytes behind the claims.
func nestedArrays(depth int, n uint64) []byte {
	b := []byte(magic)
	b = binary.AppendUvarint(b, formatVersion)
	b = append(b, 0, 0, 1, 1, 'C', 1, 1, 'f') // no strings or blobs; class C, field f
	for i := 0; i < depth; i++ {
		b = append(b, byte(KindArr))
		b = binary.AppendUvarint(b, n)
	}
	return b
}

// TestDecodeCountsBoundedByInput: a count larger than the bytes left is
// refused before anything is sized from it. Each level of the nested
// input claims a million elements in four bytes; sizing a slice from
// each claim would allocate 24 MB per level. Array nesting is bounded
// too.
func TestDecodeCountsBoundedByInput(t *testing.T) {
	data := nestedArrays(8, 1<<20)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := Decode(data)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("decoded a file whose counts exceed its length")
	}
	if n := after.TotalAlloc - before.TotalAlloc; n > 1<<20 {
		t.Errorf("decoding %d bytes allocated %d bytes", len(data), n)
	}
	// Deep nesting is refused before it can overflow the stack: a
	// 200 KB chain of one-element arrays, decoded on a 4 MB stack.
	deep := nestedArrays(100_000, 1)
	defer debug.SetMaxStack(debug.SetMaxStack(4 << 20))
	if _, err := Decode(append(deep, byte(KindNil))); err == nil {
		t.Fatal("decoded arrays nested 100000 deep")
	}
	flat := append(nestedArrays(maxValueDepth, 1), byte(KindNil), 0) // no methods
	if _, err := Decode(flat); err != nil {
		t.Fatalf("arrays nested %d deep: %v", maxValueDepth, err)
	}
	// A string whose length prefix exceeds the input is refused alike.
	short := append([]byte(magic), formatVersion, 1)
	short = binary.AppendUvarint(short, 1<<25)
	if _, err := Decode(short); err == nil {
		t.Fatal("decoded a string longer than the input")
	}
}

// FuzzAssemble: arbitrary source text must never panic the assembler.
func FuzzAssemble(f *testing.F) {
	f.Add(sampleAsm)
	f.Add("class C\nmethod m 0\n  nop\nend\nendclass")
	f.Add("class\nmethod\nend")
	f.Add(";;;\nblob 00")
	f.Fuzz(func(t *testing.T, src string) {
		file, err := Assemble(src)
		if err != nil {
			return
		}
		if err := Validate(file); err != nil {
			t.Fatalf("assembler produced an invalid file: %v", err)
		}
	})
}

package apk

import (
	"archive/zip"
	"bytes"
	"compress/flate"
	"runtime"
	"strings"
	"testing"
)

// allocated returns the bytes fn allocates on the heap.
func allocated(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// zeroBomb is an archive whose classes.dex is n zero bytes, which
// DEFLATE shrinks about a thousandfold. With lie > 0 the entry's
// headers declare lie bytes instead of n.
func zeroBomb(t testing.TB, n int, lie uint64) []byte {
	t.Helper()
	var comp bytes.Buffer
	fw, err := flate.NewWriter(&comp, flate.BestCompression)
	if err != nil {
		t.Fatal(err)
	}
	zeros := make([]byte, 1<<20)
	for left := n; left > 0; left -= len(zeros) {
		if _, err := fw.Write(zeros[:min(left, len(zeros))]); err != nil {
			t.Fatal(err)
		}
	}
	if err := fw.Close(); err != nil {
		t.Fatal(err)
	}
	size := uint64(n)
	if lie > 0 {
		size = lie
	}
	var buf bytes.Buffer
	zw := zip.NewWriter(&buf)
	w, err := zw.CreateRaw(&zip.FileHeader{Name: EntryDex, Method: zip.Deflate,
		CompressedSize64: uint64(comp.Len()), UncompressedSize64: size})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write(comp.Bytes()); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestUnpackBoundsEntries pins the decompression cap: an entry that
// declares more than maxEntryBytes is refused before it is read, and
// one that inflates past the size it declares is refused once it does,
// so neither allocates anywhere near its real size.
func TestUnpackBoundsEntries(t *testing.T) {
	for _, c := range []struct {
		name string
		lie  uint64
	}{{"declared", 0}, {"understated", 1 << 20}} {
		bomb := zeroBomb(t, 2*maxEntryBytes, c.lie)
		var err error
		n := allocated(func() { _, err = Unpack(bomb) })
		if err == nil {
			t.Errorf("%s: Unpack accepted %d zero bytes in a %d-byte archive", c.name, 2*maxEntryBytes, len(bomb))
		}
		if n > maxEntryBytes/4 {
			t.Errorf("%s: Unpack allocated %d bytes for a %d-byte archive (err %v)", c.name, n, len(bomb), err)
		}
	}
}

// TestUnpackRefusesDuplicateEntries: a second classes.dex must not
// silently replace the first.
func TestUnpackRefusesDuplicateEntries(t *testing.T) {
	var buf bytes.Buffer
	zw := zip.NewWriter(&buf)
	for _, body := range []string{"first", "second"} {
		w, err := zw.Create(EntryDex)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := w.Write([]byte(body)); err != nil {
			t.Fatal(err)
		}
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := Unpack(buf.Bytes()); err == nil || !strings.Contains(err.Error(), "duplicate entry") {
		t.Fatalf("Unpack of a duplicated classes.dex: err %v, want a duplicate-entry error", err)
	}
}

// FuzzUnpack: every input is refused or unpacks to a package that
// packs to bytes which unpack and pack to themselves; nothing panics;
// and with a 64 KiB entry cap, nothing allocates more than one cap per
// entry Unpack reads plus a fixed share of the input.
func FuzzUnpack(f *testing.F) {
	p, _ := testPackage(f, 9)
	packed, err := Pack(p)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(packed)
	f.Add(zeroBomb(f, 1<<20, 0))
	f.Add(zeroBomb(f, 1<<20, 1000))
	f.Fuzz(func(t *testing.T, data []byte) {
		const entryCap = 64 << 10
		if n := allocated(func() { _, _ = unpack(data, entryCap) }); n > uint64(len(packEntries))*entryCap+64*uint64(len(data))+4<<20 {
			t.Fatalf("unpack with a %d-byte entry cap allocated %d bytes for a %d-byte input", entryCap, n, len(data))
		}
		p, err := Unpack(data)
		if err != nil {
			return
		}
		once, err := Pack(p)
		if err != nil {
			t.Fatalf("Pack of an unpacked archive: %v", err)
		}
		q, err := Unpack(once)
		if err != nil {
			t.Fatalf("Unpack of a packed archive: %v", err)
		}
		twice, err := Pack(q)
		if err != nil {
			t.Fatalf("second Pack: %v", err)
		}
		if !bytes.Equal(once, twice) {
			t.Fatalf("pack/unpack is not a fixed point: %d then %d bytes", len(once), len(twice))
		}
	})
}

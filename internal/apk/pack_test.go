package apk

import (
	"archive/zip"
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

// packReference is Pack as it was before the raw write path: each
// entry through archive/zip's Create, which deflates it. It is the
// oracle Pack's bytes must equal.
func packReference(p *Package) ([]byte, error) {
	var buf bytes.Buffer
	zw := zip.NewWriter(&buf)

	write := func(name string, content []byte) error {
		w, err := zw.Create(name)
		if err != nil {
			return err
		}
		_, err = w.Write(content)
		return err
	}

	stringsDoc, err := json.Marshal(p.Res.Strings)
	if err != nil {
		return nil, fmt.Errorf("apk: encoding strings: %w", err)
	}
	var cert bytes.Buffer
	if p.Cert != nil {
		if err := p.Cert.encode(&cert); err != nil {
			return nil, fmt.Errorf("apk: encoding certificate: %w", err)
		}
	}
	manifest, err := json.Marshal(p.Manifest.Digests)
	if err != nil {
		return nil, fmt.Errorf("apk: encoding manifest: %w", err)
	}
	meta, err := json.Marshal(map[string]string{"name": p.Name, "author": p.Res.Author})
	if err != nil {
		return nil, fmt.Errorf("apk: encoding metadata: %w", err)
	}

	entries := []struct {
		name    string
		content []byte
	}{
		{EntryDex, p.Dex},
		{EntryStrings, stringsDoc},
		{EntryIcon, p.Res.Icon},
		{entryMeta, meta},
		{EntryManifest, manifest},
		{EntryCert, cert.Bytes()},
	}
	for _, e := range entries {
		if err := write(e.name, e.content); err != nil {
			return nil, fmt.Errorf("apk: writing %s: %w", e.name, err)
		}
	}
	if err := zw.Close(); err != nil {
		return nil, fmt.Errorf("apk: closing archive: %w", err)
	}
	return buf.Bytes(), nil
}

// mixedDex is n bytes of dex-like content: runs of repeated opcode
// text between incompressible runs, as sealed payload blobs are.
func mixedDex(n int, seed int64) []byte {
	rng := rand.New(rand.NewSource(seed))
	b := make([]byte, 0, n)
	for len(b) < n {
		if rng.Intn(3) == 0 {
			run := make([]byte, 256+rng.Intn(1024))
			rng.Read(run)
			b = append(b, run...)
		} else {
			b = append(b, strings.Repeat("invoke-static App.m; const/4 v0, 1; ", 8+rng.Intn(32))...)
		}
	}
	return b[:n]
}

// shippingPackage signs a ForShipping build of dexBytes.
func shippingPackage(t testing.TB, key *KeyPair, dexBytes []byte) *Package {
	t.Helper()
	p, err := Sign(ForShipping("com.example.ship", dexBytes, Resources{
		Strings: []string{"Tap", "Score: %d", "Grüße, 世界"},
		Icon:    []byte{0x89, 'P', 'N', 'G', 0, 0, 0, 1},
		Author:  "Zoë Dev",
	}), key)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// checkPack asserts that Pack writes packReference's bytes for p.
func checkPack(t *testing.T, what string, p *Package) []byte {
	t.Helper()
	want, err := packReference(p)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Pack(p)
	if err != nil {
		t.Fatalf("%s: Pack: %v", what, err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s: Pack wrote %d bytes that differ from archive/zip's %d", what, len(got), len(want))
	}
	return got
}

// TestPackMatchesReference: a shipping package, whose content entries
// come from the form Sign started, and the same content signed
// unmarked pack to archive/zip's bytes, and to each other.
func TestPackMatchesReference(t *testing.T) {
	key, err := NewKeyPair(5)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{1, 4 << 10, 200 << 10} {
		dexBytes := mixedDex(n, int64(n))
		marked := shippingPackage(t, key, append([]byte(nil), dexBytes...))
		if marked.form == nil {
			t.Fatal("Sign of a ForShipping build started no archive form")
		}
		u := &Unsigned{Name: marked.Name, Dex: dexBytes, Res: marked.Res.Clone()}
		unmarked, err := Sign(u, key)
		if err != nil {
			t.Fatal(err)
		}
		if unmarked.form != nil {
			t.Fatal("Sign of an unmarked build started an archive form")
		}
		a := checkPack(t, fmt.Sprintf("marked %d-byte dex", n), marked)
		b := checkPack(t, fmt.Sprintf("unmarked %d-byte dex", n), unmarked)
		if !bytes.Equal(a, b) {
			t.Fatalf("%d-byte dex: marked and unmarked packages pack differently", n)
		}
	}
}

// TestPackAfterEditsMatchesReference: edits made to a signed shipping
// package while its content is still deflating reach the archive —
// Pack deflates an edited entry itself instead of taking the stale
// form.
func TestPackAfterEditsMatchesReference(t *testing.T) {
	key, err := NewKeyPair(6)
	if err != nil {
		t.Fatal(err)
	}
	edits := map[string]func(p *Package){
		"none":   func(p *Package) {},
		"dex":    func(p *Package) { p.Dex[len(p.Dex)/2] ^= 0xFF },
		"icon":   func(p *Package) { p.Res.Icon = []byte("a pirate's icon") },
		"string": func(p *Package) { p.Res.Strings = append(p.Res.Strings, "free coins") },
		"author": func(p *Package) { p.Res.Author = "someone else" },
		"all": func(p *Package) {
			p.Dex[0] ^= 0xFF
			p.Res.Icon = nil
			p.Res.Strings = append(p.Res.Strings, "")
			p.Res.Author = ""
		},
	}
	for name, edit := range edits {
		// A 400 KB dex takes milliseconds to deflate, so the edit lands
		// while the form's goroutines still run.
		p := shippingPackage(t, key, mixedDex(400<<10, 7))
		edit(p)
		checkPack(t, "edit "+name, p)
		if name == "none" {
			continue
		}
		fresh := shippingPackage(t, key, mixedDex(400<<10, 7))
		a, _ := Pack(p)
		b, _ := Pack(fresh)
		if bytes.Equal(a, b) {
			t.Fatalf("edit %s: the archive ignored the edit", name)
		}
	}
}

// TestPackJoinsForm: Packs of one package from several goroutines at
// once all join its form and write archive/zip's bytes, and Pack
// returns only after the form's goroutines have written every content
// entry's form. The final reads are unsynchronized, so under -race a
// Pack that returned early fails.
func TestPackJoinsForm(t *testing.T) {
	key, err := NewKeyPair(7)
	if err != nil {
		t.Fatal(err)
	}
	p := shippingPackage(t, key, mixedDex(300<<10, 8))
	var wg sync.WaitGroup
	packed := make([][]byte, 4)
	for i := range packed {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var err error
			if packed[i], err = Pack(p); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	want, err := packReference(p)
	if err != nil {
		t.Fatal(err)
	}
	for i, got := range packed {
		if !bytes.Equal(got, want) {
			t.Fatalf("concurrent Pack %d wrote %d bytes that differ from archive/zip's %d", i, len(got), len(want))
		}
	}
	for i, f := range p.form.forms {
		if f.deflated == nil {
			t.Fatalf("content entry %d has no form after Pack returned", i)
		}
	}
}

// TestSignedNeverPackedGoroutinesEnd: a shipping package that is
// signed and never packed leaves no goroutine behind, and an unmarked
// one starts none.
func TestSignedNeverPackedGoroutinesEnd(t *testing.T) {
	key, err := NewKeyPair(8)
	if err != nil {
		t.Fatal(err)
	}
	settle := func(limit int) int {
		deadline := time.Now().Add(10 * time.Second)
		for {
			n := runtime.NumGoroutine()
			if n <= limit || time.Now().After(deadline) {
				return n
			}
			time.Sleep(time.Millisecond)
		}
	}
	before := runtime.NumGoroutine()
	dexBytes := mixedDex(100<<10, 9)
	for i := 0; i < 8; i++ {
		shippingPackage(t, key, append([]byte(nil), dexBytes...))
	}
	if n := settle(before); n > before {
		t.Fatalf("%d goroutines before signing, %d ten seconds after", before, n)
	}

	before = runtime.NumGoroutine()
	p, err := Sign(&Unsigned{Name: "plain", Dex: dexBytes}, key)
	if err != nil {
		t.Fatal(err)
	}
	if p.form != nil {
		t.Fatal("Sign of an unmarked build started an archive form")
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Fatalf("Sign of an unmarked build: %d goroutines, %d before", n, before)
	}
}

// FuzzPack: over random content, Pack writes archive/zip's bytes for a
// shipping package (with and without edits after Sign), an unmarked
// one, and an unsigned one without a certificate, whose dex may be
// empty or nil.
func FuzzPack(f *testing.F) {
	key, err := NewKeyPair(10)
	if err != nil {
		f.Fatal(err)
	}
	f.Add([]byte(nil), "", "", "", []byte(nil), byte(0))
	f.Add([]byte{}, "a\x00b", "author", "name", []byte{}, byte(1))
	f.Add(mixedDex(6<<10, 1), "Tap\x00Score", "honest dev", "com.example", []byte{0x89, 'P'}, byte(2))
	f.Add(bytes.Repeat([]byte{0}, 16<<10), "Grüße\x00世界\x00\u200b\u200c", "Zoë", "ünï", []byte{1}, byte(3))
	f.Add(bytes.Repeat([]byte("ab"), 2<<10), "\xff\xfe", "\xc3", "x", bytes.Repeat([]byte{7}, 300), byte(6))
	f.Add(mixedDex(8<<10, 2), "s", "", "app", mixedDex(4<<10, 3), byte(5))
	f.Fuzz(func(t *testing.T, dexBytes []byte, strs, author, name string, icon []byte, mode byte) {
		res := Resources{Icon: icon, Author: author}
		if strs != "" {
			res.Strings = strings.Split(strs, "\x00")
		}
		if name == "" || len(dexBytes) == 0 {
			// Sign refuses these; pack them unsigned, with no certificate.
			checkPack(t, "unsigned", &Package{Name: name, Dex: dexBytes, Res: res,
				Manifest: Manifest{Digests: map[string]string{}}})
			return
		}
		var u *Unsigned
		if mode&1 == 0 {
			u = ForShipping(name, append([]byte(nil), dexBytes...), res.Clone())
		} else {
			u = &Unsigned{Name: name, Dex: dexBytes, Res: res}
		}
		p, err := Sign(u, key)
		if err != nil {
			t.Fatal(err)
		}
		if mode&2 != 0 {
			p.Cert = nil
		}
		if mode&4 != 0 {
			p.Dex[0] ^= 1
			p.Res.Strings = append(p.Res.Strings, "late")
		}
		checkPack(t, fmt.Sprintf("mode %d", mode&7), p)
	})
}

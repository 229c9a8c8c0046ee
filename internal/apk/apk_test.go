package apk

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"bombdroid/internal/dex"
)

func testDex(t testing.TB) *dex.File {
	t.Helper()
	f := dex.NewFile()
	b := dex.NewBuilder(f, "onCreate", 0)
	r := b.Reg()
	b.ConstInt(r, 7)
	b.PutStatic("App.state", r)
	m := b.MustFinish()
	m.Flags = dex.FlagInit
	c := &dex.Class{Name: "App", Fields: []dex.Field{{Name: "state", Init: dex.Int64(0)}}}
	c.AddMethod(m)
	if err := f.AddClass(c); err != nil {
		t.Fatal(err)
	}
	return f
}

func testPackage(t testing.TB, seed int64) (*Package, *KeyPair) {
	t.Helper()
	key, err := NewKeyPair(seed)
	if err != nil {
		t.Fatal(err)
	}
	res := Resources{
		Strings: []string{"hello", "world"},
		Icon:    []byte{0x89, 'P', 'N', 'G'},
		Author:  "honest dev",
	}
	p, err := Sign(Build("com.example.app", testDex(t), res), key)
	if err != nil {
		t.Fatal(err)
	}
	return p, key
}

func TestKeyPairDeterministic(t *testing.T) {
	k1, err := NewKeyPair(42)
	if err != nil {
		t.Fatal(err)
	}
	k2, err := NewKeyPair(42)
	if err != nil {
		t.Fatal(err)
	}
	k3, err := NewKeyPair(43)
	if err != nil {
		t.Fatal(err)
	}
	if k1.PublicKeyHex() != k2.PublicKeyHex() {
		t.Error("same seed should give same key")
	}
	if k1.PublicKeyHex() == k3.PublicKeyHex() {
		t.Error("different seeds should give different keys")
	}
	if len(k1.PublicKeyHex()) != 64 {
		t.Errorf("public key hex length = %d", len(k1.PublicKeyHex()))
	}
}

func TestSignVerifyRoundTrip(t *testing.T) {
	p, key := testPackage(t, 1)
	if err := p.Verify(); err != nil {
		t.Fatalf("freshly signed package must verify: %v", err)
	}
	if p.PublicKeyHex() != key.PublicKeyHex() {
		t.Error("package public key differs from signer")
	}
	if _, err := p.DexFile(); err != nil {
		t.Errorf("dex should decode: %v", err)
	}
}

func TestVerifyDetectsTampering(t *testing.T) {
	base, _ := testPackage(t, 1)

	t.Run("dex flip", func(t *testing.T) {
		p := base.Clone()
		p.Dex[len(p.Dex)-1] ^= 0xFF
		if p.Verify() == nil {
			t.Error("flipped dex byte must break verification")
		}
	})
	t.Run("resource edit", func(t *testing.T) {
		p := base.Clone()
		p.Res.Strings[0] = "evil"
		if p.Verify() == nil {
			t.Error("edited resource must break verification")
		}
	})
	t.Run("author swap", func(t *testing.T) {
		p := base.Clone()
		p.Res.Author = "pirate"
		if p.Verify() == nil {
			t.Error("swapped author must break verification")
		}
	})
	t.Run("manifest forgery", func(t *testing.T) {
		p := base.Clone()
		p.Dex[0] ^= 1
		p.Manifest.Digests[EntryDex] = DigestHex(p.Dex)
		if p.Verify() == nil {
			t.Error("re-digested manifest without re-signing must fail")
		}
	})
	t.Run("missing cert", func(t *testing.T) {
		p := base.Clone()
		p.Cert = nil
		if p.Verify() != ErrNoCertificate {
			t.Error("missing certificate must be reported")
		}
	})
	t.Run("extra manifest entry", func(t *testing.T) {
		p := base.Clone()
		p.Manifest.Digests["sneaky"] = DigestHex(nil)
		if p.Verify() == nil {
			t.Error("extra manifest entry must fail")
		}
	})
}

// Property: any single byte flip anywhere in the dex breaks Verify.
func TestVerifyByteFlipProperty(t *testing.T) {
	base, _ := testPackage(t, 5)
	if err := quick.Check(func(pos uint16, mask byte) bool {
		if mask == 0 {
			return true
		}
		p := base.Clone()
		i := int(pos) % len(p.Dex)
		p.Dex[i] ^= mask
		return p.Verify() != nil
	}, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func TestRepackageChangesPublicKey(t *testing.T) {
	victim, devKey := testPackage(t, 1)
	attacker, err := NewKeyPair(666)
	if err != nil {
		t.Fatal(err)
	}
	pirated, err := Repackage(victim, attacker, RepackOptions{NewAuthor: "pirate co"})
	if err != nil {
		t.Fatal(err)
	}
	if err := pirated.Verify(); err != nil {
		t.Fatalf("repackaged app is validly signed and must verify: %v", err)
	}
	if pirated.PublicKeyHex() == devKey.PublicKeyHex() {
		t.Fatal("repackaging must change the public key — the detection premise")
	}
	if pirated.Res.Author != "pirate co" {
		t.Error("author not replaced")
	}
	if pirated.Name != victim.Name {
		t.Error("app name should be preserved")
	}
}

func TestRepackageInjectsMalware(t *testing.T) {
	victim, _ := testPackage(t, 1)
	attacker, _ := NewKeyPair(667)
	mal := &dex.Class{Name: "Malware"}
	mb := dex.NewBuilder(dex.NewFile(), "steal", 0)
	mb.ReturnVoid()
	mal.AddMethod(mb.MustFinish())
	pirated, err := Repackage(victim, attacker, RepackOptions{InjectClass: mal})
	if err != nil {
		t.Fatal(err)
	}
	f, err := pirated.DexFile()
	if err != nil {
		t.Fatal(err)
	}
	if f.Class("Malware") == nil {
		t.Error("injected class missing")
	}
	if f.Class("App") == nil {
		t.Error("original class lost")
	}
}

func TestRepackageMutateDex(t *testing.T) {
	victim, _ := testPackage(t, 1)
	attacker, _ := NewKeyPair(668)
	pirated, err := Repackage(victim, attacker, RepackOptions{
		MutateDex: func(f *dex.File) error {
			f.Class("App").Methods[0].Code = []dex.Instr{{Op: dex.OpReturnVoid, A: -1, B: -1, C: -1}}
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	f, _ := pirated.DexFile()
	if len(f.Class("App").Methods[0].Code) != 1 {
		t.Error("mutation not applied")
	}
	if err := pirated.Verify(); err != nil {
		t.Errorf("mutated+resigned app must verify: %v", err)
	}
}

func TestPackUnpackRoundTrip(t *testing.T) {
	p, _ := testPackage(t, 9)
	data, err := Pack(p)
	if err != nil {
		t.Fatal(err)
	}
	q, err := Unpack(data)
	if err != nil {
		t.Fatal(err)
	}
	if q.Name != p.Name || q.Res.Author != p.Res.Author {
		t.Error("metadata lost in round trip")
	}
	if string(q.Dex) != string(p.Dex) {
		t.Error("dex bytes changed")
	}
	if len(q.Res.Strings) != len(p.Res.Strings) {
		t.Error("strings lost")
	}
	if err := q.Verify(); err != nil {
		t.Errorf("unpacked package must still verify: %v", err)
	}
	if _, err := Unpack([]byte("junk")); err == nil {
		t.Error("junk archive should fail")
	}
}

func TestStegoRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	covers := []string{"Tap to start", "", "日本語テキスト", "a"}
	secrets := []string{"ab12cd", "deadbeef00", "x"}
	for _, cover := range covers {
		for _, secret := range secrets {
			s := HideInString(cover, secret, rng)
			if got := ExtractFromString(s); got != secret {
				t.Errorf("cover %q secret %q: extracted %q", cover, secret, got)
			}
			if !CarriesHidden(s) {
				t.Error("stego string should carry marker")
			}
			// The visible text is unchanged once markers are stripped.
			visible := strings.Map(func(r rune) rune {
				if r == zwBit0 || r == zwBit1 || r == zwMark {
					return -1
				}
				return r
			}, s)
			wantVisible := cover
			if cover == "" {
				wantVisible = "ok"
			}
			if visible != wantVisible {
				t.Errorf("visible text %q != cover %q", visible, wantVisible)
			}
		}
	}
	if ExtractFromString("no secrets here") != "" {
		t.Error("plain string should extract empty")
	}
	if CarriesHidden("plain") {
		t.Error("plain string should not carry markers")
	}
}

// Property: stego round-trips arbitrary ASCII secrets through
// arbitrary covers.
func TestStegoProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	if err := quick.Check(func(cover string, raw []byte) bool {
		secret := DigestHex(raw)[:16]
		return ExtractFromString(HideInString(cover, secret, rng)) == secret
	}, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestTotalSizeAndClone(t *testing.T) {
	p, _ := testPackage(t, 2)
	if p.TotalSize() <= 0 {
		t.Error("TotalSize should be positive")
	}
	q := p.Clone()
	q.Res.Icon[0] = 0
	q.Manifest.Digests[EntryDex] = "x"
	if p.Res.Icon[0] == 0 || p.Manifest.Digests[EntryDex] == "x" {
		t.Error("Clone shares state")
	}
}

// TestSignErrorPaths pins the input-validation contract: a nil or
// empty signing key and an empty package return explicit errors
// instead of panicking partway through manifest construction.
func TestSignErrorPaths(t *testing.T) {
	key, err := NewKeyPair(11)
	if err != nil {
		t.Fatal(err)
	}
	u := Build("com.example.app", testDex(t), Resources{Author: "dev"})
	if _, err := Sign(u, nil); err != ErrNilKey {
		t.Errorf("nil key: %v, want ErrNilKey", err)
	}
	if _, err := Sign(u, &KeyPair{}); err != ErrNilKey {
		t.Errorf("zero-value key: %v, want ErrNilKey", err)
	}
	if _, err := Sign(nil, key); err != ErrEmptyPackage {
		t.Errorf("nil unsigned: %v, want ErrEmptyPackage", err)
	}
	if _, err := Sign(&Unsigned{Name: "", Dex: u.Dex}, key); err != ErrEmptyPackage {
		t.Errorf("empty name: %v, want ErrEmptyPackage", err)
	}
	if _, err := Sign(&Unsigned{Name: "x", Dex: nil}, key); err != ErrEmptyPackage {
		t.Errorf("empty dex: %v, want ErrEmptyPackage", err)
	}
}

// TestRepackageErrorPaths covers the attacker-pipeline error paths:
// nil inputs fail loudly, and a mutation hook's error propagates
// instead of producing a half-repackaged app.
func TestRepackageErrorPaths(t *testing.T) {
	victim, _ := testPackage(t, 21)
	attacker, err := NewKeyPair(22)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Repackage(nil, attacker, RepackOptions{}); err != ErrEmptyPackage {
		t.Errorf("nil victim: %v, want ErrEmptyPackage", err)
	}
	if _, err := Repackage(victim, nil, RepackOptions{}); err != ErrNilKey {
		t.Errorf("nil attacker key: %v, want ErrNilKey", err)
	}
	wantErr := "mutation exploded"
	if _, err := Repackage(victim, attacker, RepackOptions{
		MutateDex: func(*dex.File) error { return fmt.Errorf("%s", wantErr) },
	}); err == nil || !strings.Contains(err.Error(), wantErr) {
		t.Errorf("mutate error not propagated: %v", err)
	}
}

// TestDoubleRepackage: repackaging a repackaged app is the threat
// model iterated — it must still produce a validly signed package,
// and each hop's public key must differ from every earlier signer's.
func TestDoubleRepackage(t *testing.T) {
	victim, devKey := testPackage(t, 31)
	a1, err := NewKeyPair(32)
	if err != nil {
		t.Fatal(err)
	}
	a2, err := NewKeyPair(33)
	if err != nil {
		t.Fatal(err)
	}
	first, err := Repackage(victim, a1, RepackOptions{NewAuthor: "pirate one"})
	if err != nil {
		t.Fatal(err)
	}
	second, err := Repackage(first, a2, RepackOptions{NewAuthor: "pirate two"})
	if err != nil {
		t.Fatal(err)
	}
	if err := second.Verify(); err != nil {
		t.Errorf("double-repackaged app must still verify: %v", err)
	}
	keys := map[string]string{
		"developer":       devKey.PublicKeyHex(),
		"first attacker":  first.PublicKeyHex(),
		"second attacker": second.PublicKeyHex(),
	}
	seen := map[string]string{}
	for who, k := range keys {
		if prev, dup := seen[k]; dup {
			t.Errorf("%s and %s share a public key", who, prev)
		}
		seen[k] = who
	}
	if second.Res.Author != "pirate two" {
		t.Errorf("author = %q, want the second attacker's", second.Res.Author)
	}
}

// TestSortedDigestsDeterministic pins the canonical digest ordering
// the market's fingerprint channel depends on: SortedDigests must be
// sorted by entry name, stable across repeated calls and across
// pack/unpack round trips, and its digests must change exactly when
// the underlying entry changes.
func TestSortedDigestsDeterministic(t *testing.T) {
	p, _ := testPackage(t, 1)
	ds := p.Manifest.SortedDigests()
	if len(ds) == 0 {
		t.Fatal("no digests")
	}
	for i := 1; i < len(ds); i++ {
		if ds[i-1].Entry >= ds[i].Entry {
			t.Fatalf("digests not strictly sorted by entry: %q then %q", ds[i-1].Entry, ds[i].Entry)
		}
	}
	if fmt.Sprint(p.Manifest.SortedDigests()) != fmt.Sprint(ds) {
		t.Fatal("repeated SortedDigests calls disagree")
	}

	// Survives the wire: unpacking a packed apk yields the same order
	// and digests.
	blob, err := Pack(p)
	if err != nil {
		t.Fatal(err)
	}
	back, err := Unpack(blob)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(back.Manifest.SortedDigests()) != fmt.Sprint(ds) {
		t.Fatal("pack/unpack round trip changed SortedDigests")
	}

	// Same inputs, independent build → identical digest set; a changed
	// resource moves exactly that entry's digest.
	q, _ := testPackage(t, 2) // different signing seed, same content
	if fmt.Sprint(q.Manifest.SortedDigests()) != fmt.Sprint(ds) {
		t.Fatal("identical content produced different digests")
	}
	res := Resources{Strings: []string{"hello", "tampered"}, Icon: []byte{0x89, 'P', 'N', 'G'}, Author: "honest dev"}
	key, err := NewKeyPair(3)
	if err != nil {
		t.Fatal(err)
	}
	r, err := Sign(Build("com.example.app", testDex(t), res), key)
	if err != nil {
		t.Fatal(err)
	}
	rds := r.Manifest.SortedDigests()
	if len(rds) != len(ds) {
		t.Fatalf("entry count changed: %d vs %d", len(rds), len(ds))
	}
	var moved []string
	for i := range ds {
		if rds[i].Entry != ds[i].Entry {
			t.Fatalf("entry order changed at %d: %q vs %q", i, rds[i].Entry, ds[i].Entry)
		}
		if rds[i].Digest != ds[i].Digest {
			moved = append(moved, rds[i].Entry)
		}
	}
	if len(moved) != 1 || moved[0] != EntryStrings {
		t.Fatalf("tampering strings moved digests %v, want exactly [%s]", moved, EntryStrings)
	}
}

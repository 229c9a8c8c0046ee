package lockbox

import (
	"bytes"
	"compress/flate"
	"crypto/aes"
	"crypto/cipher"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"bombdroid/internal/dex"
)

func TestHashHexShape(t *testing.T) {
	h := HashHex(dex.Int64(0xfff000), "s1")
	if len(h) != 40 {
		t.Fatalf("SHA-1 hex length = %d, want 40", len(h))
	}
	if h != strings.ToLower(h) {
		t.Error("hash should be lowercase hex")
	}
}

// TestHashGolden pins HashHex and DeriveKey byte for byte for every
// Value kind. Protected apps embed HashHex digests and seal payloads
// under DeriveKey keys, and the attack suite and trigger builder
// recompute both, so neither may ever change. The vectors were taken
// from the original sha1.New/Repr implementation and spot-checked
// against an independent SHA-1.
func TestHashGolden(t *testing.T) {
	for _, c := range []struct {
		name      string
		x         dex.Value
		salt      string
		hash, key string
	}{
		{"int", dex.Int64(1234), "s",
			"f459bec305a2d825cf9ebe3532c19e57332ec10e", "02383569308c617f3f244455c8ce32fe"},
		{"negative int", dex.Int64(-42), "salt9",
			"75ed9c2cece361e0379c7ebccc9c00d650c03373", "65f2a464a5256d36e8d993467b0f99aa"},
		{"min int64", dex.Int64(math.MinInt64), "m",
			"e28fdf9f26d677da8bf324979be99f5d6d49653f", "b436405c8b6303eb61c43f8eaff90305"},
		{"empty string", dex.Str(""), "",
			"0858bd015bafaa4c73ba4a3f46ba401d0b5e0b24", "df9dbd6776632786349ee883997c0fe8"},
		{"short string", dex.Str("arm64-v8a"), "x7",
			"465a08e7797bc686aa1d6ba2a76254d1711f7af3", "68a2b73bc090e5813635096b218b2f15"},
		// 280 bytes: longer than the stack buffer.
		{"long string", dex.Str(strings.Repeat("long-constant/", 20)), "salt",
			"d8bb2e6dfc373176d753128bd31cf0e4c4e739d0", "49c1d53f17a26457e44661f8f74207b8"},
		{"long salt", dex.Int64(7), strings.Repeat("S", 200),
			"4053beeb772c66051b8eb8885f8d79e47b5012d4", "29a5107d0af1a3de9db7ee8a838ab369"},
		{"bytes", dex.Bytes([]byte{0, 1, 0xfe, 'x'}), "b",
			"180203f63d3fa4bc7662275f70993317035bd1b6", "74f5d3a5c63d77588a20bd961cf21e19"},
		{"handle", dex.Handle(3), "h",
			"fe6a9538c96f2248d1c790d9aa3ca1e8da6ef6e9", "6044ec9c6a2766fad3b49f54543b6793"},
		{"nil", dex.Nil(), "n",
			"8d327dff291ee5119c429539f260ce9056e8f159", "bd524bf74528e59246b9d83d2a669e83"},
		{"arr", dex.NewArr(2), "a",
			"bc48cf9ca7a0720299b3425db69cc96069107158", "7d3f85371f6833d6f852b5e786aafe9f"},
	} {
		if got := HashHex(c.x, c.salt); got != c.hash {
			t.Errorf("%s: HashHex = %s, want %s", c.name, got, c.hash)
		}
		if got := hex.EncodeToString(DeriveKey(c.x, c.salt)); got != c.key {
			t.Errorf("%s: DeriveKey = %s, want %s", c.name, got, c.key)
		}
	}
}

// TestHashHexAllocs pins the runtime bomb check's cost: HashHex on an
// int or a short string allocates only its result.
func TestHashHexAllocs(t *testing.T) {
	for _, x := range []dex.Value{dex.Int64(-1234567), dex.Str("samsung")} {
		if n := testing.AllocsPerRun(100, func() { _ = HashHex(x, "salt-0042") }); n != 1 {
			t.Errorf("HashHex(%v) allocates %v times, want 1", x, n)
		}
	}
}

// Property: Hash(X|salt) == Hc iff X == c (within a kind), i.e. the
// obfuscated condition is semantically equivalent to the original —
// the paper's correctness requirement for the transformation.
func TestHashEquivalenceProperty(t *testing.T) {
	if err := quick.Check(func(c, x int64, salt string) bool {
		hc := HashHex(dex.Int64(c), salt)
		hx := HashHex(dex.Int64(x), salt)
		return (hx == hc) == (x == c)
	}, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
	if err := quick.Check(func(c, x string, salt string) bool {
		hc := HashHex(dex.Str(c), salt)
		hx := HashHex(dex.Str(x), salt)
		return (hx == hc) == (x == c)
	}, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestSaltChangesEverything(t *testing.T) {
	x := dex.Int64(42)
	if HashHex(x, "a") == HashHex(x, "b") {
		t.Error("different salts must produce different hashes (rainbow-table defence)")
	}
	if string(DeriveKey(x, "a")) == string(DeriveKey(x, "b")) {
		t.Error("different salts must produce different keys")
	}
	if HashHex(x, "a") == "" {
		t.Error("empty hash")
	}
}

func TestHashAndKeyDomainsSeparate(t *testing.T) {
	// Publishing Hc must not reveal key material: the hash and the
	// derived key use separate domains.
	x := dex.Int64(7)
	h := HashHex(x, "s")
	k := DeriveKey(x, "s")
	if strings.Contains(h, string(k)) || strings.HasPrefix(h, string(k)) {
		t.Error("key material leaks into published hash")
	}
}

func TestSealOpenRoundTrip(t *testing.T) {
	key := DeriveKey(dex.Str("secret-constant"), "salt9")
	plain := []byte("the repackaging detection payload bytecode")
	sealed, err := Seal(plain, key)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Open(sealed, key)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(plain) {
		t.Error("round trip mangled payload")
	}
	if strings.Contains(string(sealed), "repackaging") {
		t.Error("plaintext visible in sealed blob")
	}
}

// Property: opening under any key other than the sealing key fails
// with ErrWrongKey — forced execution cannot reveal payload behaviour.
func TestWrongKeyAlwaysFailsProperty(t *testing.T) {
	plain := []byte("payload")
	right := DeriveKey(dex.Int64(1234), "s")
	sealed, err := Seal(plain, right)
	if err != nil {
		t.Fatal(err)
	}
	if err := quick.Check(func(guess int64, salt string) bool {
		key := DeriveKey(dex.Int64(guess), salt)
		if string(key) == string(right) {
			return true
		}
		_, err := Open(sealed, key)
		return err == ErrWrongKey
	}, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestOpenRejectsTruncatedAndTampered(t *testing.T) {
	key := DeriveKey(dex.Int64(5), "s")
	sealed, _ := Seal([]byte("data"), key)
	if _, err := Open(sealed[:10], key); err != ErrTruncated {
		t.Errorf("truncated blob: %v, want ErrTruncated", err)
	}
	for i := range sealed {
		mut := append([]byte(nil), sealed...)
		mut[i] ^= 0x80
		if _, err := Open(mut, key); err == nil {
			// A flip in the nonce or body must break the tag; a flip in
			// the ciphertext tag bytes likewise.
			t.Errorf("bit flip at %d accepted", i)
		}
	}
}

// TestOpenCorruptionTable pins the fail-closed contract for each
// storage-fault class the chaos layer injects: no corruption mode may
// yield plaintext (not even partial), and each maps to an explicit
// error.
func TestOpenCorruptionTable(t *testing.T) {
	key := DeriveKey(dex.Str("constant"), "salty")
	plain := []byte("inner trigger + detection + response bytecode")
	sealed, err := Seal(plain, key)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name    string
		corrupt func([]byte) []byte
		wantErr error // nil = any non-nil error accepted
	}{
		{"empty", func(b []byte) []byte { return nil }, ErrTruncated},
		{"below nonce+tag", func(b []byte) []byte { return b[:15] }, ErrTruncated},
		{"exact nonce only", func(b []byte) []byte { return b[:16] }, ErrTruncated},
		{"one byte short of minimum", func(b []byte) []byte { return b[:23] }, ErrTruncated},
		{"body truncated past minimum", func(b []byte) []byte { return b[:len(b)-3] }, ErrWrongKey},
		{"nonce bit flip", func(b []byte) []byte { b[3] ^= 1; return b }, ErrWrongKey},
		{"tag region bit flip", func(b []byte) []byte { b[17] ^= 0x40; return b }, ErrWrongKey},
		{"body bit flip", func(b []byte) []byte { b[len(b)-1] ^= 0x08; return b }, ErrWrongKey},
		{"zeroed body", func(b []byte) []byte {
			for i := 16; i < len(b); i++ {
				b[i] = 0
			}
			return b
		}, ErrWrongKey},
		{"doubled blob", func(b []byte) []byte { return append(b, b...) }, ErrWrongKey},
	}
	for _, tc := range cases {
		mut := tc.corrupt(append([]byte(nil), sealed...))
		got, err := Open(mut, key)
		if err == nil {
			t.Errorf("%s: corruption accepted", tc.name)
			continue
		}
		if tc.wantErr != nil && err != tc.wantErr {
			t.Errorf("%s: err = %v, want %v", tc.name, err, tc.wantErr)
		}
		if got != nil {
			t.Errorf("%s: partial plaintext escaped a failed open", tc.name)
		}
	}
}

func TestSealDeterministic(t *testing.T) {
	key := DeriveKey(dex.Str("c"), "s")
	a, _ := Seal([]byte("p"), key)
	b, _ := Seal([]byte("p"), key)
	if string(a) != string(b) {
		t.Error("sealing must be deterministic for reproducible builds")
	}
}

func TestSealValueOpenValue(t *testing.T) {
	x := dex.Str("mMode=0xfff000")
	sealed, err := SealValue([]byte("payload"), x, "salt")
	if err != nil {
		t.Fatal(err)
	}
	got, err := OpenValue(sealed, x, "salt")
	if err != nil || string(got) != "payload" {
		t.Fatalf("OpenValue: %v %q", err, got)
	}
	if _, err := OpenValue(sealed, dex.Str("other"), "salt"); err != ErrWrongKey {
		t.Errorf("wrong value should fail: %v", err)
	}
	if _, err := OpenValue(sealed, x, "otherSalt"); err != ErrWrongKey {
		t.Errorf("wrong salt should fail: %v", err)
	}
}

func TestBadKeyLength(t *testing.T) {
	if _, err := Seal([]byte("p"), []byte("short")); err == nil {
		t.Error("short key should error")
	}
	sealed, _ := Seal([]byte("p"), DeriveKey(dex.Int64(1), "s"))
	if _, err := Open(sealed, []byte("short")); err == nil {
		t.Error("short key should error on open")
	}
}

func TestEmptyPayload(t *testing.T) {
	key := DeriveKey(dex.Int64(0), "")
	sealed, err := Seal(nil, key)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Open(sealed, key)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Error("empty payload round trip failed")
	}
}

// sealFresh is the sealed format built from first principles with a
// freshly allocated compressor — the oracle for Seal's pooled one.
func sealFresh(t *testing.T, plain, key []byte) []byte {
	var zbuf bytes.Buffer
	zw, err := flate.NewWriter(&zbuf, flate.BestCompression)
	if err != nil {
		t.Fatal(err)
	}
	zw.Write(plain)
	zw.Close()
	z := zbuf.Bytes()
	sum := sha256.Sum256(z)
	nonceSrc := sha256.New()
	fmt.Fprintf(nonceSrc, "nonce|%s", key)
	nonceSrc.Write(sum[:])
	nonce := nonceSrc.Sum(nil)[:aes.BlockSize]
	block, err := aes.NewCipher(key)
	if err != nil {
		t.Fatal(err)
	}
	body := append(append([]byte(nil), sum[:tagLen]...), z...)
	cipher.NewCTR(block, nonce).XORKeyStream(body, body)
	return append(nonce, body...)
}

// TestSealPooledMatchesFresh seals payloads from 8 goroutines at once
// (so pooled compressors are handed between goroutines and reused
// across payloads of every size) and requires each sealed blob to be
// byte-identical to one made with a fresh compressor.
func TestSealPooledMatchesFresh(t *testing.T) {
	const workers, perWorker = 8, 100
	rng := rand.New(rand.NewSource(5))
	type job struct{ plain, key, want []byte }
	jobs := make([][]job, workers)
	for w := range jobs {
		for i := 0; i < perWorker; i++ {
			n := rng.Intn(2048)
			if i%25 == 0 {
				n = 33_000 + rng.Intn(8_000) // past the 32 KB window
			}
			plain := make([]byte, n)
			if i%2 == 0 {
				rng.Read(plain) // incompressible
			} else {
				for j := range plain {
					plain[j] = "bombdroid payload "[rng.Intn(18)]
				}
			}
			key := DeriveKey(dex.Int64(int64(w*perWorker+i)), "pool")
			jobs[w] = append(jobs[w], job{plain, key, sealFresh(t, plain, key)})
		}
	}
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := range jobs {
		wg.Add(1)
		go func(js []job) {
			defer wg.Done()
			for i, j := range js {
				got, err := Seal(j.plain, j.key)
				if err != nil {
					errs <- err
					return
				}
				if !bytes.Equal(got, j.want) {
					errs <- fmt.Errorf("payload %d (%d bytes): pooled seal differs from fresh", i, len(j.plain))
					return
				}
			}
		}(jobs[w])
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

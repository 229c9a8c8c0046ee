package apk_test

import (
	"bytes"
	"context"
	"fmt"
	"testing"

	"bombdroid/internal/apk"
	"bombdroid/internal/appgen"
	"bombdroid/internal/core"
)

// protectedBuild protects a generated app of about loc lines and
// returns the engine's shipping build and the developer key.
func protectedBuild(t testing.TB, loc int, seed int64) (*apk.Unsigned, *apk.KeyPair) {
	t.Helper()
	app, err := appgen.Generate(appgen.Config{Name: fmt.Sprintf("Corpus%d", loc), Seed: seed, TargetLOC: loc})
	if err != nil {
		t.Fatal(err)
	}
	key, err := apk.NewKeyPair(seed)
	if err != nil {
		t.Fatal(err)
	}
	orig, err := apk.Sign(apk.Build(app.Name, app.File, apk.Resources{
		Strings: []string{app.Name, "Settings", "À propos"},
		Icon:    bytes.Repeat([]byte{0x89, 'P', 'N', 'G'}, 512),
		Author:  app.Name + " devs",
	}), key)
	if err != nil {
		t.Fatal(err)
	}
	eng := &core.Engine{Opts: core.Options{Seed: seed}}
	prot, err := eng.Run(context.Background(), orig)
	if err != nil {
		t.Fatal(err)
	}
	return prot.Unsigned, key
}

// TestPackMatchesReferenceOnProtectedCorpus: protected apps, signed as
// the engine hands them out and signed unmarked, pack to the bytes
// archive/zip's Create writes.
func TestPackMatchesReferenceOnProtectedCorpus(t *testing.T) {
	for i, loc := range []int{1000, 2500, 4000} {
		u, key := protectedBuild(t, loc, int64(7919*(i+1)))
		plain := &apk.Unsigned{Name: u.Name, Dex: u.Dex, Res: u.Res}
		for _, c := range []struct {
			name string
			u    *apk.Unsigned
		}{{"marked", u}, {"unmarked", plain}} {
			p, err := apk.Sign(c.u, key)
			if err != nil {
				t.Fatal(err)
			}
			want, err := apk.PackReference(p)
			if err != nil {
				t.Fatal(err)
			}
			got, err := apk.Pack(p)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("%d LOC, %s: Pack wrote %d bytes that differ from archive/zip's %d",
					loc, c.name, len(got), len(want))
			}
		}
	}
}

// BenchmarkSignPack times Sign then Pack of a protected app, the
// developer's last two steps, for the engine's shipping build (whose
// deflate runs beside the signature) and for the same content
// unmarked (deflated by Pack alone).
func BenchmarkSignPack(b *testing.B) {
	u, key := protectedBuild(b, 4000, 31)
	if len(u.Dex) < 30<<10 {
		b.Fatalf("protected dex is %d bytes, want at least 30 KB", len(u.Dex))
	}
	plain := &apk.Unsigned{Name: u.Name, Dex: u.Dex, Res: u.Res}
	for _, c := range []struct {
		name string
		u    *apk.Unsigned
	}{{"marked", u}, {"unmarked", plain}} {
		b.Run(c.name, func(b *testing.B) {
			b.SetBytes(int64(len(c.u.Dex)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				p, err := apk.Sign(c.u, key)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := apk.Pack(p); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

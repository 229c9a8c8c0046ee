package exp

import (
	"context"
	"testing"

	"bombdroid/internal/apk"
)

// goldenProtectedDigests pins the packed bytes of every named app's
// protected package at the Quick profiling scale (2500 events). The
// staged engine refactor, the artifact cache, and any worker count
// must all reproduce these bytes exactly — a change here means the
// protection pipeline's output drifted, which invalidates every
// digest-comparison bomb already in the field.
var goldenProtectedDigests = map[string]string{
	"AndroFish":     "50732564ccfcc955ece7ccc6a8cc4096bdc485bbaf42f5d40e62471e8b7596a8",
	"Angulo":        "54b0d9068ba658b16bd50c639128b51c0250749b43c5ac84543b3be23b49b366",
	"SWJournal":     "daf2a9bcbd9b46425c28e1df45cf942b54c098eed9e6e0e0d59b341cb21e76af",
	"Calendar":      "b2a454863a6e6ffa874cfcc7e0bb335a8ffc54b94a51c952c2a9834fb1135568",
	"BRouter":       "f0ef501faafee87fa2dd47bbb07a023011ad8a227fbbd9cca23da871a736b77a",
	"Binaural Beat": "07f3d72ce82c3991dc5561d9b4280cdfd52089c600fff9142c4e33bd1d3dc7e3",
	"Hash Droid":    "e27a896d051c68866e42f0dd48a1624b4965d96a1fdd7c32d7edaf8419cacd89",
	"CatLog":        "b0ba1e677e3c2eddd8c4523d213ea4c8e0f1c0282be195e393c389ba9224186e",
}

func TestProtectedOutputGoldenDigests(t *testing.T) {
	for name, want := range goldenProtectedDigests {
		p, err := PrepareCtx(context.Background(), name, 2500)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		packed, err := apk.Pack(p.Protected)
		if err != nil {
			t.Fatalf("%s: pack: %v", name, err)
		}
		if got := apk.DigestHex(packed); got != want {
			t.Errorf("%s: protected package digest drifted:\n got %s\nwant %s", name, got, want)
		}
	}
}

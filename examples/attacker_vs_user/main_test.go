package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"
)

// outputSHA256 is the digest of the example's standard output. Every
// step of the story is seeded, so any change to it means protection,
// the attacks or the simulation changed behaviour.
const outputSHA256 = "f2feb4700c33925aad8cf590e0063f4cbda2465d35891c138d647541e12d0ae3"

func TestRunOutputPinned(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(out.Bytes())
	if got := hex.EncodeToString(sum[:]); got != outputSHA256 {
		t.Errorf("output digest %s, want %s; output:\n%s", got, outputSHA256, out.Bytes())
	}
}

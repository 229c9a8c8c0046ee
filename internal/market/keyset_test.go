package market

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"
)

// keySetOf builds a key set holding keys in order.
func keySetOf(keys ...string) keySet {
	var s keySet
	for _, k := range keys {
		s.add(k, ksHash(k))
	}
	return s
}

// ksKeys lists a key set's keys in insertion order, read off its slab.
func ksKeys(s *keySet) []string {
	var out []string
	for off := 0; off < len(s.slab); {
		l := int(binary.LittleEndian.Uint32(s.slab[off:]))
		out = append(out, string(s.slab[off+4:off+4+l]))
		off += 4 + l
	}
	return out
}

// TestKeySetMatchesMap drives a two-generation window of key sets —
// rotated exactly as shard.admit rotates it — and a reference window
// of maps through the same random stream, and requires the same
// membership answer for every probe, across many rotations, table
// growths and both reset paths (full clear and per-key).
func TestKeySetMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		window := 1 + rng.Intn(60)
		universe := 1 + rng.Intn(300)
		keyOf := func(i int) string {
			// Empty, short and long keys, some sharing long prefixes.
			switch i % 4 {
			case 0:
				return fmt.Sprintf("%d", i)
			case 1:
				return fmt.Sprintf("app.%d\x1fbomb-%d\x1fuser-%0*d", i%7, i%13, 40, i)
			case 2:
				return ""
			}
			return string(rune('a' + i%26))
		}
		var cur, prev keySet
		refCur, refPrev := map[string]bool{}, map[string]bool{}
		var batch keySet
		refBatch := map[string]bool{}
		for op := 0; op < 2000; op++ {
			k := keyOf(rng.Intn(universe))
			h := ksHash(k)
			want := refCur[k] || refPrev[k]
			if got := cur.has(k, h) || prev.has(k, h); got != want {
				t.Fatalf("trial %d op %d: window has(%q) = %v, want %v", trial, op, k, got, want)
			}
			if got := batch.has(k, h); got != refBatch[k] {
				t.Fatalf("trial %d op %d: batch has(%q) = %v, want %v", trial, op, k, got, refBatch[k])
			}
			if added := batch.add(k, h); added == refBatch[k] {
				t.Fatalf("trial %d op %d: batch add(%q) = %v with key present = %v", trial, op, k, added, refBatch[k])
			}
			refBatch[k] = true
			if rng.Intn(20) == 0 {
				batch.reset()
				refBatch = map[string]bool{}
			}
			if want {
				continue
			}
			if cur.len() >= window {
				cur, prev = prev, cur
				cur.reset()
				refPrev, refCur = refCur, map[string]bool{}
			}
			cur.add(k, h)
			refCur[k] = true
			if cur.len() != len(refCur) || prev.len() != len(refPrev) {
				t.Fatalf("trial %d op %d: sizes (%d, %d), want (%d, %d)",
					trial, op, cur.len(), prev.len(), len(refCur), len(refPrev))
			}
		}
		// The slab keeps insertion order, and a set rebuilt from it
		// answers the same.
		re, ok := keySetFromSlab(append([]byte(nil), cur.slab...), cur.len())
		if !ok {
			t.Fatalf("trial %d: rebuild from slab reported a duplicate", trial)
		}
		for i := 0; i < universe; i++ {
			k := keyOf(i)
			if re.has(k, ksHash(k)) != refCur[k] {
				t.Fatalf("trial %d: rebuilt set has(%q) = %v, want %v", trial, k, !refCur[k], refCur[k])
			}
		}
	}
}

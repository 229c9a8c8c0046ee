package market

import (
	"encoding/binary"
	"hash/maphash"
)

// keySet is an exact set of strings that holds no pointers, so the
// garbage collector never scans its keys: a shard's two dedup
// generations keep ~10^5 keys live, which as map[string]struct{}
// entries cost a mark-phase visit each and a string header per key.
//
// The keys live in one byte slab in insertion order, each written as
// len u32 LE | bytes — exactly the checkpoint's per-key encoding, so a
// generation encodes as one copy of its slab and decodes into a slab
// without touching the keys one by one. An open-addressed table of
// slots (linear probing, load ≤ 1/2, power-of-two size) points into
// the slab. Membership compares the key bytes, never just the hash:
// "no acked event is ever lost" must not rest on a collision bound.
//
// The table starts small and doubles, so an idle shard pays for the
// keys it holds, not for a whole DedupWindow. reset empties the set
// but keeps both allocations, which is how a rotated-out generation is
// recycled as the next one.
type keySet struct {
	slab  []byte
	slots []ksSlot
	n     int
}

// ksSlot locates one key in the slab: off is its length prefix's
// offset, lenp1 its length plus one (0 marks an empty slot), hash the
// low 32 bits of its maphash.
type ksSlot struct {
	hash  uint32
	lenp1 uint32
	off   int
}

const ksMinSlots = 16

// ksSeed is fixed for the process: one hash per key serves the batch
// set and both generations. The seed is random per process, so slot
// positions are never persisted; only the slab is.
var ksSeed = maphash.MakeSeed()

// ksHash is the hash every keySet method takes. maphash hashes a
// string and its bytes alike, so ksHashBytes agrees with it.
func ksHash(key string) uint32 { return uint32(maphash.String(ksSeed, key)) }

func ksHashBytes(key []byte) uint32 { return uint32(maphash.Bytes(ksSeed, key)) }

func (s *keySet) len() int { return s.n }

// has reports whether key, whose ksHash is h, is in the set.
func (s *keySet) has(key string, h uint32) bool {
	if s.n == 0 {
		return false
	}
	mask := len(s.slots) - 1
	for i := int(h) & mask; ; i = (i + 1) & mask {
		sl := &s.slots[i]
		if sl.lenp1 == 0 {
			return false
		}
		if s.holds(sl, h, key) {
			return true
		}
	}
}

// add inserts key, whose ksHash is h, and reports whether it was new.
func (s *keySet) add(key string, h uint32) bool {
	if 2*(s.n+1) > len(s.slots) {
		s.slots = make([]ksSlot, ksTableSize(s.n+1))
		s.index()
	}
	mask := len(s.slots) - 1
	i := int(h) & mask
	for ; s.slots[i].lenp1 != 0; i = (i + 1) & mask {
		if s.holds(&s.slots[i], h, key) {
			return false
		}
	}
	s.slots[i] = ksSlot{hash: h, lenp1: uint32(len(key)) + 1, off: len(s.slab)}
	s.slab = binary.LittleEndian.AppendUint32(s.slab, uint32(len(key)))
	s.slab = append(s.slab, key...)
	s.n++
	return true
}

// holds reports whether sl points at key, whose ksHash is h. The
// string(bytes) == key form compares without copying.
func (s *keySet) holds(sl *ksSlot, h uint32, key string) bool {
	return sl.hash == h && int(sl.lenp1) == len(key)+1 &&
		string(s.slab[sl.off+4:sl.off+4+len(key)]) == key
}

// ksTableSize is the smallest table that holds n keys at load ≤ 1/2.
func ksTableSize(n int) int {
	size := ksMinSlots
	for size < 2*n {
		size *= 2
	}
	return size
}

// index inserts every slab key into an empty table sized for them,
// walking the slab in insertion order. It reports false on a key the
// slab holds twice.
func (s *keySet) index() bool {
	mask := len(s.slots) - 1
	for off := 0; off < len(s.slab); {
		l := int(binary.LittleEndian.Uint32(s.slab[off:]))
		key := s.slab[off+4 : off+4+l]
		h := ksHashBytes(key)
		i := int(h) & mask
		for ; s.slots[i].lenp1 != 0; i = (i + 1) & mask {
			sl := &s.slots[i]
			if sl.hash == h && int(sl.lenp1) == l+1 &&
				string(s.slab[sl.off+4:sl.off+4+l]) == string(key) {
				return false
			}
		}
		s.slots[i] = ksSlot{hash: h, lenp1: uint32(l) + 1, off: off}
		off += 4 + l
	}
	return true
}

// reset empties the set, keeping its slab and table for reuse. A
// sparsely used table — the per-batch set after a small batch — clears
// only the slots its keys took, so resetting costs what the batch
// added, not the table's high-water size. Each key's slot is found by
// its slab offset, which stays correct as earlier slots empty.
func (s *keySet) reset() {
	if 16*s.n >= len(s.slots) {
		clear(s.slots)
	} else {
		mask := len(s.slots) - 1
		for off := 0; off < len(s.slab); {
			l := int(binary.LittleEndian.Uint32(s.slab[off:]))
			i := int(ksHashBytes(s.slab[off+4:off+4+l])) & mask
			for s.slots[i].lenp1 == 0 || s.slots[i].off != off {
				i = (i + 1) & mask
			}
			s.slots[i] = ksSlot{}
			off += 4 + l
		}
	}
	s.slab = s.slab[:0]
	s.n = 0
}

// keySetFromSlab adopts slab, which must hold n well-formed
// len u32 LE | bytes entries, and builds the table over it. It reports
// false when a key appears twice.
func keySetFromSlab(slab []byte, n int) (keySet, bool) {
	s := keySet{slab: slab, slots: make([]ksSlot, ksTableSize(n)), n: n}
	return s, s.index()
}

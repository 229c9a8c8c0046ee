package market

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"maps"
	"slices"
)

// A checkpoint is one shard's complete replay-derived state — dedup
// generations, per-app tallies, cumulative record count — snapshotted
// together with the WAL position it covers. Restart then becomes
// O(checkpoint + tail): install the snapshot, replay only records past
// its position, and delete segments wholly behind it (compaction).
//
// Commit protocol (all through marketfs.FS, so the torture tests crash
// it at every step):
//
//  1. sync the WAL through the snapshot position — a checkpoint must
//     never point past durable bytes, even when routine commits skip
//     fsync;
//  2. write the encoding to ckpt-%08d.tmp, fsync, close;
//  3. rename onto ckpt-%08d (atomic: readers see the old file or the
//     new one, never a hybrid);
//  4. fsync the shard directory so the rename survives power loss.
//
// Files are self-validating (magic, length, CRC32-C over the body), so
// Open can take the newest file that decodes, fall back to older ones,
// and fall back to a full replay when none survive. The two newest
// checkpoints are retained; a torn or garbage newest file therefore
// costs one snapshot interval of tail replay, not a full-history scan.
//
// Encoding (little-endian):
//
//	| magic "BDCKPT3\n" | body len u32 | crc32c u32 | body |
//
//	body = seq u64, seg u32, off u64, records u64,
//	       apps         (count u32, then per entry: len u32, bytes, tally i64),
//	       cur          (count u32, then per key:   len u32, bytes),
//	       prev         (count u32, then per key:   len u32, bytes),
//	       timelines    (count u32, then per app:   len u32, bytes,
//	                     evicted u64, entries u32,
//	                     then per entry: at u64, tie u64),
//	       fingerprints (count u32, then per app:   len u32, bytes,
//	                     digests u32,
//	                     then per digest: len u32, bytes)
//
// Apps, timelines and fingerprints go out in sorted app order, and
// each dedup generation's keys in admission order: a key section is
// the generation's keySet slab verbatim, count first. So the encoding
// is a function of the shard's state, and two shards holding the same
// state write the same bytes. Writers before that wrote keys in map
// order; the decoder takes any order, because a generation is a set,
// and rejects only a key repeated within one generation. Every count
// is checked against the bytes left before anything is sized from it.
//
// Binary rather than JSON deliberately: at production dedup windows a
// snapshot holds ~100k keys, and decode speed is the restart path the
// whole feature exists to shorten.
//
// Version note: BDCKPT2 added the timelines section, BDCKPT3 the
// fingerprints section. An older-magic file fails the magic check and
// is skipped like any other unusable snapshot, so a daemon upgraded
// over old data falls back to an older candidate or a full replay —
// which rebuilds everything from the WAL — and writes the current
// version from then on. No separate migration path.

const ckptMagic = "BDCKPT3\n"

// maxCheckpointBody caps a decoded body allocation. Generous: a shard
// would need ~30M dedup keys to reach it.
const maxCheckpointBody = 1 << 31

// errBadCheckpoint marks a checkpoint file that fails validation
// (magic, length, CRC, or structure). The loader skips to the next
// candidate; it never aborts Open.
var errBadCheckpoint = errors.New("market: invalid checkpoint")

type checkpoint struct {
	seq       uint64
	pos       walPos
	records   int64 // cumulative records covered (admits + replayed dups)
	apps      map[string]int64
	cur, prev keySet
	tls       map[string]*appTimeline // flat: every entry in head
	fps       map[string][]string     // app → canonical fingerprint digests
}

func ckptName(seq uint64) string { return fmt.Sprintf("ckpt-%08d", seq) }

// encode writes the snapshot. Map sections go out in sorted app order
// and key sections in insertion order, so two shards holding the same
// state write the same bytes.
func (c *checkpoint) encode() []byte {
	apps := slices.Sorted(maps.Keys(c.apps))
	tlApps := slices.Sorted(maps.Keys(c.tls))
	fpApps := slices.Sorted(maps.Keys(c.fps))
	size := 8 + 4 + 8 + 8 + 4 + 4 + len(c.cur.slab) + 4 + len(c.prev.slab) + 4 + 4
	for _, app := range apps {
		size += 4 + len(app) + 8
	}
	for _, app := range tlApps {
		size += 4 + len(app) + 8 + 4 + 16*len(c.tls[app].head)
	}
	for _, app := range fpApps {
		size += 4 + len(app) + 4
		for _, d := range c.fps[app] {
			size += 4 + len(d)
		}
	}
	// The body is appended after the header, whose length and CRC are
	// filled in last.
	const hdr = len(ckptMagic) + 8
	out := make([]byte, hdr, hdr+size)
	copy(out, ckptMagic)
	out = binary.LittleEndian.AppendUint64(out, c.seq)
	out = binary.LittleEndian.AppendUint32(out, uint32(c.pos.Seg))
	out = binary.LittleEndian.AppendUint64(out, uint64(c.pos.Off))
	out = binary.LittleEndian.AppendUint64(out, uint64(c.records))
	out = binary.LittleEndian.AppendUint32(out, uint32(len(apps)))
	for _, app := range apps {
		out = binary.LittleEndian.AppendUint32(out, uint32(len(app)))
		out = append(out, app...)
		out = binary.LittleEndian.AppendUint64(out, uint64(c.apps[app]))
	}
	for _, set := range []*keySet{&c.cur, &c.prev} {
		out = binary.LittleEndian.AppendUint32(out, uint32(set.len()))
		out = append(out, set.slab...)
	}
	out = binary.LittleEndian.AppendUint32(out, uint32(len(tlApps)))
	for _, app := range tlApps {
		tl := c.tls[app]
		out = binary.LittleEndian.AppendUint32(out, uint32(len(app)))
		out = append(out, app...)
		out = binary.LittleEndian.AppendUint64(out, uint64(tl.evicted))
		out = binary.LittleEndian.AppendUint32(out, uint32(len(tl.head)))
		for _, e := range tl.head {
			out = binary.LittleEndian.AppendUint64(out, uint64(e.at))
			out = binary.LittleEndian.AppendUint64(out, e.tie)
		}
	}
	out = binary.LittleEndian.AppendUint32(out, uint32(len(fpApps)))
	for _, app := range fpApps {
		digests := c.fps[app]
		out = binary.LittleEndian.AppendUint32(out, uint32(len(app)))
		out = append(out, app...)
		out = binary.LittleEndian.AppendUint32(out, uint32(len(digests)))
		for _, d := range digests {
			out = binary.LittleEndian.AppendUint32(out, uint32(len(d)))
			out = append(out, d...)
		}
	}
	body := out[hdr:]
	binary.LittleEndian.PutUint32(out[len(ckptMagic):], uint32(len(body)))
	binary.LittleEndian.PutUint32(out[len(ckptMagic)+4:], crc32.Checksum(body, castagnoli))
	return out
}

// decodeCheckpoint validates and decodes one checkpoint file's bytes.
// Every failure wraps errBadCheckpoint so the loader can distinguish
// "this file is bad, try the next" from I/O errors.
func decodeCheckpoint(raw []byte) (*checkpoint, error) {
	if len(raw) < len(ckptMagic)+8 || string(raw[:len(ckptMagic)]) != ckptMagic {
		return nil, fmt.Errorf("%w: bad magic", errBadCheckpoint)
	}
	raw = raw[len(ckptMagic):]
	bodyLen := binary.LittleEndian.Uint32(raw[0:4])
	sum := binary.LittleEndian.Uint32(raw[4:8])
	if bodyLen > maxCheckpointBody || int64(bodyLen) != int64(len(raw)-8) {
		return nil, fmt.Errorf("%w: body length %d does not match file", errBadCheckpoint, bodyLen)
	}
	body := raw[8:]
	if crc32.Checksum(body, castagnoli) != sum {
		return nil, fmt.Errorf("%w: checksum mismatch", errBadCheckpoint)
	}

	// Names and digests are copied out of the body and each dedup
	// generation is copied once, as its slab, so nothing decoded pins
	// the file's bytes.
	d := ckptDecoder{b: body}
	c := &checkpoint{
		seq: d.u64(),
		pos: walPos{},
	}
	c.pos.Seg = int(d.u32())
	c.pos.Off = int64(d.u64())
	c.records = int64(d.u64())
	nApps := d.count(4 + 8)
	c.apps = make(map[string]int64, nApps)
	for i := 0; i < nApps && d.err == nil; i++ {
		app := d.str()
		c.apps[app] = int64(d.u64())
	}
	for _, set := range []*keySet{&c.cur, &c.prev} {
		n := d.count(4)
		lo := d.off
		for i := 0; i < n && d.err == nil; i++ {
			d.bytes()
		}
		if d.err != nil {
			break
		}
		ks, ok := keySetFromSlab(slices.Clone(d.b[lo:d.off]), n)
		if !ok {
			return nil, fmt.Errorf("%w: duplicate dedup key", errBadCheckpoint)
		}
		*set = ks
	}
	nTLs := d.count(4 + 8 + 4)
	c.tls = make(map[string]*appTimeline, nTLs)
	for i := 0; i < nTLs && d.err == nil; i++ {
		app := d.str()
		tl := &appTimeline{evicted: int64(d.u64())}
		nEntries := d.count(16)
		tl.head = make([]tlEntry, 0, nEntries)
		for j := 0; j < nEntries && d.err == nil; j++ {
			at := int64(d.u64())
			tie := d.u64()
			tl.head = append(tl.head, tlEntry{at: at, tie: tie})
		}
		c.tls[app] = tl
	}
	nFPs := d.count(4 + 4)
	c.fps = make(map[string][]string, nFPs)
	for i := 0; i < nFPs && d.err == nil; i++ {
		app := d.str()
		nDigests := d.count(4)
		digests := make([]string, 0, nDigests)
		for j := 0; j < nDigests && d.err == nil; j++ {
			digests = append(digests, d.str())
		}
		c.fps[app] = digests
	}
	if d.err != nil {
		return nil, d.err
	}
	if rest := len(d.b) - d.off; rest != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", errBadCheckpoint, rest)
	}
	return c, nil
}

// ckptDecoder cursors through a checkpoint body; the first short read
// poisons it and every later read returns zero values.
type ckptDecoder struct {
	b   []byte
	off int
	err error
}

func (d *ckptDecoder) u32() uint32 {
	if d.err != nil || len(d.b)-d.off < 4 {
		d.fail()
		return 0
	}
	v := binary.LittleEndian.Uint32(d.b[d.off:])
	d.off += 4
	return v
}

func (d *ckptDecoder) u64() uint64 {
	lo := uint64(d.u32())
	return lo | uint64(d.u32())<<32
}

// count reads an item count and fails when even the smallest encoding
// of that many items, min bytes each, would overrun the body.
func (d *ckptDecoder) count(min int) int {
	n := d.u32()
	if d.err == nil && uint64(n)*uint64(min) > uint64(len(d.b)-d.off) {
		d.fail()
		return 0
	}
	return int(n)
}

// bytes reads one len u32 | bytes field, aliasing the body.
func (d *ckptDecoder) bytes() []byte {
	n := d.u32()
	if d.err != nil || uint64(n) > uint64(len(d.b)-d.off) {
		d.fail()
		return nil
	}
	b := d.b[d.off : d.off+int(n)]
	d.off += int(n)
	return b
}

func (d *ckptDecoder) str() string { return string(d.bytes()) }

func (d *ckptDecoder) fail() {
	if d.err == nil {
		d.err = fmt.Errorf("%w: truncated body", errBadCheckpoint)
	}
}

package market

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"sort"

	"bombdroid/internal/market/marketfs"
)

// The WAL is the daemon's durability contract: an ingestion request
// is acked only after every novel event in it is in a shard's log and
// flushed to the OS. Each shard owns a directory of append-only
// segment files:
//
//	shard-003/wal-00000000.log
//	shard-003/wal-00000001.log
//	...
//
// and each record is length-prefixed and checksummed:
//
//	| length uint32 LE | crc32c uint32 LE | payload (JSON Event) |
//
// The CRC is Castagnoli over the payload. Segments rotate once they
// pass SegmentBytes; only the highest-numbered segment is ever
// written, so a crash can tear at most the tail of the last segment.
// Replay treats a bad record there as the torn tail — it truncates
// the file back to the last good record and carries on — while a bad
// record in any earlier segment is real corruption and fails Open.
//
// All filesystem access goes through marketfs.FS, so the identical
// code paths run against the real OS and against the crash-injecting
// harness in the torture tests. With a checkpoint present, Open
// replays only the tail: segments before the checkpoint position are
// skipped entirely (and eventually compacted away by the checkpoint
// machinery in checkpoint.go).

const (
	walHeaderLen = 8
	// maxWALRecord bounds a single record; a length prefix beyond it
	// is garbage (torn tail or corruption), not a huge event.
	maxWALRecord = 1 << 20
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// errBadStart rejects a replay start position that the on-disk
// segments cannot satisfy — the checkpoint claiming it is stale or
// corrupt, and the caller should fall back to an older one (or a full
// replay). Guaranteed to be returned before any replay callback runs.
var errBadStart = errors.New("market: replay start position not on disk")

// walPos is a durable position in a shard's log: byte offset Off
// within segment Seg. It is the cursor a checkpoint stores.
type walPos struct {
	Seg int   `json:"seg"`
	Off int64 `json:"off"`
}

// wal is one shard's segmented append-only log. All methods are
// called from the owning shard's worker goroutine only.
type wal struct {
	fs       marketfs.FS
	dir      string
	segBytes int64
	fsync    bool

	seg  int // index of the open segment
	live int // segment files on disk
	size int64
	f    marketfs.File
	w    *bufio.Writer
}

// ReplayStats summarizes what Open recovered from disk.
type ReplayStats struct {
	Segments       int   `json:"segments"`
	Records        int64 `json:"records"`
	TailRecords    int64 `json:"tail_records"`
	TornTails      int   `json:"torn_tails"`
	TruncatedBytes int64 `json:"truncated_bytes"`
	// Checkpoints counts shards whose state was restored from a
	// checkpoint snapshot instead of a full WAL replay; Records then
	// includes the checkpoint's covered records and TailRecords only
	// what was replayed past it.
	Checkpoints int `json:"checkpoints"`
	// CompactedSegments counts WAL segments deleted at open because
	// they lay wholly behind the restored checkpoint.
	CompactedSegments int `json:"compacted_segments"`
}

func (a *ReplayStats) add(b ReplayStats) {
	a.Segments += b.Segments
	a.Records += b.Records
	a.TailRecords += b.TailRecords
	a.TornTails += b.TornTails
	a.TruncatedBytes += b.TruncatedBytes
	a.Checkpoints += b.Checkpoints
	a.CompactedSegments += b.CompactedSegments
}

func segName(i int) string { return fmt.Sprintf("wal-%08d.log", i) }

func segJoin(dir string, i int) string { return dir + "/" + segName(i) }

// listSegments returns the sorted segment indices present in dir.
func listSegments(fsys marketfs.FS, dir string) ([]int, error) {
	names, err := fsys.Glob(dir, "wal-*.log")
	if err != nil {
		return nil, err
	}
	segs := make([]int, 0, len(names))
	for _, name := range names {
		var idx int
		if _, err := fmt.Sscanf(baseName(name), "wal-%08d.log", &idx); err != nil {
			return nil, fmt.Errorf("market: unrecognized segment %s", name)
		}
		segs = append(segs, idx)
	}
	sort.Ints(segs)
	return segs, nil
}

func baseName(name string) string {
	for i := len(name) - 1; i >= 0; i-- {
		if name[i] == '/' {
			return name[i+1:]
		}
	}
	return name
}

// openWAL replays dir's segments from start onward (creating the
// directory and first segment if absent), feeding each record's raw
// payload to replay in record order, then opens the last segment for
// appending. A replay error is a format bug (the CRC already passed)
// and fails the open. Segments before start.Seg are skipped — the
// caller's checkpoint already covers them. A start position that no
// on-disk segment can satisfy returns errBadStart before replay
// touches anything, so the caller can fall back to an older
// checkpoint or a full replay.
func openWAL(fsys marketfs.FS, dir string, segBytes int64, fsync bool, start walPos, replay func([]byte) error) (*wal, ReplayStats, error) {
	if err := fsys.MkdirAll(dir); err != nil {
		return nil, ReplayStats{}, err
	}
	segs, err := listSegments(fsys, dir)
	if err != nil {
		return nil, ReplayStats{}, err
	}

	if start.Seg > 0 || start.Off > 0 {
		// A checkpoint's position must land inside an existing segment
		// that is at least Off bytes long: the checkpoint protocol
		// syncs the WAL through the position before committing, so a
		// shorter (or missing) segment means the checkpoint is not
		// trustworthy here.
		ok := false
		for _, idx := range segs {
			if idx == start.Seg {
				ok = true
			}
		}
		if !ok {
			return nil, ReplayStats{}, fmt.Errorf("%w: segment %d missing", errBadStart, start.Seg)
		}
		f, err := fsys.Open(segJoin(dir, start.Seg))
		if err != nil {
			return nil, ReplayStats{}, err
		}
		size, err := f.Size()
		f.Close()
		if err != nil {
			return nil, ReplayStats{}, err
		}
		if size < start.Off {
			return nil, ReplayStats{}, fmt.Errorf("%w: segment %d is %d bytes, checkpoint points at %d",
				errBadStart, start.Seg, size, start.Off)
		}
	}

	var stats ReplayStats
	last := 0
	for _, idx := range segs {
		last = idx
	}
	for i, idx := range segs {
		if idx < start.Seg {
			continue // wholly behind the checkpoint
		}
		off := int64(0)
		if idx == start.Seg {
			off = start.Off
		}
		isLast := i == len(segs)-1
		segStats, err := replaySegment(fsys, segJoin(dir, idx), isLast, off, replay)
		if err != nil {
			return nil, ReplayStats{}, err
		}
		stats.add(segStats)
		stats.Segments++
	}
	if len(segs) == 0 {
		stats.Segments = 1 // the fresh segment created below
	}

	w := &wal{fs: fsys, dir: dir, segBytes: segBytes, fsync: fsync, seg: last, live: max(len(segs), 1)}
	if err := w.openSegment(); err != nil {
		return nil, ReplayStats{}, err
	}
	return w, stats, nil
}

// replaySegment streams one segment's records into replay, starting
// at byte offset startOff. A bad record (short header, absurd length,
// a length past the end of the file, CRC mismatch) in the last segment
// is the torn tail: the file is truncated back to the last good
// record. Anywhere else it is corruption and an error.
func replaySegment(fsys marketfs.FS, name string, isLast bool, startOff int64, replay func([]byte) error) (ReplayStats, error) {
	f, err := fsys.Open(name)
	if err != nil {
		return ReplayStats{}, err
	}
	defer f.Close()
	fileSize, err := f.Size()
	if err != nil {
		return ReplayStats{}, err
	}
	if startOff > 0 {
		if _, err := f.Seek(startOff, io.SeekStart); err != nil {
			return ReplayStats{}, err
		}
	}

	var stats ReplayStats
	// A read buffer past the bytes left would never fill; bufio
	// rounds a size under 16 up.
	r := bufio.NewReaderSize(f, int(min(max(fileSize-startOff, 0), 1<<20)))
	off := startOff // offset of the record being read
	var hdr [walHeaderLen]byte
	buf := make([]byte, 4096)
	for {
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			if err == io.EOF {
				return stats, nil // clean end
			}
			if errors.Is(err, io.ErrUnexpectedEOF) {
				return tornTail(f, name, isLast, off, fileSize, stats)
			}
			// A real read error (bad disk, not a short file) must not
			// truncate: the bytes past off may be good, acked records.
			return stats, fmt.Errorf("market: reading %s at offset %d: %w", name, off, err)
		}
		length := binary.LittleEndian.Uint32(hdr[0:4])
		sum := binary.LittleEndian.Uint32(hdr[4:8])
		// A length past the bytes left is a torn record: refuse it
		// before sizing a buffer from it.
		if length == 0 || length > maxWALRecord || int64(length) > fileSize-off-walHeaderLen {
			return tornTail(f, name, isLast, off, fileSize, stats)
		}
		if int(length) > cap(buf) {
			buf = make([]byte, length)
		}
		payload := buf[:length]
		if _, err := io.ReadFull(r, payload); err != nil {
			if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
				return tornTail(f, name, isLast, off, fileSize, stats)
			}
			return stats, fmt.Errorf("market: reading %s at offset %d: %w", name, off, err)
		}
		if crc32.Checksum(payload, castagnoli) != sum {
			return tornTail(f, name, isLast, off, fileSize, stats)
		}
		if err := replay(payload); err != nil {
			// The CRC matched, so these bytes were written exactly as
			// committed: an undecodable record is a format bug, not a
			// torn tail, at any position.
			return stats, fmt.Errorf("market: %s: record at %d: %w", name, off, err)
		}
		stats.Records++
		stats.TailRecords++
		off += walHeaderLen + int64(length)
	}
}

// tornTail resolves a bad record at offset off: truncate if this is
// the writable tail of the log, error otherwise.
func tornTail(f marketfs.File, name string, isLast bool, off, fileSize int64, stats ReplayStats) (ReplayStats, error) {
	if !isLast {
		return stats, fmt.Errorf("market: %s: corrupt record at offset %d in a sealed segment", name, off)
	}
	if err := f.Truncate(off); err != nil {
		return stats, fmt.Errorf("market: truncating torn tail of %s: %w", name, err)
	}
	stats.TornTails++
	stats.TruncatedBytes += fileSize - off
	return stats, nil
}

func (w *wal) openSegment() error {
	f, err := w.fs.OpenAppend(segJoin(w.dir, w.seg))
	if err != nil {
		return err
	}
	size, err := f.Size()
	if err != nil {
		f.Close()
		return err
	}
	if w.fsync {
		// A freshly created segment file must itself survive a crash
		// before any record in it can: sync the directory entry.
		if err := w.fs.SyncDir(w.dir); err != nil {
			f.Close()
			return err
		}
	}
	w.f, w.w, w.size = f, bufio.NewWriterSize(f, 1<<20), size
	return nil
}

// Append writes the payloads as one committed batch: every record is
// buffered, then the buffer is flushed (and fsynced when configured)
// so the bytes are in the OS before the caller acks. Rotation happens
// after the commit, so a batch never straddles segments.
//
// Payloads outside [1,maxWALRecord] bytes are rejected before any
// byte is written: replay treats such a length prefix as a torn tail
// or corruption, so appending one would poison the log — the record
// (and everything after it) would be lost or refuse to replay.
func (w *wal) Append(payloads [][]byte) error {
	for _, p := range payloads {
		if len(p) == 0 || len(p) > maxWALRecord {
			return fmt.Errorf("market: wal record of %d bytes outside [1,%d]", len(p), maxWALRecord)
		}
	}
	var hdr [walHeaderLen]byte
	for _, p := range payloads {
		binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(p)))
		binary.LittleEndian.PutUint32(hdr[4:8], crc32.Checksum(p, castagnoli))
		if _, err := w.w.Write(hdr[:]); err != nil {
			return err
		}
		if _, err := w.w.Write(p); err != nil {
			return err
		}
		w.size += walHeaderLen + int64(len(p))
	}
	if err := w.w.Flush(); err != nil {
		return err
	}
	if w.fsync {
		if err := w.f.Sync(); err != nil {
			return err
		}
	}
	if w.size >= w.segBytes {
		return w.rotate()
	}
	return nil
}

func (w *wal) rotate() error {
	if err := w.f.Sync(); err != nil {
		return err
	}
	if err := w.f.Close(); err != nil {
		return err
	}
	w.seg++
	if err := w.openSegment(); err != nil {
		return err
	}
	w.live++
	return nil
}

// Position reports the durable cursor after the last committed batch:
// everything before it is flushed (and, after Sync, fsynced). Only
// valid between Appends, from the owning worker.
func (w *wal) Position() walPos { return walPos{Seg: w.seg, Off: w.size} }

// Sync flushes and fsyncs the open segment — the checkpoint protocol
// calls it before committing a snapshot, so a checkpoint can never
// point past durable bytes even when routine commits skip fsync.
func (w *wal) Sync() error {
	if err := w.w.Flush(); err != nil {
		return err
	}
	return w.f.Sync()
}

// RemoveBehind deletes segments wholly behind seg (index < seg) —
// compaction once a durable checkpoint covers them. The segment
// containing the checkpoint position is never touched. Returns how
// many segments were reclaimed.
func (w *wal) RemoveBehind(seg int) (int, error) {
	segs, err := listSegments(w.fs, w.dir)
	if err != nil {
		return 0, err
	}
	removed := 0
	for _, idx := range segs {
		if idx >= seg {
			break
		}
		if err := w.fs.Remove(segJoin(w.dir, idx)); err != nil {
			return removed, err
		}
		removed++
		w.live--
	}
	if removed > 0 {
		if err := w.fs.SyncDir(w.dir); err != nil {
			return removed, err
		}
	}
	return removed, nil
}

func (w *wal) Close() error {
	if err := w.w.Flush(); err != nil {
		w.f.Close()
		return err
	}
	if err := w.f.Sync(); err != nil {
		w.f.Close()
		return err
	}
	return w.f.Close()
}

package market

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"runtime"
	"testing"

	"bombdroid/internal/market/marketfs"
)

// walFrame frames payload as one WAL record.
func walFrame(payload []byte) []byte {
	rec := make([]byte, walHeaderLen, walHeaderLen+len(payload))
	binary.LittleEndian.PutUint32(rec[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(rec[4:8], crc32.Checksum(payload, castagnoli))
	return append(rec, payload...)
}

// referenceFraming parses seg by the WAL's framing rules alone: the
// payloads of the good records up to the first bad one, and the offset
// where that bad record starts (len(seg) when every record is good).
func referenceFraming(seg []byte) (payloads [][]byte, good int) {
	for good < len(seg) {
		rest := seg[good:]
		if len(rest) < walHeaderLen {
			return payloads, good
		}
		n := uint64(binary.LittleEndian.Uint32(rest[0:4]))
		sum := binary.LittleEndian.Uint32(rest[4:8])
		if n == 0 || n > maxWALRecord || n > uint64(len(rest)-walHeaderLen) {
			return payloads, good
		}
		payload := rest[walHeaderLen : walHeaderLen+n]
		if crc32.Checksum(payload, castagnoli) != sum {
			return payloads, good
		}
		payloads = append(payloads, payload)
		good += walHeaderLen + int(n)
	}
	return payloads, good
}

// replayBytes writes seg as a segment of an in-memory disk and replays
// it, returning the payloads replayed, the stats, the error, and the
// segment's bytes afterwards.
func replayBytes(t *testing.T, seg []byte, isLast bool) ([][]byte, ReplayStats, error, []byte) {
	t.Helper()
	fa := marketfs.NewFault(nil, 1)
	const name = "shard-000/wal-00000000.log"
	if err := fa.MkdirAll("shard-000"); err != nil {
		t.Fatal(err)
	}
	if err := fa.WriteFile(name, seg); err != nil {
		t.Fatal(err)
	}
	var got [][]byte
	stats, err := replaySegment(fa, name, isLast, 0, func(p []byte) error {
		got = append(got, append([]byte(nil), p...))
		return nil
	})
	after, rerr := fa.ReadFile(name)
	if rerr != nil {
		t.Fatal(rerr)
	}
	return got, stats, err, after
}

// FuzzReplaySegment: any bytes, replayed as the last segment and as a
// sealed one, replay exactly the records a reference framing parse
// accepts up to the first bad record. The last segment is then
// truncated there with one torn tail; a sealed segment errors instead.
// Nothing panics, and no record's declared length sizes an allocation
// past the bytes the segment holds.
func FuzzReplaySegment(f *testing.F) {
	a, b := walFrame([]byte(`{"app":"a"}`)), walFrame([]byte(`{"app":"b","bomb":"x"}`))
	two := append(append([]byte(nil), a...), b...)
	f.Add([]byte{})
	f.Add(two)
	f.Add(append(append([]byte(nil), two...), b[:5]...))                      // torn header
	f.Add(append(append([]byte(nil), a...), b[:len(b)-3]...))                 // torn payload
	f.Add(append(append([]byte(nil), a...), 0xff, 0xff, 0x0f, 0, 0, 0, 0, 0)) // 1 MiB length, no payload
	f.Add(append(append([]byte(nil), a...), make([]byte, 8)...))              // zero length
	bad := append([]byte(nil), two...)
	bad[len(a)+walHeaderLen] ^= 1 // CRC mismatch in the second record
	f.Add(bad)
	f.Fuzz(func(t *testing.T, seg []byte) {
		want, good := referenceFraming(seg)
		torn := good < len(seg)

		got, stats, err, after := replayBytes(t, seg, true)
		if err != nil {
			t.Fatalf("last segment: %v", err)
		}
		if len(got) != len(want) || int(stats.Records) != len(want) {
			t.Fatalf("last segment: replayed %d records (stats %d), reference framing accepts %d", len(got), stats.Records, len(want))
		}
		for i := range want {
			if !bytes.Equal(got[i], want[i]) {
				t.Fatalf("record %d: replayed %q, reference %q", i, got[i], want[i])
			}
		}
		wantTorn := 0
		if torn {
			wantTorn = 1
		}
		if stats.TornTails != wantTorn || stats.TruncatedBytes != int64(len(seg)-good) || !bytes.Equal(after, seg[:good]) {
			t.Fatalf("last segment: torn tails %d, truncated %d to %d bytes; want %d, %d, %d",
				stats.TornTails, stats.TruncatedBytes, len(after), wantTorn, len(seg)-good, good)
		}

		got, _, err, after = replayBytes(t, seg, false)
		if torn != (err != nil) {
			t.Fatalf("sealed segment, first bad record at %d of %d bytes: err %v", good, len(seg), err)
		}
		if len(got) != len(want) || !bytes.Equal(after, seg) {
			t.Fatalf("sealed segment: replayed %d records, reference %d; %d bytes left of %d", len(got), len(want), len(after), len(seg))
		}

		fa := marketfs.NewFault(nil, 1)
		if err := fa.WriteFile("wal-00000000.log", seg); err != nil {
			t.Fatal(err)
		}
		var before, done runtime.MemStats
		runtime.ReadMemStats(&before)
		_, _ = replaySegment(fa, "wal-00000000.log", false, 0, func([]byte) error { return nil })
		runtime.ReadMemStats(&done)
		if n := done.TotalAlloc - before.TotalAlloc; n > 2*uint64(len(seg))+64<<10 {
			t.Fatalf("replaying a %d-byte segment allocated %d bytes", len(seg), n)
		}
	})
}

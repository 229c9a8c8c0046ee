package market

import (
	"errors"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"bombdroid/internal/obs"
	"bombdroid/internal/report"
)

func TestParseShardRange(t *testing.T) {
	r, err := ParseShardRange("0:86")
	if err != nil || r.Lo != 0 || r.Hi != 86 {
		t.Fatalf("ParseShardRange(0:86) = %v, %v", r, err)
	}
	if got := r.String(); got != "0:86" {
		t.Fatalf("String() = %q, want 0:86", got)
	}
	for _, bad := range []string{"", "7", "a:b", "4:", ":4", "-1:4", "4:4", "8:4"} {
		if _, err := ParseShardRange(bad); err == nil {
			t.Errorf("ParseShardRange(%q) accepted, want error", bad)
		}
	}
}

// FuzzParseShardRange: no input panics the parser, and whatever it
// accepts is a non-empty range of non-negative slots that its own
// String form parses back to.
func FuzzParseShardRange(f *testing.F) {
	for _, s := range []string{"0:86", " 3 : 9 ", "+1:2", "-1:4", "4:4", "8:4", "a:b", ":", "",
		"0:9223372036854775807", "0:9223372036854775808", "1:2:3"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		r, err := ParseShardRange(s)
		if err != nil {
			return
		}
		if r.Lo < 0 || r.Lo >= r.Hi {
			t.Fatalf("ParseShardRange(%q) = %+v, want 0 <= lo < hi", s, r)
		}
		back, err := ParseShardRange(r.String())
		if err != nil || back != r {
			t.Fatalf("ParseShardRange(%q) = %+v; its String %q parses to %+v, %v", s, r, r.String(), back, err)
		}
	})
}

func TestShardRangeContains(t *testing.T) {
	r := ShardRange{Lo: 4, Hi: 8}
	for slot, want := range map[int]bool{3: false, 4: true, 7: true, 8: false} {
		if got := r.Contains(slot); got != want {
			t.Errorf("Contains(%d) = %v, want %v", slot, got, want)
		}
	}
	if r.Len() != 4 {
		t.Errorf("Len() = %d, want 4", r.Len())
	}
}

func TestSlotStableAndBounded(t *testing.T) {
	// The slot function is the cross-process ownership contract (and
	// the key→shard mapping is on-disk format): pin both to hash/fnv's
	// FNV-1a so an accidental hash change cannot slip by as "all tests
	// still pass on both sides".
	st := &Store{shards: make([]*shard, 7)}
	for i := 0; i < 1000; i++ {
		key := fmt.Sprintf("app-%d\x1fbomb\x1fuser", i)
		s := Slot(key, 256)
		if s < 0 || s >= 256 {
			t.Fatalf("Slot(%q) = %d out of range", key, s)
		}
		h := fnv.New32a()
		h.Write([]byte(key))
		if want := int(h.Sum32() % 256); s != want {
			t.Fatalf("Slot(%q) = %d, hash/fnv says %d", key, s, want)
		}
		if got, want := st.shardFor(key), int(h.Sum32()%7); got != want {
			t.Fatalf("shardFor(%q) = %d, hash/fnv says %d", key, got, want)
		}
		if again := Slot(key, 256); again != s {
			t.Fatalf("Slot not deterministic: %d then %d", s, again)
		}
	}
	if got := Slot("a\x1fb\x1fc", 256); got != Slot("a\x1fb\x1fc", 256) {
		t.Fatal("unstable")
	}
}

// slotEvent fabricates an event whose key lands inside (in=true) or
// outside the range.
func slotEvent(t *testing.T, slots int, r ShardRange, in bool) report.Event {
	t.Helper()
	for i := 0; i < 100_000; i++ {
		e := ev("app-slot", fmt.Sprintf("b-%d", i), "u-1")
		if r.Contains(Slot(e.Key(), slots)) == in {
			return e
		}
	}
	t.Fatalf("no key found with in=%v for range %s of %d", in, r, slots)
	return report.Event{}
}

func TestIngestRejectsOutOfRange(t *testing.T) {
	reg := obs.NewRegistry()
	cfg := Config{Dir: t.TempDir(), Shards: 2, NodeID: "n0", Slots: 8, Range: ShardRange{Lo: 0, Hi: 4}, Obs: reg}
	st, _ := mustOpen(t, cfg)
	defer st.Close()

	good := slotEvent(t, 8, ShardRange{Lo: 0, Hi: 4}, true)
	bad := slotEvent(t, 8, ShardRange{Lo: 0, Hi: 4}, false)

	if _, _, err := st.Ingest([]report.Event{good}); err != nil {
		t.Fatalf("in-range ingest: %v", err)
	}
	// A misrouted batch is refused whole — admitting the in-range half
	// would mask the routing bug and double-count on retry.
	_, _, err := st.Ingest([]report.Event{good, bad})
	if !errors.Is(err, ErrNotOwner) {
		t.Fatalf("mixed batch err = %v, want ErrNotOwner", err)
	}
	if got := st.Verdict("app-slot").Channels.Reports.Detections; got != 1 {
		t.Fatalf("detections = %d, want 1 (mixed batch must not be partially admitted)", got)
	}
	if n := reg.Counter("market_misrouted_rejects_total").Value(); n != 1 {
		t.Fatalf("misroute counter = %d, want 1", n)
	}
}

func TestFullRangeNodeAcceptsEverything(t *testing.T) {
	st, _ := mustOpen(t, Config{Dir: t.TempDir(), Shards: 2})
	defer st.Close()
	writeEvents(t, st, "app-any", 500)
	d := st.NodeDesc()
	if d.Slots != DefaultSlots || d.RangeLo != 0 || d.RangeHi != DefaultSlots {
		t.Fatalf("default NodeDesc = %+v, want full range of %d", d, DefaultSlots)
	}
}

// TestMetaPinsShardRange: the satellite fix — a node restarted with a
// shard range that disagrees with its meta.json must refuse to start,
// exactly like a shard-count change.
func TestMetaPinsShardRange(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Dir: dir, Shards: 2, NodeID: "n0", Slots: 8, Range: ShardRange{Lo: 0, Hi: 4}}
	st, _ := mustOpen(t, cfg)
	st.Close()

	widened := cfg
	widened.Range = ShardRange{Lo: 0, Hi: 8}
	if _, _, err := Open(widened); err == nil || !strings.Contains(err.Error(), "shard range") {
		t.Fatalf("range change accepted (err = %v), want refusal", err)
	}
	resliced := cfg
	resliced.Slots = 16
	resliced.Range = ShardRange{Lo: 0, Hi: 8}
	if _, _, err := Open(resliced); err == nil || !strings.Contains(err.Error(), "slots") {
		t.Fatalf("slots change accepted (err = %v), want refusal", err)
	}

	st2, _ := mustOpen(t, cfg) // identical flags still open fine
	st2.Close()
}

func TestMetaPinsNodeID(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Dir: dir, Shards: 2, NodeID: "n0"}
	st, _ := mustOpen(t, cfg)
	st.Close()

	stolen := cfg
	stolen.NodeID = "n1"
	if _, _, err := Open(stolen); err == nil || !strings.Contains(err.Error(), "belongs to node") {
		t.Fatalf("node-id change accepted (err = %v), want refusal", err)
	}
}

// TestMetaLegacyRefused: a pre-cluster meta.json pins only the shard
// count. Open refuses it, naming the file, and leaves it untouched
// instead of upgrading it in place.
func TestMetaLegacyRefused(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "meta.json")
	legacy := []byte("{\"shards\":2}\n")
	if err := os.WriteFile(path, legacy, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, cfg := range []Config{
		{Dir: dir, Shards: 2, NodeID: "n0"},
		{Dir: dir, Shards: 2, Slots: 8, Range: ShardRange{Lo: 0, Hi: 4}},
	} {
		_, _, err := Open(cfg)
		if err == nil || !strings.Contains(err.Error(), path) {
			t.Fatalf("legacy meta.json opened as %+v: err = %v, want a refusal naming %s", cfg, err, path)
		}
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(b) != string(legacy) {
		t.Errorf("refused meta.json was rewritten: %s", b)
	}
}

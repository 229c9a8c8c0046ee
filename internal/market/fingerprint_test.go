package market

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"bombdroid/internal/market/marketfs"
	"bombdroid/internal/market/similarity"
	"bombdroid/internal/obs"
	"bombdroid/internal/report"
)

// fpDigests synthesizes n distinct digests under a name prefix.
func fpDigests(prefix string, n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("%s-digest-%03d", prefix, i)
	}
	return out
}

func mustPut(t *testing.T, st *Store, app string, digests []string) FingerprintAck {
	t.Helper()
	ack, err := st.PutFingerprint(Fingerprint{App: app, Digests: digests})
	if err != nil {
		t.Fatalf("PutFingerprint(%s): %v", app, err)
	}
	return ack
}

func TestFingerprintPutGetSimilar(t *testing.T) {
	st, _ := mustOpen(t, Config{Dir: t.TempDir(), Shards: 2})
	defer st.Close()

	// Uploads canonicalize: duplicates and empties dropped, order fixed.
	ack := mustPut(t, st, "app.a", []string{"d2", "d1", "d2", ""})
	if ack.App != "app.a" || ack.Entries != 2 || !ack.Updated {
		t.Fatalf("first upload ack = %+v, want 2 entries, updated", ack)
	}
	fp, err := st.Fingerprint("app.a")
	if err != nil {
		t.Fatalf("Fingerprint: %v", err)
	}
	if !digestsEqual(fp.Digests, []string{"d1", "d2"}) {
		t.Errorf("stored digests = %v, want canonical [d1 d2]", fp.Digests)
	}

	// An identical re-upload is a dedup hit: acked, nothing written.
	if ack := mustPut(t, st, "app.a", []string{"d1", "d2"}); ack.Updated {
		t.Errorf("identical re-upload ack = %+v, want Updated false", ack)
	}

	// Last write wins.
	if ack := mustPut(t, st, "app.a", []string{"d9"}); !ack.Updated || ack.Entries != 1 {
		t.Fatalf("replacement ack = %+v, want 1 entry, updated", ack)
	}
	if fp, _ := st.Fingerprint("app.a"); !digestsEqual(fp.Digests, []string{"d9"}) {
		t.Errorf("after replacement digests = %v, want [d9]", fp.Digests)
	}

	// Reads for an unknown app are ErrNoFingerprint.
	if _, err := st.Fingerprint("app.none"); !errors.Is(err, ErrNoFingerprint) {
		t.Errorf("Fingerprint(unknown) err = %v, want ErrNoFingerprint", err)
	}
	if _, err := st.Similar("app.none"); !errors.Is(err, ErrNoFingerprint) {
		t.Errorf("Similar(unknown) err = %v, want ErrNoFingerprint", err)
	}
}

func TestFingerprintLimits(t *testing.T) {
	st, _ := mustOpen(t, Config{Dir: t.TempDir(), Shards: 1, MaxFingerprintEntries: 4})
	defer st.Close()

	if _, err := st.PutFingerprint(Fingerprint{Digests: []string{"d"}}); err == nil {
		t.Error("fingerprint without an app accepted")
	}
	if _, err := st.PutFingerprint(Fingerprint{App: "app.big", Digests: fpDigests("x", 5)}); !errors.Is(err, ErrFingerprintTooLarge) {
		t.Errorf("oversized upload err = %v, want ErrFingerprintTooLarge", err)
	}
	// The gate applies post-canonicalization: 8 raw entries that dedup
	// to 4 pass.
	raw := append(fpDigests("y", 4), fpDigests("y", 4)...)
	if _, err := st.PutFingerprint(Fingerprint{App: "app.dup", Digests: raw}); err != nil {
		t.Errorf("deduped-under-limit upload refused: %v", err)
	}
}

// TestSimilarIdenticalAndSelf: an identical digest set scores exactly
// 1.0, and the query app never appears among its own neighbors.
func TestSimilarIdenticalAndSelf(t *testing.T) {
	st, _ := mustOpen(t, Config{Dir: t.TempDir(), Shards: 2})
	defer st.Close()

	set := fpDigests("twin", 8)
	mustPut(t, st, "app.orig", set)
	mustPut(t, st, "app.copy", set)
	mustPut(t, st, "app.far", fpDigests("other", 8))

	sim, err := st.Similar("app.orig")
	if err != nil {
		t.Fatalf("Similar: %v", err)
	}
	if !sim.Known || sim.Tau != st.cfg.SimilarityTau {
		t.Errorf("Similar header = %+v", sim)
	}
	if len(sim.Neighbors) != 1 {
		t.Fatalf("neighbors = %+v, want exactly the twin (no self, no disjoint app)", sim.Neighbors)
	}
	n := sim.Neighbors[0]
	if n.App != "app.copy" || n.Score != 1.0 || n.Shared != 8 {
		t.Errorf("twin neighbor = %+v, want app.copy at exactly 1.0 sharing 8", n)
	}
}

// TestSimilarCommonEntryBelowTau: one digest shared by the whole
// corpus (a framework resource every app bundles) is IDF-downweighted
// so near-universal overlap alone stays under τ and never fuses.
func TestSimilarCommonEntryBelowTau(t *testing.T) {
	st, _ := mustOpen(t, Config{Dir: t.TempDir(), Shards: 2, Threshold: 1})
	defer st.Close()

	const common = "framework-classes-digest"
	for i := 0; i < 30; i++ {
		app := fmt.Sprintf("app-%02d", i)
		mustPut(t, st, app, append(fpDigests(app, 6), common))
	}
	// Flag app-00 through the reports channel, then check that sharing
	// only the common digest with it does not propagate the flag.
	if _, _, err := st.Ingest([]report.Event{ev("app-00", "b", "u")}); err != nil {
		t.Fatal(err)
	}

	sim, err := st.Similar("app-01")
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range sim.Neighbors {
		if n.Score >= st.cfg.SimilarityTau {
			t.Errorf("common-entry neighbor %s scores %.3f, want < τ=%.2f", n.App, n.Score, st.cfg.SimilarityTau)
		}
	}
	v := st.Verdict("app-01")
	if v.Flagged || v.Channels.Similarity.Flagged {
		t.Errorf("verdict = %+v, want unflagged despite common digest with a flagged app", v)
	}
}

// TestVerdictFusion: the fused verdict flags an app that is a ≥ τ
// near-duplicate of a reports-flagged app, names the neighbor, and
// leaves unrelated apps alone.
func TestVerdictFusion(t *testing.T) {
	st, _ := mustOpen(t, Config{Dir: t.TempDir(), Shards: 2, Threshold: 2})
	defer st.Close()

	set := fpDigests("victim", 10)
	mustPut(t, st, "app.victim", set)
	// The repackaged clone carries the same resources plus one addition.
	mustPut(t, st, "app.clone", append([]string{"injected-ad-lib"}, set...))
	mustPut(t, st, "app.other", fpDigests("unrelated", 10))

	// Nothing is flagged before reports arrive.
	if v := st.Verdict("app.clone"); v.Flagged {
		t.Fatalf("pre-report verdict = %+v, want unflagged", v)
	}

	// Two detonation reports flag the victim through the reports channel.
	if _, _, err := st.Ingest([]report.Event{
		ev("app.victim", "b1", "u1"), ev("app.victim", "b1", "u2"),
	}); err != nil {
		t.Fatal(err)
	}

	v := st.Verdict("app.victim")
	if !v.Flagged || !v.Channels.Reports.Flagged || v.Channels.Similarity.Flagged {
		t.Errorf("victim verdict = %+v, want reports-flagged only", v)
	}

	clone := st.Verdict("app.clone")
	if !clone.Flagged || clone.Channels.Reports.Flagged || !clone.Channels.Similarity.Flagged {
		t.Errorf("clone verdict = %+v, want similarity-flagged only", clone)
	}
	cs := clone.Channels.Similarity
	if cs.Neighbor != "app.victim" || cs.Score < st.cfg.SimilarityTau {
		t.Errorf("clone similarity channel = %+v, want app.victim at ≥ τ", cs)
	}

	if v := st.Verdict("app.other"); v.Flagged {
		t.Errorf("unrelated app flagged: %+v", v)
	}
	// An app with no fingerprint gets a zero similarity channel that
	// still reports the configured τ.
	bare := st.Verdict("app.nofp")
	if bare.Channels.Similarity != (SimilarityChannel{Tau: st.cfg.SimilarityTau}) {
		t.Errorf("no-fingerprint similarity channel = %+v", bare.Channels.Similarity)
	}
}

// TestVerdictJSONShape pins the fused verdict's wire shape — the one
// canonical schema every surface (store, cluster, loadgen) speaks.
// Changing it is an API break; update every consumer or don't.
func TestVerdictJSONShape(t *testing.T) {
	v := Verdict{
		App:     "app.pin",
		Flagged: true,
		Channels: VerdictChannels{
			Reports:    ReportsChannel{Detections: 4, Threshold: 3, Flagged: true},
			Similarity: SimilarityChannel{Neighbor: "app.kin", Score: 0.875, Tau: 0.6, Flagged: true},
		},
	}
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	want := `{"app":"app.pin","flagged":true,"channels":{` +
		`"reports":{"detections":4,"threshold":3,"flagged":true},` +
		`"similarity":{"neighbor":"app.kin","score":0.875,"tau":0.6,"flagged":true}}}`
	if string(b) != want {
		t.Errorf("verdict wire shape drifted:\n got %s\nwant %s", b, want)
	}

	// The zero similarity channel omits the neighbor, nothing else.
	b, _ = json.Marshal(SimilarityChannel{Tau: 0.6})
	if string(b) != `{"score":0,"tau":0.6,"flagged":false}` {
		t.Errorf("zero similarity channel = %s", b)
	}
}

// fpCorpus loads a mixed corpus — fingerprints with controlled
// overlap plus enough reports to flag one app — and returns the app
// names.
func fpCorpus(t *testing.T, st *Store) []string {
	t.Helper()
	base := fpDigests("base", 12)
	apps := make([]string, 0, 8)
	for i := 0; i < 8; i++ {
		app := fmt.Sprintf("app-%d", i)
		apps = append(apps, app)
		// app-0/app-1 near-identical; the rest diverge progressively.
		set := append([]string(nil), base[i:]...)
		set = append(set, fpDigests(app, i)...)
		mustPut(t, st, app, set)
	}
	var evs []report.Event
	for i := 0; i < 3; i++ {
		evs = append(evs, ev("app-0", fmt.Sprintf("b%d", i), "u1"))
	}
	if _, _, err := st.Ingest(evs); err != nil {
		t.Fatal(err)
	}
	return apps
}

// snapshotJSON renders every app's fused verdict and similar answer as
// one JSON blob for byte-for-byte comparison across restarts.
func snapshotJSON(t *testing.T, st *Store, apps []string) string {
	t.Helper()
	var out []byte
	for _, app := range apps {
		b, err := json.Marshal(st.Verdict(app))
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, b...)
		sim, err := st.Similar(app)
		if err != nil {
			t.Fatal(err)
		}
		if b, err = json.Marshal(sim); err != nil {
			t.Fatal(err)
		}
		out = append(out, b...)
	}
	return string(out)
}

// TestFingerprintRestartReplayIdentical: fingerprints, the inverted
// index, and every fused verdict survive a clean restart byte-for-byte
// — both through the checkpoint fast path and a full WAL replay.
func TestFingerprintRestartReplayIdentical(t *testing.T) {
	for _, tc := range []struct {
		name string
		ckpt int
	}{
		{"checkpoint", 4}, // tiny interval: restart restores snapshots
		{"full-replay", -1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := Config{Dir: t.TempDir(), Shards: 2, Threshold: 3, CheckpointEvery: tc.ckpt}
			st, _ := mustOpen(t, cfg)
			apps := fpCorpus(t, st)
			want := snapshotJSON(t, st, apps)
			if err := st.Close(); err != nil {
				t.Fatal(err)
			}

			st2, _ := mustOpen(t, cfg)
			defer st2.Close()
			if got := snapshotJSON(t, st2, apps); got != want {
				t.Errorf("fingerprint state changed across restart:\n got %s\nwant %s", got, want)
			}
			// The dedup survives too: re-uploading the stored set writes
			// nothing.
			fp, err := st2.Fingerprint("app-3")
			if err != nil {
				t.Fatal(err)
			}
			if ack := mustPut(t, st2, "app-3", fp.Digests); ack.Updated {
				t.Errorf("re-upload after restart ack = %+v, want dedup hit", ack)
			}
		})
	}
}

// TestFingerprintCrashRecovery: a crash mid-upload loses nothing that
// was acked; after recovery and a full resend the state matches a
// store that never crashed.
func TestFingerprintCrashRecovery(t *testing.T) {
	// Reference: same corpus, no crash.
	ref, _ := mustOpen(t, Config{Dir: t.TempDir(), Shards: 2, Threshold: 3})
	defer ref.Close()
	apps := fpCorpus(t, ref)
	want := snapshotJSON(t, ref, apps)

	fa := marketfs.NewFault(nil, 1)
	cfg := Config{Dir: t.TempDir(), Shards: 2, Threshold: 3, FS: fa, Obs: obs.NewRegistry()}
	st, _ := mustOpen(t, cfg)

	// Load part of the corpus, then let the disk start failing.
	base := fpDigests("base", 12)
	for i := 0; i < 4; i++ {
		mustPut(t, st, fmt.Sprintf("app-%d", i), append(append([]string(nil), base[i:]...), fpDigests(fmt.Sprintf("app-%d", i), i)...))
	}
	fa.CrashAfter(3)
	for i := 4; i < 8; i++ {
		app := fmt.Sprintf("app-%d", i)
		// Errors are expected once the crash point hits.
		st.PutFingerprint(Fingerprint{App: app,
			Digests: append(append([]string(nil), base[i:]...), fpDigests(app, i)...)})
	}
	if !fa.Crashed() {
		fa.Crash()
	}
	st.Close()
	fa.Recover()

	cfg.Obs = obs.NewRegistry()
	st2, _ := mustOpen(t, cfg)
	defer st2.Close()
	// Resend the whole corpus: acked uploads dedup away, lost ones land.
	fpCorpus(t, st2)
	if got := snapshotJSON(t, st2, apps); got != want {
		t.Errorf("state after crash+resend differs from never-crashed reference:\n got %s\nwant %s", got, want)
	}
}

// TestSimilarConcurrentWithFingerprintChurn: Similar and Verdict read
// one consistent index state each while PutFingerprint churns other
// apps' fingerprints (and with them every df and the corpus size).
// Every answer stays sorted with scores in (0,1], identical twins
// score exactly 1.0 whatever the weights, and the candidate-walk
// counters land in the store's registry. Run under -race.
func TestSimilarConcurrentWithFingerprintChurn(t *testing.T) {
	reg := obs.NewRegistry()
	st, _ := mustOpen(t, Config{Dir: t.TempDir(), Shards: 2, Threshold: 1, Obs: reg})
	defer st.Close()

	set := fpDigests("twin", 12)
	mustPut(t, st, "app.orig", set)
	mustPut(t, st, "app.copy", set)
	if _, _, err := st.Ingest([]report.Event{ev("app.copy", "b", "u")}); err != nil {
		t.Fatal(err)
	}

	const writers, readers, rounds = 2, 2, 60
	done := make(chan struct{})
	errs := make(chan error, writers+readers)
	var writing, reading sync.WaitGroup
	for w := 0; w < writers; w++ {
		writing.Add(1)
		go func(w int) {
			defer writing.Done()
			for r := 0; r < rounds; r++ {
				// Each churn app keeps part of the twins' set and swaps its
				// private digests, so df and candidates move every round.
				app := fmt.Sprintf("app.churn-%d-%d", w, r%4)
				d := append(fpDigests(fmt.Sprintf("churn-%d-%d", w, r), 3), set[r%6:r%6+5]...)
				if _, err := st.PutFingerprint(Fingerprint{App: app, Digests: d}); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	check := func(ns []similarity.Neighbor) error {
		for i, n := range ns {
			if !(n.Score > 0 && n.Score <= 1) {
				return fmt.Errorf("neighbor %+v scored outside (0,1]", n)
			}
			if i > 0 && (ns[i-1].Score < n.Score || ns[i-1].Score == n.Score && ns[i-1].App >= n.App) {
				return fmt.Errorf("neighbors out of order at %d: %+v", i, ns)
			}
		}
		if len(ns) == 0 || ns[0] != (similarity.Neighbor{App: "app.copy", Score: 1.0, Shared: len(set)}) {
			return fmt.Errorf("top neighbor of app.orig = %+v, want app.copy at exactly 1.0", ns)
		}
		return nil
	}
	for r := 0; r < readers; r++ {
		reading.Add(1)
		go func() {
			defer reading.Done()
			for {
				sim, err := st.Similar("app.orig")
				if err == nil {
					err = check(sim.Neighbors)
				}
				if err == nil {
					v := st.Verdict("app.orig")
					if s := v.Channels.Similarity; !s.Flagged || s.Neighbor != "app.copy" || s.Score != 1.0 {
						err = fmt.Errorf("verdict similarity channel = %+v, want app.copy at exactly 1.0", s)
					}
				}
				if err != nil {
					errs <- err
					return
				}
				select {
				case <-done:
					return
				default:
				}
			}
		}()
	}
	writing.Wait()
	close(done)
	reading.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	scanned, rescored := st.idx.Stats()
	snap := reg.Snapshot()
	if got := snap.Counters["market_similarity_postings_scanned_total"]; got != scanned || got == 0 {
		t.Errorf("market_similarity_postings_scanned_total = %d, want Stats() %d > 0", got, scanned)
	}
	if got := snap.Counters["market_similarity_candidates_total"]; got != rescored || got == 0 {
		t.Errorf("market_similarity_candidates_total = %d, want Stats() %d > 0", got, rescored)
	}
}

// realFingerprintRecord uploads one fingerprint through a store and
// returns the tagged record the store wrote to its WAL.
func realFingerprintRecord(tb testing.TB) []byte {
	dir := tb.TempDir()
	st, _, err := Open(Config{Dir: dir, Shards: 1})
	if err != nil {
		tb.Fatal(err)
	}
	if _, err := st.PutFingerprint(Fingerprint{App: "app.real", Digests: fpDigests("app.real", 3)}); err != nil {
		tb.Fatal(err)
	}
	if err := st.Close(); err != nil {
		tb.Fatal(err)
	}
	seg, err := os.ReadFile(filepath.Join(dir, "shard-000", segName(0)))
	if err != nil {
		tb.Fatal(err)
	}
	payloads, _ := referenceFraming(seg)
	for _, p := range payloads {
		if len(p) > 0 && p[0] == fpRecordTag {
			return p
		}
	}
	tb.Fatalf("no fingerprint record among %d WAL records", len(payloads))
	return nil
}

// FuzzDecodeFingerprint: a tag-prefixed WAL record either fails to
// decode or decodes to a fingerprint whose encoding decodes back to
// it. Nothing panics. A canonical fingerprint within the default
// MaxFingerprintEntries round-trips exactly; its strings are valid
// UTF-8, as every string a JSON decode hands the store is.
func FuzzDecodeFingerprint(f *testing.F) {
	f.Add(realFingerprintRecord(f)[1:])
	f.Add([]byte(`{"app":"a","digests":null}`))
	f.Add([]byte(`{"app":"a","digests":["d2","d1","d2",""]}`))
	f.Add([]byte(`{"APP":"é\ud800","digests":[]}`))
	f.Add([]byte("a\x00b\x00\xff\x00b"))
	maxEntries := Config{}.withDefaults().MaxFingerprintEntries
	f.Fuzz(func(t *testing.T, in []byte) {
		rec := append([]byte{fpRecordTag}, in...)
		if fp, err := decodeFingerprint(rec); err == nil {
			roundTrip(t, fp)
			roundTrip(t, Fingerprint{App: fp.App, Digests: similarity.Canonical(fp.Digests)})
		}
		parts := strings.Split(strings.ToValidUTF8(string(in), "\uFFFD"), "\x00")
		c := Fingerprint{App: parts[0], Digests: similarity.Canonical(parts[1:])}
		if len(c.Digests) <= maxEntries {
			roundTrip(t, c)
		}
	})
}

// roundTrip checks that fp's WAL record decodes to fp.
func roundTrip(t *testing.T, fp Fingerprint) {
	t.Helper()
	rec, err := encodeFingerprint(&fp)
	if err != nil {
		t.Fatalf("encode %+v: %v", fp, err)
	}
	back, err := decodeFingerprint(rec)
	if err != nil {
		t.Fatalf("record %q of %+v does not decode: %v", rec, fp, err)
	}
	if !reflect.DeepEqual(back, fp) {
		t.Fatalf("record %q decodes to %+v, want %+v", rec, back, fp)
	}
}

package similarity

import (
	"fmt"
	"reflect"
	"testing"
)

func TestCanonical(t *testing.T) {
	in := []string{"b", "", "a", "b", "c", "a"}
	got := Canonical(in)
	if !reflect.DeepEqual(got, []string{"a", "b", "c"}) {
		t.Fatalf("Canonical = %v, want [a b c]", got)
	}
	// The input is not mutated.
	if !reflect.DeepEqual(in, []string{"b", "", "a", "b", "c", "a"}) {
		t.Fatalf("Canonical mutated its input: %v", in)
	}
	if got := Canonical(nil); len(got) != 0 {
		t.Fatalf("Canonical(nil) = %v, want empty", got)
	}
}

func TestWeight(t *testing.T) {
	if w := Weight(0, 10); w != 0 {
		t.Errorf("Weight(0, 10) = %d, want 0", w)
	}
	if w := Weight(5, 0); w != 0 {
		t.Errorf("Weight(5, 0) = %d, want 0", w)
	}
	// Rarer digests weigh more.
	if rare, common := Weight(1, 1000), Weight(900, 1000); rare <= common {
		t.Errorf("Weight(df=1) = %d not above Weight(df=900) = %d", rare, common)
	}
	// Deterministic.
	if Weight(7, 100) != Weight(7, 100) {
		t.Error("Weight not deterministic")
	}
}

// dfOf counts document frequencies over a static corpus.
func dfOf(corpus map[string][]string) map[string]int64 {
	counts := make(map[string]int64)
	for _, fp := range corpus {
		for _, d := range fp {
			counts[d]++
		}
	}
	return counts
}

// indexOf loads a static corpus into a fresh Index.
func indexOf(corpus map[string][]string) *Index {
	ix := NewIndex(nil)
	for app, fp := range corpus {
		ix.Set(app, fp)
	}
	return ix
}

func TestRankIdenticalSetsScoreOne(t *testing.T) {
	corpus := map[string][]string{
		"twin":  {"d1", "d2", "d3"},
		"other": {"d9"},
	}
	ns := Rank([]string{"d1", "d2", "d3"}, corpus, dfOf(corpus), 2)
	if len(ns) != 1 || ns[0].App != "twin" {
		t.Fatalf("Rank = %+v, want only twin (zero-overlap candidates dropped)", ns)
	}
	if ns[0].Score != 1.0 || ns[0].Shared != 3 {
		t.Fatalf("identical sets scored %+v, want exactly 1.0 with 3 shared", ns[0])
	}
	corpus["self"] = []string{"d1", "d2", "d3"}
	if got, ok := indexOf(corpus).Rank("self"); !ok || len(got) != 1 || got[0] != (Neighbor{App: "twin", Score: 1.0, Shared: 3}) {
		t.Fatalf("Index.Rank(self) = %+v, %v, want twin at exactly 1.0", got, ok)
	}
}

func TestRankCommonEntryStaysLow(t *testing.T) {
	// One shared boilerplate digest present in every app must not push
	// an otherwise-unrelated pair anywhere near a plausible τ.
	corpus := make(map[string][]string)
	for i := 0; i < 50; i++ {
		corpus[fmt.Sprintf("app-%d", i)] = Canonical([]string{
			"boiler", fmt.Sprintf("u%d-1", i), fmt.Sprintf("u%d-2", i), fmt.Sprintf("u%d-3", i),
		})
	}
	query := corpus["app-0"]
	cands := make(map[string][]string)
	cands["app-1"] = corpus["app-1"]
	ns := Rank(query, cands, dfOf(corpus), 50)
	if len(ns) != 1 {
		t.Fatalf("Rank = %+v, want one candidate", ns)
	}
	if ns[0].Score >= 0.3 {
		t.Fatalf("single shared common entry scored %g, want well below τ", ns[0].Score)
	}
}

func TestRankOrderDeterministic(t *testing.T) {
	corpus := map[string][]string{
		"b-app": {"d1", "d2"},
		"a-app": {"d1", "d2"}, // identical score → app-name tiebreak
		"c-app": {"d1"},
	}
	df := dfOf(corpus)
	ns := Rank([]string{"d1", "d2"}, corpus, df, 3)
	if len(ns) != 3 || ns[0].App != "a-app" || ns[1].App != "b-app" || ns[2].App != "c-app" {
		t.Fatalf("Rank order = %+v, want a-app, b-app, c-app", ns)
	}
	for i := 0; i < 5; i++ {
		again := Rank([]string{"d1", "d2"}, corpus, df, 3)
		if !reflect.DeepEqual(again, ns) {
			t.Fatalf("Rank not deterministic: %+v vs %+v", again, ns)
		}
	}
	corpus["q"] = []string{"d1", "d2"}
	got, _ := indexOf(corpus).Rank("q")
	if len(got) != 3 || got[0].App != "a-app" || got[1].App != "b-app" || got[2].App != "c-app" {
		t.Fatalf("Index.Rank order = %+v, want a-app, b-app, c-app", got)
	}
}

func TestRankEmptyQuery(t *testing.T) {
	corpus := map[string][]string{"x": {"d1"}}
	if ns := Rank(nil, corpus, dfOf(corpus), 1); len(ns) != 0 {
		t.Fatalf("empty query ranked %+v, want nothing", ns)
	}
	corpus["empty"] = nil
	ix := indexOf(corpus)
	if ns, ok := ix.Rank("empty"); !ok || len(ns) != 0 {
		t.Fatalf("Index.Rank(empty) = %+v, %v, want known with nothing", ns, ok)
	}
	if _, ok := ix.Rank("unknown"); ok {
		t.Fatal("Index.Rank of an app without a fingerprint reported ok")
	}
}

func TestTopK(t *testing.T) {
	if got := TopK(nil, 5); got != nil {
		t.Fatalf("TopK(nil) = %v, want nil", got)
	}
	if got := TopK([]Neighbor{}, 5); got != nil {
		t.Fatalf("TopK(empty) = %v, want nil (one JSON shape for both)", got)
	}
	ns := []Neighbor{{App: "a"}, {App: "b"}, {App: "c"}}
	if got := TopK(ns, 2); len(got) != 2 || got[1].App != "b" {
		t.Fatalf("TopK(3, 2) = %v", got)
	}
	if got := TopK(ns, 0); len(got) != 3 {
		t.Fatalf("TopK k=0 truncated: %v", got)
	}
}

func TestIndexSetGetDelete(t *testing.T) {
	ix := NewIndex(nil)
	ix.Set("a", []string{"d1", "d2"})
	ix.Set("b", []string{"d2", "d3"})
	if fp, ok := ix.Get("a"); !ok || len(fp) != 2 {
		t.Fatalf("Get(a) = %v, %v", fp, ok)
	}
	if df, apps := ix.DocFreqs([]string{"d1", "d2", "nope"}); apps != 2 || !reflect.DeepEqual(df, map[string]int64{"d1": 1, "d2": 2}) {
		t.Fatalf("counts: apps=%d df=%v", apps, df)
	}

	// Replacement removes stale postings and frees the stale id.
	ix.Set("a", []string{"d3"})
	if df, _ := ix.DocFreqs([]string{"d1", "d3"}); !reflect.DeepEqual(df, map[string]int64{"d3": 2}) {
		t.Fatalf("after replace: df=%v, want d3:2 only", df)
	}
	if len(ix.ids) != 2 || len(ix.freeIDs) != 1 {
		t.Fatalf("after replace: %d live ids, %d free, want 2, 1", len(ix.ids), len(ix.freeIDs))
	}
	ix.Set("c", []string{"d4"})
	if len(ix.df) != 3 || len(ix.freeIDs) != 0 {
		t.Fatalf("new digest grew the id space to %d instead of reusing the freed id", len(ix.df))
	}

	ix.Delete("a")
	if df, apps := ix.DocFreqs([]string{"d3"}); apps != 2 || df["d3"] != 1 {
		t.Fatalf("after delete: apps=%d df=%v", apps, df)
	}
	if _, ok := ix.Get("a"); ok {
		t.Fatal("deleted app still has a fingerprint")
	}
	ix.Delete("a") // deleting an absent app is a no-op
	if _, apps := ix.DocFreqs(nil); apps != 2 {
		t.Fatalf("second delete changed apps to %d", apps)
	}
}

func TestIndexCandidatesExcludesSelf(t *testing.T) {
	ix := NewIndex(nil)
	ix.Set("self", []string{"d1", "d2"})
	ix.Set("peer", []string{"d2"})
	ix.Set("stranger", []string{"d9"})
	q, _ := ix.Get("self")
	cands, apps := ix.Candidates(q, "self")
	if _, ok := cands["self"]; ok {
		t.Fatal("self not excluded from its own candidates")
	}
	if _, ok := cands["peer"]; !ok || len(cands) != 1 || apps != 3 {
		t.Fatalf("candidates = %v of %d apps, want exactly peer of 3", cands, apps)
	}
}

// TestIndexCandidatesSubQuadratic pins the inverted-index contract:
// the work per query is bounded by posting-list sizes, not corpus
// size. With disjoint fingerprints plus one small shared cluster, a
// query rescans only its cluster no matter how many apps exist.
func TestIndexCandidatesSubQuadratic(t *testing.T) {
	ix := NewIndex(nil)
	const n, cluster = 2000, 8
	for i := 0; i < n; i++ {
		fp := []string{fmt.Sprintf("solo-%d-a", i), fmt.Sprintf("solo-%d-b", i)}
		if i < cluster {
			fp = append(fp, "shared-cluster-digest")
		}
		ix.Set(fmt.Sprintf("app-%d", i), Canonical(fp))
	}
	q, _ := ix.Get("app-0")
	before, _ := ix.Stats()
	cands, _ := ix.Candidates(q, "app-0")
	scanned, rescored := ix.Stats()
	if len(cands) != cluster-1 {
		t.Fatalf("candidates = %d, want %d cluster peers", len(cands), cluster-1)
	}
	if walked := scanned - before; walked > int64(3*cluster) {
		t.Fatalf("scanned %d posting entries for a %d-app corpus, want O(cluster)=~%d", walked, n, cluster)
	}
	if rescored >= int64(n/10) {
		t.Fatalf("rescored %d candidates, want far below corpus size %d", rescored, n)
	}
}

// TestRankWeightTableEdges: document frequencies past the dense weight
// table (a digest in every app of a large corpus) score as the oracle
// does, and a negative df arriving from a federation member weighs 0
// as Weight defines, rather than wrapping into a huge uint32.
func TestRankWeightTableEdges(t *testing.T) {
	model := make(map[string][]string)
	for i := 0; i < maxDFTable+100; i++ {
		model[fmt.Sprintf("app-%04d", i)] = Canonical([]string{"boiler", fmt.Sprintf("u%d", i%50)})
	}
	ix := indexOf(model)
	got, _ := ix.Rank("app-0007")
	if want := oracleRank(model, "app-0007"); !reflect.DeepEqual(got, want) {
		t.Fatalf("Index.Rank past the weight table: %d neighbors, oracle %d; first %+v vs %+v",
			len(got), len(want), got[0], want[0])
	}

	corpus := map[string][]string{"peer": {"d1", "d2"}}
	neg := Rank([]string{"d1", "d2"}, corpus, map[string]int64{"d1": 1, "d2": -5}, 2)
	zero := Rank([]string{"d1", "d2"}, corpus, map[string]int64{"d1": 1}, 2)
	if !reflect.DeepEqual(neg, zero) || len(neg) != 1 || neg[0].Score != 1.0 {
		t.Fatalf("negative df ranked %+v, want the df-0 ranking %+v", neg, zero)
	}
}

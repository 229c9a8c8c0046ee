// Package similarity is the market's second detection channel: an
// FSquaDRA2-style resource-fingerprint registry with a near-duplicate
// inverted index. An app's fingerprint is the set of per-entry SHA-256
// digests from its apk manifest; two apps sharing most resource
// digests are near-certain repackaging pairs even before a single
// logic bomb detonates.
//
// The index answers top-K weighted-Jaccard queries without O(n²)
// pairwise scans: candidate generation walks only the posting lists of
// the query's digests (apps sharing at least one entry), and exact
// rescoring runs only on those candidates. Digests are interned to
// dense ids, so a ranking is integer merge-joins under one read lock
// rather than a string-keyed lookup per digest visit. Per-digest
// IDF-style weights keep common boilerplate entries (launcher icons,
// license files) from dominating the score.
//
// Everything here is deterministic and integer-exact up to a single
// final float division, so a federated query that sums per-node
// document frequencies reproduces a single-node query byte for byte.
package similarity

import (
	"cmp"
	"math"
	"slices"
	"strings"
	"sync"

	"bombdroid/internal/obs"
)

// WeightScale is the fixed-point scale for IDF weights. Weights are
// integers so intersection/union sums are order-independent; only the
// final score computes a float, from two identical int64s on every
// path.
const WeightScale = 1 << 16

// Weight is the fixed-point IDF-style weight of a digest appearing in
// df of apps fingerprints: log1p(apps/df) · WeightScale. Rare entries
// weigh heavily, ubiquitous ones approach log1p(1) and stop deciding
// scores on their own. Zero when df or apps is non-positive.
func Weight(df, apps int64) int64 {
	if df <= 0 || apps <= 0 {
		return 0
	}
	return int64(math.Log1p(float64(apps)/float64(df)) * WeightScale)
}

// Canonical sorts, dedups, and strips empties from a digest list —
// the one normal form every fingerprint takes before it is stored,
// hashed, ranked, or shipped between nodes. The input is not mutated.
func Canonical(digests []string) []string {
	out := make([]string, 0, len(digests))
	for _, d := range digests {
		if d != "" {
			out = append(out, d)
		}
	}
	slices.Sort(out)
	n := 0
	for i, d := range out {
		if i == 0 || d != out[n-1] {
			out[n] = d
			n++
		}
	}
	return out[:n]
}

// Neighbor is one ranked near-duplicate: the candidate app, its
// weighted-Jaccard score against the query, and how many digests the
// two fingerprints share.
type Neighbor struct {
	App    string  `json:"app"`
	Score  float64 `json:"score"`
	Shared int     `json:"shared"`
}

// scorer is the one weighted-Jaccard kernel: every ranking — a local
// Index.Rank and a federated Rank alike — interns its digests to
// dense ids and scores sorted id lists here. Weights come from a
// table indexed by document frequency, filled on first use: apps is
// fixed for the scorer's lifetime, so log1p runs once per distinct df
// rather than once per digest visit. The table stops at maxDFTable
// entries so a near-universal digest in a huge corpus cannot make
// every query allocate a corpus-sized table; weights past it are
// computed per visit.
type scorer struct {
	df   []uint32 // document frequency by digest id
	apps int64
	w    []int64 // Weight(df, apps) by df; 0 = not yet computed
}

const maxDFTable = 1 << 10

// weight is digest id's weight under the scorer's corpus size.
func (s *scorer) weight(id uint32) int64 {
	d := int(s.df[id])
	if d < len(s.w) && s.w[d] != 0 {
		return s.w[d]
	}
	return s.fill(d)
}

// fill computes the weight of document frequency d, into the table
// when d fits it.
func (s *scorer) fill(d int) int64 {
	if d >= maxDFTable {
		return Weight(int64(d), s.apps)
	}
	if d >= len(s.w) {
		s.w = append(s.w, make([]int64, min(max(d+1, 2*len(s.w)), maxDFTable)-len(s.w))...)
	}
	s.w[d] = Weight(int64(d), s.apps)
	return s.w[d]
}

// add scores candidate c against query q — Σ weight(shared) /
// Σ weight(union), a merge-join over their sorted ids — and appends
// the neighbor to out unless the two share no weight.
func (s *scorer) add(out []Neighbor, app string, q, c []uint32) []Neighbor {
	var wInter, wUnion int64
	shared := 0
	i, j := 0, 0
	for i < len(q) && j < len(c) {
		switch {
		case q[i] == c[j]:
			w := s.weight(q[i])
			wInter += w
			wUnion += w
			shared++
			i++
			j++
		case q[i] < c[j]:
			wUnion += s.weight(q[i])
			i++
		default:
			wUnion += s.weight(c[j])
			j++
		}
	}
	for ; i < len(q); i++ {
		wUnion += s.weight(q[i])
	}
	for ; j < len(c); j++ {
		wUnion += s.weight(c[j])
	}
	if wUnion <= 0 || wInter <= 0 {
		return out
	}
	return append(out, Neighbor{App: app, Score: float64(wInter) / float64(wUnion), Shared: shared})
}

// sortNeighbors puts a ranking in its one order: score desc, app asc.
func sortNeighbors(ns []Neighbor) {
	slices.SortFunc(ns, func(a, b Neighbor) int {
		if a.Score != b.Score {
			return cmp.Compare(b.Score, a.Score)
		}
		return strings.Compare(a.App, b.App)
	})
}

// Rank scores every candidate fingerprint against the query by
// weighted Jaccard and returns the neighbors sorted by (score desc,
// app asc). Fingerprints must be canonical (sorted, deduped). df maps
// a digest to its document frequency (absent = 0) and apps is the
// corpus size; identical digest sets score exactly 1.0 regardless of
// weights. This is the federated path: the digests are interned to
// local ids and scored by the same kernel as Index.Rank, so summed
// per-node df reproduces a single index's ranking bit for bit.
func Rank(query []string, cands map[string][]string, df map[string]int64, apps int64) []Neighbor {
	ids := make(map[string]uint32)
	s := scorer{apps: apps}
	intern := func(fp []string) []uint32 {
		out := make([]uint32, len(fp))
		for i, d := range fp {
			id, ok := ids[d]
			if !ok {
				id = uint32(len(s.df))
				ids[d] = id
				// Summed per-node counts arrive over the network.
				s.df = append(s.df, uint32(min(max(df[d], 0), math.MaxUint32)))
			}
			out[i] = id
		}
		slices.Sort(out)
		return out
	}
	q := intern(query)
	cids := make(map[string][]uint32, len(cands))
	for app, fp := range cands {
		cids[app] = intern(fp)
	}
	out := make([]Neighbor, 0, len(cands))
	for app, c := range cids {
		out = s.add(out, app, q, c)
	}
	sortNeighbors(out)
	return out
}

// TopK truncates a ranked neighbor list to its best k entries,
// returning nil for an empty result so every serving path marshals
// the same JSON ("neighbors":null) whether it ranked zero candidates
// or never had any.
func TopK(ns []Neighbor, k int) []Neighbor {
	if len(ns) == 0 {
		return nil
	}
	if k > 0 && len(ns) > k {
		ns = ns[:k]
	}
	return ns
}

// Index is the in-memory fingerprint registry. Apps and live digests
// are both interned to dense uint32 ids: each app keeps its canonical
// digest strings (for Get, Probe, the WAL and checkpoints) beside the
// same set as sorted digest ids, and each digest id keeps its document
// frequency and posting list (the apps containing it) — the inverted
// index that makes candidate generation sub-quadratic. An id whose df
// drops to 0 is unmapped and reused by the next new digest, so churn
// never grows the id space past the peak live digest count. State is
// a pure function of the latest fingerprint per app, so WAL replay in
// any order that preserves per-app write order rebuilds it
// identically (ids may differ; no answer depends on them).
type Index struct {
	mu sync.RWMutex

	slots     map[string]uint32 // app name → slot in apps
	apps      []appEntry
	freeSlots []uint32

	ids      map[string]uint32 // live digest → id
	df       []uint32          // by id; always len(postings[id])
	postings [][]uint32        // by id: owning app slots, unordered
	freeIDs  []uint32

	scanned  *obs.Counter // posting-list entries walked
	rescored *obs.Counter // candidates handed to exact rescoring
}

type appEntry struct {
	name    string
	digests []string // canonical
	ids     []uint32 // the same set, interned and sorted
}

// noSlot excludes nothing from a candidate walk.
const noSlot = math.MaxUint32

// NewIndex returns an empty registry publishing its candidate-walk
// counters into reg (nil = unregistered):
// market_similarity_postings_scanned_total counts posting entries
// walked, market_similarity_candidates_total the candidates exactly
// rescored.
func NewIndex(reg *obs.Registry) *Index {
	return &Index{
		slots:    make(map[string]uint32),
		ids:      make(map[string]uint32),
		scanned:  reg.Counter("market_similarity_postings_scanned_total"),
		rescored: reg.Counter("market_similarity_candidates_total"),
	}
}

// Set installs app's canonical digest set, replacing any previous
// fingerprint (last write wins). Only the digests that differ from
// the previous set touch postings. The slice is retained; callers
// must not mutate it afterwards.
func (ix *Index) Set(app string, digests []string) {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	slot, ok := ix.slots[app]
	if !ok {
		if n := len(ix.freeSlots); n > 0 {
			slot = ix.freeSlots[n-1]
			ix.freeSlots = ix.freeSlots[:n-1]
		} else {
			slot = uint32(len(ix.apps))
			ix.apps = append(ix.apps, appEntry{})
		}
		ix.slots[app] = slot
	}
	old := ix.apps[slot].digests
	ids := make([]uint32, len(digests))
	i := 0
	for j, d := range digests {
		for ; i < len(old) && old[i] < d; i++ {
			ix.unpost(old[i], slot)
		}
		if i < len(old) && old[i] == d {
			ids[j] = ix.ids[d]
			i++
		} else {
			ids[j] = ix.post(d, slot)
		}
	}
	for ; i < len(old); i++ {
		ix.unpost(old[i], slot)
	}
	slices.Sort(ids)
	ix.apps[slot] = appEntry{name: app, digests: digests, ids: ids}
}

// Delete removes app's fingerprint and its postings entirely.
func (ix *Index) Delete(app string) {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	slot, ok := ix.slots[app]
	if !ok {
		return
	}
	for _, d := range ix.apps[slot].digests {
		ix.unpost(d, slot)
	}
	ix.apps[slot] = appEntry{}
	delete(ix.slots, app)
	ix.freeSlots = append(ix.freeSlots, slot)
}

// post adds slot to digest d's postings, interning d on first sight.
func (ix *Index) post(d string, slot uint32) uint32 {
	id, ok := ix.ids[d]
	if !ok {
		if n := len(ix.freeIDs); n > 0 {
			id = ix.freeIDs[n-1]
			ix.freeIDs = ix.freeIDs[:n-1]
		} else {
			id = uint32(len(ix.df))
			ix.df = append(ix.df, 0)
			ix.postings = append(ix.postings, nil)
		}
		ix.ids[d] = id
	}
	ix.df[id]++
	ix.postings[id] = append(ix.postings[id], slot)
	return id
}

// unpost removes slot from digest d's postings, freeing d's id when
// no app holds it any more.
func (ix *Index) unpost(d string, slot uint32) {
	id := ix.ids[d]
	p := ix.postings[id]
	k := slices.Index(p, slot)
	p[k] = p[len(p)-1]
	ix.postings[id] = p[:len(p)-1]
	if ix.df[id]--; ix.df[id] == 0 {
		delete(ix.ids, d)
		ix.freeIDs = append(ix.freeIDs, id)
	}
}

// Get returns app's stored fingerprint. The slice is shared — read
// only.
func (ix *Index) Get(app string) ([]string, bool) {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	slot, ok := ix.slots[app]
	if !ok {
		return nil, false
	}
	return ix.apps[slot].digests, true
}

// gather walks the posting lists of ids and returns every app slot
// (except exclude) sharing at least one of them, sorted and deduped.
// This is the sub-quadratic gate: cost is the total posting length of
// the query's digests, not the corpus size. Callers hold mu.
func (ix *Index) gather(ids []uint32, exclude uint32) []uint32 {
	n := 0
	for _, id := range ids {
		n += len(ix.postings[id])
	}
	out := make([]uint32, 0, n)
	for _, id := range ids {
		for _, s := range ix.postings[id] {
			if s != exclude {
				out = append(out, s)
			}
		}
	}
	slices.Sort(out)
	out = slices.Compact(out)
	ix.scanned.Add(int64(n))
	ix.rescored.Add(int64(len(out)))
	return out
}

// Rank answers app's near-duplicate query in one read-locked pass:
// candidate generation over the postings of its digest ids, then
// exact weighted-Jaccard rescoring of every candidate against one
// corpus state, sorted by (score desc, app asc). ok is false when app
// has no fingerprint.
func (ix *Index) Rank(app string) (ns []Neighbor, ok bool) {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	slot, ok := ix.slots[app]
	if !ok {
		return nil, false
	}
	q := ix.apps[slot].ids
	cands := ix.gather(q, slot)
	s := scorer{df: ix.df, apps: int64(len(ix.slots))}
	ns = make([]Neighbor, 0, len(cands))
	for _, c := range cands {
		ns = s.add(ns, ix.apps[c].name, q, ix.apps[c].ids)
	}
	sortNeighbors(ns)
	return ns, true
}

// Candidates returns every app (except exclude) sharing at least one
// digest with query, mapped to its stored fingerprint, and the corpus
// size — the federation's probe round, read under one lock. The
// returned slices are shared — read only.
func (ix *Index) Candidates(query []string, exclude string) (cands map[string][]string, apps int64) {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	ids := make([]uint32, 0, len(query))
	for _, d := range query {
		if id, ok := ix.ids[d]; ok {
			ids = append(ids, id)
		}
	}
	excl := uint32(noSlot)
	if s, ok := ix.slots[exclude]; ok {
		excl = s
	}
	slots := ix.gather(ids, excl)
	cands = make(map[string][]string, len(slots))
	for _, s := range slots {
		cands[ix.apps[s].name] = ix.apps[s].digests
	}
	return cands, int64(len(ix.slots))
}

// DocFreqs reports each digest's document frequency (digests no
// fingerprint contains are omitted) and the corpus size — the
// federation's weighting round, read under one lock.
func (ix *Index) DocFreqs(digests []string) (df map[string]int64, apps int64) {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	df = make(map[string]int64, len(digests))
	for _, d := range digests {
		if id, ok := ix.ids[d]; ok {
			df[d] = int64(ix.df[id])
		}
	}
	return df, int64(len(ix.slots))
}

// Stats reports the cumulative work counters behind the sub-quadratic
// claim: posting entries scanned and candidates exactly rescored.
func (ix *Index) Stats() (scanned, rescored int64) {
	return ix.scanned.Value(), ix.rescored.Value()
}

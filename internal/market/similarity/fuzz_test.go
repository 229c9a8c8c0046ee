package similarity

import (
	"fmt"
	"reflect"
	"slices"
	"testing"
)

// Fuzz op codes: each op is a code byte, an app byte, and for set a
// count byte followed by that many digest bytes.
const (
	opSet = iota
	opDelete
	opRank
	numOps
)

const (
	fuzzApps    = 8
	fuzzDigests = 24
)

func fuzzApp(b byte) string    { return fmt.Sprintf("app-%d", int(b)%fuzzApps) }
func fuzzDigest(b byte) string { return fmt.Sprintf("d%02d", int(b)%fuzzDigests) }

// setOp encodes a set of app to the given digest numbers.
func setOp(app byte, digests ...byte) []byte {
	return append([]byte{opSet, app, byte(len(digests))}, digests...)
}

// oracleRank is the plain string merge-join the index must reproduce:
// live df counted over the model, every other app a candidate, zero-
// weight overlaps dropped, (score desc, app asc) order.
func oracleRank(model map[string][]string, app string) []Neighbor {
	df := dfOf(model)
	apps := int64(len(model))
	w := func(d string) int64 { return Weight(df[d], apps) }
	q := model[app]
	out := []Neighbor{}
	for other, fp := range model {
		if other == app {
			continue
		}
		var wInter, wUnion int64
		shared := 0
		i, j := 0, 0
		for i < len(q) && j < len(fp) {
			switch {
			case q[i] == fp[j]:
				wInter += w(q[i])
				wUnion += w(q[i])
				shared++
				i++
				j++
			case q[i] < fp[j]:
				wUnion += w(q[i])
				i++
			default:
				wUnion += w(fp[j])
				j++
			}
		}
		for ; i < len(q); i++ {
			wUnion += w(q[i])
		}
		for ; j < len(fp); j++ {
			wUnion += w(fp[j])
		}
		if wInter > 0 && wUnion > 0 {
			out = append(out, Neighbor{App: other, Score: float64(wInter) / float64(wUnion), Shared: shared})
		}
	}
	sortNeighbors(out)
	return out
}

// FuzzIndexRank drives an Index through Set/replace/Delete/Rank
// sequences and checks it against a plain string model after every
// op: Rank equals the oracle merge-join over live df (and the
// federated Rank over the index's own probe and df rounds), the id
// space holds exactly the live digests plus recycled ids, and churn
// never grows it past the peak number of digests live at once.
func FuzzIndexRank(f *testing.F) {
	seed := func(ops ...[]byte) { f.Add(slices.Concat(ops...)) }
	// TestRankIdenticalSetsScoreOne: twins, a stranger.
	seed(setOp(0, 1, 2, 3), setOp(1, 1, 2, 3), setOp(2, 9), []byte{opRank, 0})
	// TestRankOrderDeterministic: a name tiebreak and a weaker match.
	seed(setOp(0, 1, 2), setOp(1, 1, 2), setOp(2, 1), setOp(3, 1, 2), []byte{opRank, 3, opRank, 2})
	// TestIndexSetGetDelete: replace, reuse, delete.
	seed(setOp(0, 1, 2), setOp(1, 2, 3), setOp(0, 3), setOp(2, 4), []byte{opDelete, 0, opRank, 1})
	// TestRankCommonEntryStaysLow: one boilerplate digest everywhere.
	seed(setOp(0, 0, 1, 2, 3), setOp(1, 0, 4, 5, 6), setOp(2, 0, 7, 8, 9), []byte{opRank, 0})
	// The benchmark's update churn: replace the first digest each time.
	seed(setOp(0, 1, 2, 3), setOp(1, 1, 2, 3), setOp(0, 10, 2, 3), setOp(0, 11, 2, 3), setOp(0, 12, 2, 3), []byte{opRank, 1})

	f.Fuzz(func(t *testing.T, data []byte) {
		// Every op re-derives the whole model, so bound the sequence:
		// long inputs add no new interleavings, only minimization time.
		if len(data) > 256 {
			data = data[:256]
		}
		ix := NewIndex(nil)
		model := make(map[string][]string)
		peak := 0 // most digests ever live at once, counting a Set's old and new sets together
		next := func() (byte, bool) {
			if len(data) == 0 {
				return 0, false
			}
			b := data[0]
			data = data[1:]
			return b, true
		}
		for {
			op, ok := next()
			if !ok {
				break
			}
			a, ok := next()
			if !ok {
				break
			}
			app := fuzzApp(a)
			switch op % numOps {
			case opSet:
				n, _ := next()
				var raw []string
				for k := 0; k < int(n)%12; k++ {
					b, ok := next()
					if !ok {
						break
					}
					raw = append(raw, fuzzDigest(b))
				}
				fp := Canonical(raw)
				transient := make(map[string]bool)
				for _, other := range model {
					for _, d := range other {
						transient[d] = true
					}
				}
				for _, d := range fp {
					transient[d] = true
				}
				peak = max(peak, len(transient))
				ix.Set(app, fp)
				model[app] = fp
			case opDelete:
				ix.Delete(app)
				delete(model, app)
			case opRank:
				got, ok := ix.Rank(app)
				if _, known := model[app]; ok != known {
					t.Fatalf("Rank(%s) ok = %v, model knows it: %v", app, ok, known)
				}
				if !ok {
					continue
				}
				if want := oracleRank(model, app); !reflect.DeepEqual(got, want) {
					t.Fatalf("Rank(%s) = %+v\noracle  = %+v\nmodel %v", app, got, want, model)
				}
				q, _ := ix.Get(app)
				cands, apps := ix.Candidates(q, app)
				union := slices.Clone(q)
				for _, fp := range cands {
					union = append(union, fp...)
				}
				df, _ := ix.DocFreqs(Canonical(union))
				if fed := Rank(q, cands, df, apps); !reflect.DeepEqual(fed, got) {
					t.Fatalf("federated Rank(%s) = %+v, Index.Rank = %+v", app, fed, got)
				}
			}
			checkIDs(t, ix, model, peak)
		}
	})
}

// checkIDs pins the interning invariants: the id map holds exactly
// the live digests with their live df, every other id is on the free
// list, and the id space never outgrew the peak live digest count.
func checkIDs(t *testing.T, ix *Index, model map[string][]string, peak int) {
	t.Helper()
	live := dfOf(model)
	if len(ix.ids) != len(live) {
		t.Fatalf("%d interned ids for %d distinct live digests", len(ix.ids), len(live))
	}
	for d, id := range ix.ids {
		if int64(ix.df[id]) != live[d] || len(ix.postings[id]) != int(ix.df[id]) {
			t.Fatalf("digest %s: df %d, %d postings, want %d", d, ix.df[id], len(ix.postings[id]), live[d])
		}
	}
	for _, id := range ix.freeIDs {
		if ix.df[id] != 0 {
			t.Fatalf("free id %d still has df %d", id, ix.df[id])
		}
	}
	if len(ix.ids)+len(ix.freeIDs) != len(ix.df) {
		t.Fatalf("%d live + %d free ids != id space %d", len(ix.ids), len(ix.freeIDs), len(ix.df))
	}
	if len(ix.df) > peak {
		t.Fatalf("id space %d exceeds the peak of %d live digests: freed ids not reused", len(ix.df), peak)
	}
	if len(ix.slots) != len(model) || len(ix.slots)+len(ix.freeSlots) != len(ix.apps) {
		t.Fatalf("apps: index %d (%d slots, %d free), model %d", len(ix.slots), len(ix.apps), len(ix.freeSlots), len(model))
	}
}

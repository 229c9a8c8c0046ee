package market

import "bombdroid/internal/report"

// Verdict timelines: per-app event-time histories of how the tally
// climbed from first report to threshold crossing — the measured form
// of the paper's §3.5 convergence claim ("how long until enough
// distinct detonations flag the app?").
//
// Storage is per shard, for the same reason the tallies are: a
// shard's live commit order equals its WAL replay order, and the
// retained set below is in fact independent of even that — so a
// restarted daemon (checkpoint + tail, or full replay) serves a
// byte-identical timeline to an uncrashed reference, which
// TestTimelineRestartIdentical asserts.
//
// Each (shard, app) keeps a bounded, event-time-sorted entry list
// with *head retention*: the earliest tlHead entries are never
// evicted, and when the list exceeds TimelineCap the eviction victim
// is the entry at index tlHead — always the oldest non-head entry.
// The retained set is therefore exactly {the tlHead earliest} ∪ {the
// TimelineCap−tlHead latest} of everything admitted, a pure function
// of the admitted multiset, independent of arrival order.
//
// tlHead is the store's verdict threshold, which buys an exactness
// guarantee: the app's globally k-th earliest report (k ≤ threshold)
// has per-shard rank ≤ k ≤ tlHead, so the first report and the
// threshold-crossing report are always retained with exact cumulative
// counts — eviction can only thin the history *after* the verdict
// flipped, where only the shape of the tail matters.

// tlEntry is one admitted report in a shard's timeline: its event
// time and a key-hash tiebreak that makes (at, tie) a total order, so
// merges and counts are reproducible across restarts and shard
// interleavings.
type tlEntry struct {
	at  int64
	tie uint64
}

func tlLess(a, b tlEntry) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.tie < b.tie
}

// appTimeline is one shard's bounded history for one app, kept as the
// never-evicted head plus a tail ring so that every admission costs
// O(1) once the history is full; one sorted slice would shift up to
// TimelineCap entries twice per event. In (at, tie) order the retained entries are head,
// then tail[start:], then tail[:start]. head is sorted and holds the
// earliest min(n, tlHead) entries; the tail holds the rest and is
// non-empty only once head is full. While it grows (len(tail) below
// the shard's TimelineCap − tlHead) the tail is a plain sorted slice
// with start = 0; from then on it is a full ring whose front, the
// oldest non-head entry, is the eviction victim.
//
// A timeline decoded from a checkpoint arrives flat — every entry in
// head — and split moves the entries past tlHead into the tail.
type appTimeline struct {
	head    []tlEntry
	tail    []tlEntry
	start   int   // ring index of the oldest tail entry
	evicted int64 // entries dropped at index head (the mid-gap)
}

// tlInsertLocked admits one report, whose Key() is key, into the
// shard's timeline for ev.App. Caller holds s.mu (the same lock the
// tallies use).
func (s *shard) tlInsertLocked(ev report.Event, key string) {
	if s.cfg.TimelineCap <= 0 {
		return
	}
	tl := s.tls[ev.App]
	if tl == nil {
		tl = &appTimeline{}
		s.tls[ev.App] = tl
	}
	tl.insert(tlEntry{at: ev.TimeMs, tie: tlTie(key)}, s.tlHead(), s.cfg.TimelineCap-s.tlHead())
}

// insert admits e into a timeline with head length h and tail room
// tcap. The result is the sorted-list rule exactly: insert e in
// order, then, past TimelineCap entries, drop the one at index h —
// the smallest of the tail and e when e lands outside the head.
func (tl *appTimeline) insert(e tlEntry, h, tcap int) {
	if h > 0 && (len(tl.head) < h || tlLess(e, tl.head[h-1])) {
		if len(tl.head) < h {
			// Growing head: the tail is still empty.
			tl.head = append(tl.head, e)
		} else {
			// e displaces the head's last entry, which becomes the
			// tail's smallest: evicted outright when the tail is full.
			spill := tl.head[h-1]
			tl.head[h-1] = e
			if len(tl.tail) >= tcap {
				tl.evicted++
			} else {
				tl.tail = append(tl.tail, tlEntry{})
				copy(tl.tail[1:], tl.tail)
				tl.tail[0] = spill
			}
		}
		for i := len(tl.head) - 1; i > 0 && tlLess(tl.head[i], tl.head[i-1]); i-- {
			tl.head[i], tl.head[i-1] = tl.head[i-1], tl.head[i]
		}
		return
	}
	n := len(tl.tail)
	if n < tcap {
		tl.tail = append(tl.tail, e)
		for i := n; i > 0 && tlLess(e, tl.tail[i-1]); i-- {
			tl.tail[i], tl.tail[i-1] = tl.tail[i-1], e
		}
		return
	}
	// Full ring: the victim is min(front, e).
	tl.evicted++
	if tlLess(e, tl.tail[tl.start]) {
		return
	}
	// Pop the front; its slot is now the back. Walk e forward from
	// there: a late arrival costs its distance from the back.
	j := tl.start // physical index of the hole
	tl.start++
	if tl.start == n {
		tl.start = 0
	}
	for j != tl.start {
		p := j - 1
		if p < 0 {
			p = n - 1
		}
		if !tlLess(e, tl.tail[p]) {
			break
		}
		tl.tail[j] = tl.tail[p]
		j = p
	}
	tl.tail[j] = e
}

// split moves a flat timeline's entries past the first h into the
// tail. The head is full from then on and never grows, so the two
// slices may share one array.
func (tl *appTimeline) split(h int) {
	if len(tl.head) > h {
		tl.head, tl.tail = tl.head[:h:h], tl.head[h:]
	}
}

// appendEntries appends the retained entries in (at, tie) order.
func (tl *appTimeline) appendEntries(dst []tlEntry) []tlEntry {
	dst = append(dst, tl.head...)
	dst = append(dst, tl.tail[tl.start:]...)
	return append(dst, tl.tail[:tl.start]...)
}

// flat is a copy of tl with every entry in head, the form checkpoints
// encode and decode.
func (tl *appTimeline) flat() *appTimeline {
	n := len(tl.head) + len(tl.tail)
	return &appTimeline{head: tl.appendEntries(make([]tlEntry, 0, n)), evicted: tl.evicted}
}

// tlHead is the per-shard never-evicted prefix length. Clamped below
// the cap so eviction always has a victim.
func (s *shard) tlHead() int {
	h := s.cfg.Threshold
	if h >= s.cfg.TimelineCap {
		h = s.cfg.TimelineCap - 1
	}
	return h
}

// tlTie hashes an event key into the timeline tiebreak.
func tlTie(key string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= prime64
	}
	return h
}

// tlSnapshot copies one app's timeline out from under s.mu.
func (s *shard) tlSnapshot(app string) (entries []tlEntry, evicted int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	tl := s.tls[app]
	if tl == nil {
		return nil, 0
	}
	return tl.appendEntries(nil), tl.evicted
}

// TimelineEntry is one point on an app's verdict timeline, in event
// time. Count is the cumulative admitted-detection tally *after* this
// report — exact through the threshold crossing (see head retention
// above); past it, a jump bigger than 1 marks evicted mid-history.
type TimelineEntry struct {
	AtMs  int64  `json:"at_ms"`
	Count int64  `json:"count"`
	Kind  string `json:"kind"` // "first" | "report" | "threshold"
}

// Timeline is an app's verdict history as served by
// GET /v1/apps/{app}/timeline.
type Timeline struct {
	App        string `json:"app"`
	Threshold  int    `json:"threshold"`
	Detections int64  `json:"detections"` // == Verdict.Channels.Reports.Detections
	Repackaged bool   `json:"repackaged"`
	Evicted    int64  `json:"evicted"` // mid-history entries not in Entries
	// TimeToVerdictMs is the event-time distance from the first report
	// to the threshold crossing, -1 while the verdict has not flipped.
	TimeToVerdictMs int64           `json:"time_to_verdict_ms"`
	Entries         []TimelineEntry `json:"entries"`
}

// RawTimelineEntry is one retained timeline entry in wire form: event
// time plus the key-hash tiebreak that makes (at_ms, tie) a total
// order. The tie must travel with the entry — it is what keeps a
// k-way merge across shards, and across *nodes*, reproducible when
// event times collide.
type RawTimelineEntry struct {
	AtMs int64  `json:"at_ms"`
	Tie  uint64 `json:"tie"`
}

// TimelinePart is one shard's bounded per-app history as a mergeable
// unit: its retained entries (sorted by (at_ms, tie)) and how many
// mid-history entries were evicted at the head boundary. Parts are
// what federation ships between nodes — merging all parts of all
// nodes is the same computation as merging one node's shards.
type TimelinePart struct {
	Entries []RawTimelineEntry `json:"entries"`
	Evicted int64              `json:"evicted"`
}

// RawTimeline is the federation wire form of an app's timeline state,
// served at GET /v1/apps/{app}/timeline?raw=1: the per-shard parts
// plus the merge parameters (threshold and head-retention length)
// that must agree across every part being merged.
type RawTimeline struct {
	App       string         `json:"app"`
	Threshold int            `json:"threshold"`
	Head      int            `json:"head"`
	Parts     []TimelinePart `json:"parts"`
}

// TimelineParts snapshots the app's per-shard histories in shard-index
// order — the store's side of the federation contract.
func (st *Store) TimelineParts(app string) RawTimeline {
	out := RawTimeline{
		App:       app,
		Threshold: st.cfg.Threshold,
		Head:      st.shards[0].tlHead(),
	}
	for _, s := range st.shards {
		entries, ev := s.tlSnapshot(app)
		part := TimelinePart{Evicted: ev}
		if len(entries) > 0 {
			part.Entries = make([]RawTimelineEntry, len(entries))
			for i, e := range entries {
				part.Entries[i] = RawTimelineEntry{AtMs: e.at, Tie: e.tie}
			}
		}
		out.Parts = append(out.Parts, part)
	}
	return out
}

// MergeTimelineParts performs the k-way merge of bounded per-shard
// histories into one event-time timeline with exact cumulative counts
// at every retained entry. The merge walks all retained entries in
// (at, tie) order; consuming a part's first post-gap entry folds that
// part's evicted count in, so Count stays monotone and ends at
// exactly the summed detections.
//
// The parts may come from one store's shards (Store.Timeline) or from
// every shard of every node of a cluster (cluster.Router.Timeline) —
// the computation is identical, which is why a federated timeline is
// byte-identical to a single-node reference fed the same admitted
// multiset whenever no part has evicted (and why, under eviction, the
// head entries through the threshold crossing and the final counts
// still agree exactly; see DESIGN.md §16 for the argument).
func MergeTimelineParts(app string, threshold, head int, parts []TimelinePart) Timeline {
	type partState struct {
		entries []RawTimelineEntry
		evicted int64
		idx     int   // next entry to consume
		rank    int64 // entries (incl. evicted) consumed so far
	}
	tls := make([]*partState, 0, len(parts))
	var evicted int64
	for _, p := range parts {
		evicted += p.Evicted
		if len(p.Entries) > 0 {
			tls = append(tls, &partState{entries: p.Entries, evicted: p.Evicted})
		}
	}

	out := Timeline{
		App:             app,
		Threshold:       threshold,
		Evicted:         evicted,
		TimeToVerdictMs: -1,
	}
	less := func(a, b RawTimelineEntry) bool {
		if a.AtMs != b.AtMs {
			return a.AtMs < b.AtMs
		}
		return a.Tie < b.Tie
	}
	var count int64
	crossed := false
	for {
		var best *partState
		for _, s := range tls {
			if s.idx >= len(s.entries) {
				continue
			}
			if best == nil || less(s.entries[s.idx], best.entries[best.idx]) {
				best = s
			}
		}
		if best == nil {
			break
		}
		e := best.entries[best.idx]
		// Rank of this entry within its part, counting the evicted
		// mid-gap once the walk moves past the retained head.
		rank := int64(best.idx) + 1
		if best.idx >= head {
			rank += best.evicted
		}
		best.idx++
		count += rank - best.rank
		best.rank = rank

		kind := "report"
		if len(out.Entries) == 0 {
			kind = "first"
		}
		if !crossed && count >= int64(threshold) {
			crossed = true
			kind = "threshold"
			if len(out.Entries) == 0 {
				out.TimeToVerdictMs = 0
			} else {
				out.TimeToVerdictMs = e.AtMs - out.Entries[0].AtMs
			}
		}
		out.Entries = append(out.Entries, TimelineEntry{AtMs: e.AtMs, Count: count, Kind: kind})
	}
	out.Detections = count
	out.Repackaged = crossed
	return out
}

// Timeline merges the app's per-shard histories into its event-time
// verdict timeline — the single-node instance of the same merge the
// cluster router runs across nodes.
func (st *Store) Timeline(app string) Timeline {
	raw := st.TimelineParts(app)
	return MergeTimelineParts(app, raw.Threshold, raw.Head, raw.Parts)
}

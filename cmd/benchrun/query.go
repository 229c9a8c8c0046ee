package main

import (
	"context"
	"fmt"
	"path/filepath"
	"sync/atomic"
	"time"

	"bombdroid/internal/market"
	"bombdroid/internal/report"
)

const (
	queryRate       = 500   // requests/s in the open-loop phase
	queryReadsPerS  = 1_000 // closed-loop reads per second of run length
	queryPostEvents = 32
	frameworkPool   = 1024 // shared library digests
)

// digest is a 64-hex-digit name for one resource entry.
func digest(x uint64) string {
	return fmt.Sprintf("%016x%016x%016x%016x", mix(x), mix(x+1), mix(x+2), mix(x+3))
}

// queryCorpus builds each app's resource fingerprint: 2–4 digests
// from a pool of shared framework entries, its clone family's base set
// of 24–64 entries (families have 2–8 apps, and each member keeps at
// least 70% of the base), and 0–4 private entries. It also says how
// many distinct reports set-up gives each app: about 5% get 3–5, enough
// to be flagged, and another 10% get 1–2.
func queryCorpus(seed int64, napps int) (fps [][]string, reports []int) {
	s := uint64(seed) << 32
	fps = make([][]string, napps)
	reports = make([]int, napps)
	for a, fam := 0, 0; a < napps; fam++ {
		fx := mix(s ^ uint64(fam)<<1 ^ 1)
		size := 2 + int(fx%7)
		base := 24 + int((fx>>8)%41)
		for k := 0; k < size && a < napps; k, a = k+1, a+1 {
			ax := mix(s ^ uint64(a)<<1)
			var d []string
			for j := 0; j < base; j++ {
				if j < base*7/10 || mix(ax^uint64(j))%100 < 85 {
					d = append(d, digest(s^uint64(fam)<<24^uint64(j)<<8^2))
				}
			}
			for j := 0; j < int(ax%5); j++ {
				d = append(d, digest(s^uint64(a)<<24^uint64(j)<<8^3))
			}
			for j := 0; j < 2+int((ax>>8)%3); j++ {
				d = append(d, digest(s^mix(ax+uint64(j))%frameworkPool<<8^4))
			}
			fps[a] = d
			switch r := (ax >> 16) % 100; {
			case r < 5:
				reports[a] = 3 + int((ax>>24)%3)
			case r < 15:
				reports[a] = 1 + int((ax>>24)%2)
			}
		}
	}
	return fps, reports
}

// runQuery is the market operator's read traffic over a store holding
// a fingerprint corpus with clone families and some flagged apps:
// fused verdicts, /similar and timelines for Zipf-chosen apps, beside
// fingerprint uploads and report POSTs, first open-loop at a fixed
// rate, then reads alone as fast as nproc connections allow. Op: one
// read, from its due time to its answer. Throughput: reads per second
// in the closed-loop phase.
func runQuery(ctx context.Context, m *meter) error {
	c := m.c
	napps := marketApps
	if c.tiny {
		napps = 256
	}
	// The corpus and the apps' popularity are fixed; the seed draws the
	// request stream. Read cost follows the hot apps' candidate sets,
	// and a corpus and ranking drawn per seed moved the read p90 by a
	// fifth from seed to seed.
	g := newEventGen(c.seed, 1, napps)
	fps, reports := queryCorpus(1, napps)
	var s *marketServer
	var probes *probeSet
	err := m.setup(setupReps, func(rep int) (err error) {
		if s != nil {
			if err := s.close(); err != nil {
				return err
			}
		}
		probes = newProbeSet(g)
		if s, err = startMarket(c, filepath.Join(c.dir, fmt.Sprintf("query-%d", rep)), m.tr); err != nil {
			return err
		}
		// Fingerprints arrive the way developers upload them: through
		// the API, on nproc connections.
		if _, err := closedLoop(ctx, napps, c.workers, func(_, a int) error {
			_, err := s.client.Fingerprints().Put(ctx, market.Fingerprint{App: fmt.Sprintf("app-%04d", a), Digests: fps[a]})
			return err
		}); err != nil {
			return err
		}
		var evs []report.Event
		for a, n := range reports {
			for k := 0; k < n; k++ {
				evs = append(evs, report.Event{App: fmt.Sprintf("app-%04d", a), Bomb: fmt.Sprintf("Bomb%d", k),
					User: fmt.Sprintf("setup.%d.%d", a, k), TimeMs: int64(a*10 + k), Info: "benchrun"})
			}
		}
		acc, dups, err := s.st.Ingest(evs)
		probes.acked(evs, allFresh, market.PostResult{Accepted: acc, Duplicates: dups})
		return err
	})
	if err != nil {
		return err
	}

	cl := s.client
	// read answers one of the three read routes, in the 60:20:10
	// proportion of the open-loop mix, for a Zipf-chosen app.
	read := func(ctx context.Context, x uint64) error {
		app := g.apps[g.z.rank(unit(x))]
		var err error
		switch r := (x >> 32) % 90; {
		case r < 60:
			_, err = cl.Verdicts().Get(ctx, app)
		case r < 80:
			_, err = cl.Fingerprints().Similar(ctx, app)
		default:
			_, err = cl.Timelines().Get(ctx, app)
		}
		return err
	}
	isRead := func(i int) bool { return g.hash(streamQueryReads, i)%100 < 90 }
	var uploads atomic.Int64
	request := func(ctx context.Context, i int) error {
		x := g.hash(streamQueryReads, i)
		switch r := x % 100; {
		case r < 90:
			return read(ctx, x)
		case r < 95:
			// Uploads go to distinct apps (7919 is odd, so i ↦ 7919·i
			// mod napps is a bijection on any napps consecutive
			// requests), so no two race and the final state depends
			// only on which requests were sent.
			a := i * 7919 % napps
			d := append([]string{fmt.Sprintf("upd-%d", i)}, fps[a][1:]...)
			_, err := cl.Fingerprints().Put(ctx, market.Fingerprint{App: fmt.Sprintf("app-%04d", a), Digests: d})
			if err == nil {
				uploads.Add(1)
			}
			return err
		default:
			evs := make([]report.Event, queryPostEvents)
			for j := range evs {
				evs[j] = g.event(streamQueryPosts, i*queryPostEvents+j)
			}
			res, err := cl.Reports().Post(ctx, evs)
			if err == nil {
				probes.acked(evs, allFresh, res)
			}
			return err
		}
	}

	before := s.st.Obs().Snapshot()
	m.begin()
	openLoopPhase(ctx, m, queryRate, isRead, func(_, i int, send func() time.Time) error {
		due := send()
		return tracedCall(m, i, due, func(parent int64) error {
			return request(withParent(ctx, parent), i)
		})
	})
	// Reads only, so the phase leaves the store as it found it.
	maxRatePhase(ctx, m, int(queryReadsPerS*c.seconds), 1, func(_, i int) error {
		return read(ctx, g.hash(streamQueryClosed, i))
	})
	m.end()
	storeLayers(m, before, s.st.Obs().Snapshot())
	probes.check(m, s.st, 0)
	m.checkf(uploads.Load() > 0 || c.tiny, "no fingerprint upload was sent")
	similarityLayers(m, s.st, g.apps[:min(64, napps)])
	m.digest = restartChecks(m, s, probes.apps, true, 1)
	return nil
}

// similarityLayers measures the similarity index outside the timed
// part, through the store's own Probe and Similar: candidates the
// inverted index yields per query, neighbors scoring at or above τ,
// and the corpus size.
func similarityLayers(m *meter, st *market.Store, apps []string) {
	var cands, above, n int
	for _, app := range apps {
		fp, err := st.Fingerprint(app)
		if err != nil {
			continue
		}
		pr := st.Probe(market.ProbeRequest{Digests: fp.Digests, Exclude: app})
		cands += len(pr.Candidates)
		m.layer["similarity.index_apps"] = float64(pr.Apps)
		sim, err := st.Similar(app)
		if err != nil {
			continue
		}
		for _, nb := range sim.Neighbors {
			if nb.Score >= sim.Tau {
				above++
			}
		}
		n++
	}
	if n > 0 {
		m.layer["similarity.candidates_per_query"] = float64(cands) / float64(n)
		m.layer["similarity.neighbors_above_tau"] = float64(above) / float64(n)
	}
}

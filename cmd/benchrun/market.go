package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io/fs"
	"math"
	"net"
	"net/http"
	"path/filepath"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"bombdroid/internal/market"
	"bombdroid/internal/obs"
	"bombdroid/internal/report"
)

// Market workload load levels, against what two connections sustained
// closed-loop on the 2-core reference box (README.md): about 250k
// relay events/s, 27k device reports/s and 2.4k reads/s. The
// open-loop rates sit near a fifth of that (relay: a tenth). At a
// third, queueing behind the box's other tenants moved the latencies
// by a fifth from run to run. The relay rate has a second reason: each
// shard checkpoints every 65,536 records and stalls its queue
// meanwhile. At 80k events/s the stalled requests came to about a
// tenth of the total; at 40k, while the box slowed by half over twenty
// minutes, the p90 still ranged from 2.7 to 9 ms as the stalls grew;
// at 20k fewer requests arrive during each stall. The fixed-count
// phases are sized to take about a quarter of the run length there.
const (
	marketApps       = 4096
	relayBatch       = 256
	relayRate        = 20_000 // events/s in 256-event POSTs
	relayFixedPerSec = 60_000 // fixed-count phase: events per second of run length
	deviceRate       = 6_000  // single-report POSTs per second
	deviceFixedPerS  = 8_000  // fixed-count phase: reports per second of run length
	historyEvents    = 400_000
	restarts         = 5
	openLoopShare    = 0.6 // of the run length, warm-up included
)

// Event streams: each phase draws its events from its own stream, so
// keys never collide across phases.
const (
	streamHistory = iota + 1
	streamRelayOpen
	streamRelayFixed
	streamDeviceOpen
	streamDeviceFixed
	streamQueryPosts
	streamQueryReads
	streamQueryClosed
)

// mix is splitmix64: a cheap, well-mixed hash, so every event is a
// pure function of (seed, stream, index) and any event can be rebuilt
// without replaying a generator.
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// unit maps a hash to [0, 1).
func unit(x uint64) float64 { return float64(x>>11) / (1 << 53) }

// zipf draws ranks 0..n-1 with P(k) ∝ (k+1)^-s by inverse CDF.
type zipf []float64

func newZipf(n int, s float64) zipf {
	cdf := make(zipf, n)
	sum := 0.0
	for k := range cdf {
		sum += math.Pow(float64(k+1), -s)
		cdf[k] = sum
	}
	for k := range cdf {
		cdf[k] /= sum
	}
	return cdf
}

func (z zipf) rank(u float64) int {
	k := sort.SearchFloat64s(z, u)
	if k >= len(z) {
		k = len(z) - 1
	}
	return k
}

// eventGen draws detonation reports: apps by Zipf(1.1) popularity over
// a ranking shuffled by rankSeed, one of 40 bombs per app, and a user
// unique to each event, so every fresh event is a distinct detection
// key. seed draws everything but the ranking.
type eventGen struct {
	seed uint64
	apps []string // by popularity rank
	z    zipf
}

func newEventGen(seed, rankSeed int64, napps int) *eventGen {
	g := &eventGen{seed: uint64(seed), z: newZipf(napps, 1.1)}
	g.apps = make([]string, napps)
	for i, p := range permutation(rankSeed, napps) {
		g.apps[i] = fmt.Sprintf("app-%04d", p)
	}
	return g
}

// permutation is a seeded shuffle of 0..n-1 (Fisher–Yates over mix).
func permutation(seed int64, n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := int(mix(uint64(seed)^uint64(i)<<20) % uint64(i+1))
		p[i], p[j] = p[j], p[i]
	}
	return p
}

func (g *eventGen) hash(stream, i int) uint64 {
	return mix(g.seed*0x100000001b3 ^ uint64(stream)<<48 ^ uint64(i))
}

// event is the fresh event number i of a stream.
func (g *eventGen) event(stream, i int) report.Event {
	x := g.hash(stream, i)
	return report.Event{
		App:    g.apps[g.z.rank(unit(x))],
		Bomb:   fmt.Sprintf("Bomb%d", (x>>40)%40),
		User:   fmt.Sprintf("u%d.%d", stream, i),
		TimeMs: int64(stream)*100_000_000 + int64(i),
		Info:   "benchrun",
	}
}

// resent says whether slot j of relay batch b resends the event in
// the same slot of batch b-1 instead of a fresh one: every 25th slot
// of odd batches, about 2% of events, always one batch after the
// original — far inside the dedup window, so each resend is a
// duplicate whatever order the two batches commit in.
func resent(b, j int) bool { return b%2 == 1 && j%25 == 0 }

// relayBatch is batch b of a relay stream.
func (g *eventGen) relayBatch(stream, b int) []report.Event {
	evs := make([]report.Event, relayBatch)
	for j := range evs {
		src := b
		if resent(b, j) {
			src = b - 1
		}
		evs[j] = g.event(stream, src*relayBatch+j)
	}
	return evs
}

// probeSet tracks, for a fixed set of apps across the popularity
// range, how many distinct keys the generator got acknowledged — what
// each app's detection tally must read.
type probeSet struct {
	apps  []string
	index map[string]int
	want  []atomic.Int64

	sent, accepted, dups atomic.Int64
}

func newProbeSet(g *eventGen) *probeSet {
	p := &probeSet{index: map[string]int{}}
	for _, r := range []int{0, 1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 233, 377, 610, 987} {
		if r < len(g.apps) {
			p.index[g.apps[r]] = len(p.apps)
			p.apps = append(p.apps, g.apps[r])
		}
	}
	p.want = make([]atomic.Int64, len(p.apps))
	return p
}

// acked accounts an acknowledged batch: fresh(j) says whether event j
// is a first send.
func (p *probeSet) acked(evs []report.Event, fresh func(j int) bool, res market.PostResult) {
	p.sent.Add(int64(len(evs)))
	p.accepted.Add(int64(res.Accepted))
	p.dups.Add(int64(res.Duplicates))
	for j, ev := range evs {
		if k, ok := p.index[ev.App]; ok && fresh(j) {
			p.want[k].Add(1)
		}
	}
}

func allFresh(int) bool { return true }

// check compares every probe app's tally and the ack totals with what
// was sent.
func (p *probeSet) check(m *meter, st *market.Store, dupsSent int64) {
	for k, app := range p.apps {
		got := st.Verdict(app).Channels.Reports.Detections
		m.checkf(got == p.want[k].Load(), "%s: tally %d, sent %d distinct keys", app, got, p.want[k].Load())
	}
	sent, acc, dups := p.sent.Load(), p.accepted.Load(), p.dups.Load()
	m.checkf(acc+dups == sent, "acks: %d accepted + %d duplicates != %d sent", acc, dups, sent)
	m.checkf(dups == dupsSent, "acks: %d duplicates, %d resent", dups, dupsSent)
}

// marketServer is a marketd on loopback: the store with marketd's
// default Config, its HTTP handler (wrapped for tracing), and a client
// transport holding at most nproc connections.
type marketServer struct {
	cfg    market.Config
	st     *market.Store
	srv    *http.Server
	served chan error
	url    string
	base   *http.Transport
	client *market.Client
}

func startMarket(c *config, dir string, tr *tracer) (*marketServer, error) {
	cfg := market.Config{Dir: dir, Obs: obs.NewRegistry()}
	st, _, err := market.Open(cfg)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		st.Close()
		return nil, err
	}
	s := &marketServer{
		cfg:    cfg,
		st:     st,
		srv:    &http.Server{Handler: traceHandler(tr, market.NewHandler(st))},
		served: make(chan error, 1),
		url:    "http://" + ln.Addr().String(),
		base: &http.Transport{MaxConnsPerHost: c.workers, MaxIdleConnsPerHost: c.workers,
			DisableCompression: true},
	}
	go func() { s.served <- s.srv.Serve(ln) }()
	s.client = &market.Client{
		BaseURL:    s.url,
		HTTPClient: &http.Client{Transport: &tracingTransport{tr: tr, base: s.base}},
		Retry:      &market.RetryPolicy{MaxAttempts: 20},
	}
	return s, nil
}

// stopHTTP closes the listener and every connection and waits for the
// server to stop; the store stays open.
func (s *marketServer) stopHTTP() {
	s.srv.Close()
	<-s.served
	s.base.CloseIdleConnections()
}

func (s *marketServer) close() error {
	s.stopHTTP()
	return s.st.Close()
}

// preload gives a fresh store its history: events of the history
// stream through Store.Ingest, the way a long-running market holds
// reports from before the measured traffic.
func preload(st *market.Store, g *eventGen, n int, p *probeSet) error {
	const batch = 4096
	for lo := 0; lo < n; lo += batch {
		evs := make([]report.Event, 0, batch)
		for i := lo; i < min(lo+batch, n); i++ {
			evs = append(evs, g.event(streamHistory, i))
		}
		acc, dups, err := st.Ingest(evs)
		if err != nil {
			return err
		}
		p.acked(evs, allFresh, market.PostResult{Accepted: acc, Duplicates: dups})
	}
	return nil
}

// ingestSetup is the ingest workloads' set-up: a fresh store holding
// its history, served on loopback. Each repetition closes the one
// before.
func ingestSetup(m *meter, g *eventGen, name string) (s *marketServer, probes *probeSet, err error) {
	err = m.setup(setupReps, func(rep int) (err error) {
		if s != nil {
			if err := s.close(); err != nil {
				return err
			}
		}
		probes = newProbeSet(g)
		if s, err = startMarket(m.c, filepath.Join(m.c.dir, fmt.Sprintf("%s-%d", name, rep)), m.tr); err != nil {
			return err
		}
		return preload(s.st, g, historySize(m.c), probes)
	})
	return s, probes, err
}

func historySize(c *config) int {
	if c.tiny {
		return 5_000
	}
	return historyEvents
}

// snapshotState renders the probe apps' verdicts and timelines (and
// /similar answers when similar is set), the market output the digest
// covers and that must survive every restart unchanged.
func snapshotState(st *market.Store, apps []string, similar bool) string {
	var b strings.Builder
	enc := json.NewEncoder(&b)
	for _, app := range apps {
		enc.Encode(st.Verdict(app))
		enc.Encode(st.Timeline(app))
		if similar {
			sim, err := st.Similar(app)
			enc.Encode(sim)
			enc.Encode(err != nil)
		}
	}
	return b.String()
}

// restartChecks closes the server and store, then reopens the store
// n times, timing each market.Open and checking that the probe apps'
// state is unchanged. It returns the digest of that state.
func restartChecks(m *meter, s *marketServer, apps []string, similar bool, n int) string {
	want := snapshotState(s.st, apps, similar)
	m.layer["market.wal_bytes_per_event"] = float64(walBytes(s.cfg.Dir)) / float64(max(counterSum(s.st.Obs().Snapshot(), "market_ingest_events_total"), 1))
	if err := s.close(); err != nil {
		m.checkf(false, "close: %v", err)
		return ""
	}
	var opens []float64
	for k := 0; k < n; k++ {
		m.attempted++
		t0 := time.Now()
		st, rs, err := market.Open(s.cfg)
		d := time.Since(t0)
		if err != nil {
			m.failed++
			m.checkf(false, "reopen %d: %v", k, err)
			return ""
		}
		opens = append(opens, float64(d.Microseconds())/1000)
		if k == 0 {
			m.layer["restart.records"] = float64(rs.Records)
			m.layer["restart.checkpoints_used"] = float64(rs.Checkpoints)
			m.layer["restart.segments_scanned"] = float64(rs.Segments)
			m.layer["market.compacted_segments"] = float64(rs.CompactedSegments)
		}
		m.checkf(snapshotState(st, apps, similar) == want, "reopen %d: probe state changed", k)
		if err := st.Close(); err != nil {
			m.checkf(false, "close after reopen %d: %v", k, err)
		}
	}
	if ms := median(opens); ms > 0 {
		m.layer["restart.records_per_ms"] = m.layer["restart.records"] / ms
	}
	sum := sha256.Sum256([]byte(want))
	return hex.EncodeToString(sum[:])
}

// walBytes sums the WAL segment sizes under dir.
func walBytes(dir string) int64 {
	var n int64
	filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() && strings.HasPrefix(d.Name(), "wal-") {
			if info, err := d.Info(); err == nil {
				n += info.Size()
			}
		}
		return nil
	})
	return n
}

// storeLayers reads the store's counters over the timed part.
func storeLayers(m *meter, before, after obs.Snapshot) {
	delta := func(name string) float64 { return float64(counterSum(after, name) - counterSum(before, name)) }
	events, dups, commits := delta("market_ingest_events_total"), delta("market_ingest_duplicates_total"),
		delta("market_commit_batches_total")
	if commits > 0 {
		m.layer["market.events_per_commit"] = events / commits
	}
	if events+dups > 0 {
		m.layer["market.dup_pct"] = 100 * dups / (events + dups)
	}
	m.layer["market.rejects_429"] = delta("market_backpressure_rejects_total")
	m.layer["market.checkpoints"] = delta("market_checkpoints_total")
	flush := histDelta(before, after, "market_commit_flush_us").Quantile(0.5)
	ack := histDelta(before, after, "market_server_ack_us").Quantile(0.5)
	if ack > 0 {
		m.layer["market.flush_share_pct"] = 100 * flush / ack
	}
}

// histDelta is a histogram's observations between two snapshots.
func histDelta(before, after obs.Snapshot, name string) obs.HistogramSnapshot {
	a, b := after.Histograms[name], before.Histograms[name]
	out := obs.HistogramSnapshot{Count: a.Count - b.Count, Sum: a.Sum - b.Sum}
	for i, bk := range a.Buckets {
		if i < len(b.Buckets) {
			bk.N -= b.Buckets[i].N
		}
		out.Buckets = append(out.Buckets, bk)
	}
	return out
}

// openLoopPhase runs the open-loop part of a market workload for its
// share of the run length at rate requests per second, and books its
// requests; the first fifth of the phase, at most 2 s, is warm-up.
// Latencies of the requests op accepts feed op_p50_ms and op.p90_ms (all
// of them when op is nil), in one-second windows by due time.
func openLoopPhase(ctx context.Context, m *meter, rate float64, op func(i int) bool,
	do func(worker, i int, send func() time.Time) error) {
	c := m.c
	phase := c.duration(openLoopShare)
	warm := min(2*time.Second, phase/5)
	n := int(rate * phase.Seconds())
	start, reqs := openLoop(ctx, n, rate, c.workers, do)
	counted, failed, late := openLoopStats(start, reqs, warm)
	m.attempted += n
	m.failed += failed
	m.layer["gen.late_pct"] = late
	m.windows = make([][]float64, max(int((phase-warm)/time.Second), 1))
	for _, i := range counted {
		if op == nil || op(i) {
			ms := reqs[i].latencyMs()
			m.lat = append(m.lat, ms)
			k := min(int((reqs[i].due.Sub(start)-warm)/time.Second), len(m.windows)-1)
			m.windows[k] = append(m.windows[k], ms)
			m.tag("request", m.traced(i), ms)
		}
	}
}

// rateChunks is how many equal chunks a closed-loop phase is timed in.
const rateChunks = 8

// maxRatePhase makes n calls of do as fast as nproc workers go, each
// call unitsPerCall units of work, and records the rate of each of
// rateChunks consecutive chunks: a checkpoint's fsync or a burst from
// another tenant then slows one chunk instead of the whole figure.
// Failed calls are counted, not retried.
func maxRatePhase(ctx context.Context, m *meter, n int, unitsPerCall float64, do func(worker, i int) error) {
	var failed atomic.Int64
	for k := 0; k < rateChunks; k++ {
		lo, hi := n*k/rateChunks, n*(k+1)/rateChunks
		wall, _ := closedLoop(ctx, hi-lo, m.c.workers, func(w, j int) error {
			if do(w, lo+j) != nil {
				failed.Add(1)
			}
			return nil
		})
		m.rate(float64(hi-lo)*unitsPerCall, wall)
	}
	m.attempted += n
	m.failed += int(failed.Load())
}

// tracedCall wraps one open-loop request, called as soon as it is
// sent: in the per-layer run every other request records a root span
// from its due time to its answer, with a "gen.queue" child for the
// time it waited for a free worker, and the client and server spans
// under it.
func tracedCall(m *meter, i int, due time.Time, call func(parent int64) error) error {
	if !m.traced(i) {
		return call(0)
	}
	root := m.tr.id()
	m.tr.add(root, "gen.queue", due, time.Now())
	err := call(root)
	m.tr.record(root, 0, "bench", "", due, time.Now())
	return err
}

// runIngestRelay is relay traffic into marketd: 256-event POSTs
// through market.Client, first open-loop at a fixed rate, then a fixed
// count as fast as nproc connections allow, then restarts. Op: one
// POST, from its due time to the post-WAL ack. Throughput: events per
// second in the fixed-count phase.
func runIngestRelay(ctx context.Context, m *meter) error {
	c := m.c
	g := newEventGen(c.seed, c.seed, marketApps)
	s, probes, err := ingestSetup(m, g, "relay")
	if err != nil {
		return err
	}
	var resends atomic.Int64
	post := func(ctx context.Context, stream, b int) error {
		evs := g.relayBatch(stream, b)
		res, err := s.client.Reports().Post(ctx, evs)
		if err != nil {
			return err
		}
		if b%2 == 1 {
			resends.Add(int64((relayBatch + 24) / 25))
		}
		probes.acked(evs, func(j int) bool { return !resent(b, j) }, res)
		return nil
	}

	before := s.st.Obs().Snapshot()
	m.begin()
	openLoopPhase(ctx, m, float64(relayRate)/relayBatch, nil, func(_, i int, send func() time.Time) error {
		due := send()
		return tracedCall(m, i, due, func(parent int64) error {
			return post(withParent(ctx, parent), streamRelayOpen, i)
		})
	})
	maxRatePhase(ctx, m, int(relayFixedPerSec*c.seconds/relayBatch), relayBatch, func(_, i int) error {
		return post(ctx, streamRelayFixed, i)
	})
	m.end()
	storeLayers(m, before, s.st.Obs().Snapshot())
	probes.check(m, s.st, resends.Load())
	m.digest = restartChecks(m, s, probes.apps, false, restarts)
	return nil
}

// runIngestDevice is device traffic into marketd: two report.Pipelines
// over report.HTTPSink, each delivering one report per POST with
// Submit+Tick, first open-loop at a fixed rate, then a fixed count as
// fast as possible. Op: one report, from its due time to the
// pipeline's delivery. Throughput: reports per second in the
// fixed-count phase.
func runIngestDevice(ctx context.Context, m *meter) error {
	c := m.c
	g := newEventGen(c.seed, c.seed, marketApps)
	s, probes, err := ingestSetup(m, g, "device")
	if err != nil {
		return err
	}
	// One pipeline per worker; each worker's requests come in
	// increasing order, so its pipeline's virtual clock never runs
	// backwards.
	pipes := make([]*report.Pipeline, c.workers)
	transports := make([]*tracingTransport, c.workers)
	clocks := make([]int64, c.workers)
	for w := range pipes {
		transports[w] = &tracingTransport{tr: m.tr, base: s.base}
		pipes[w] = report.NewPipeline(&report.HTTPSink{URL: s.url + "/v1/reports",
			Client: &http.Client{Transport: transports[w]}}, report.WithSeed(c.seed+int64(w)))
	}
	deliver := func(w int, ev report.Event, parent int64) error {
		p := pipes[w]
		transports[w].parent = parent
		clocks[w]++
		now := clocks[w]
		if !p.Submit(ev, now) {
			return fmt.Errorf("report %s refused by the pipeline", ev.Key())
		}
		if p.Tick(now) == 0 {
			// The first attempt failed; let the pipeline's backoff run
			// its course in virtual time.
			dead := p.Stats().DeadLettered
			clocks[w] = p.Flush(now, now+600_000)
			if p.Stats().DeadLettered > dead {
				return fmt.Errorf("report %s dead-lettered", ev.Key())
			}
		}
		// The pipeline does not expose the answer's body; a delivered
		// fresh report is one accepted event, and the store's tallies
		// are the real check.
		probes.acked([]report.Event{ev}, allFresh, market.PostResult{Accepted: 1})
		return nil
	}

	before := s.st.Obs().Snapshot()
	m.begin()
	openLoopPhase(ctx, m, deviceRate, nil, func(w, i int, send func() time.Time) error {
		ev := g.event(streamDeviceOpen, i)
		due := send()
		return tracedCall(m, i, due, func(parent int64) error {
			if parent == 0 {
				return deliver(w, ev, 0)
			}
			tick := m.tr.id()
			t0 := time.Now()
			err := deliver(w, ev, tick)
			m.tr.record(tick, parent, "report.tick", "", t0, time.Now())
			return err
		})
	})
	maxRatePhase(ctx, m, int(deviceFixedPerS*c.seconds), 1, func(w, i int) error {
		return deliver(w, g.event(streamDeviceFixed, i), 0)
	})
	m.end()
	storeLayers(m, before, s.st.Obs().Snapshot())
	probes.check(m, s.st, 0)
	var retries, dead int64
	for _, p := range pipes {
		st := p.Stats()
		retries += st.Retries
		dead += st.DeadLettered
	}
	m.layer["report.retries"] = float64(retries)
	m.layer["report.dead_letters"] = float64(dead)
	m.digest = restartChecks(m, s, probes.apps, false, 1)
	return nil
}

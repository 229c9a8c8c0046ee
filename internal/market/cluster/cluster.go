// Package cluster is marketd's fan-out tier: a static-membership
// Router that partitions report batches across a set of market nodes
// by the shared FNV slot hash, fans the pieces out concurrently with
// per-node retry, and serves *federated* reads — verdicts and
// timelines merged commutatively across every node's tallies and
// per-shard timeline buffers.
//
// The router owns no state beyond its membership table. All
// durability lives in the nodes; the router can crash and restart
// freely (run several behind one DNS name — they make identical
// routing decisions because ownership is a pure function of the key).
// Membership is static by design: the node set and their shard
// ranges are pinned in each node's meta.json, discovered once at
// startup from GET /v1/node, and validated to tile the slot space
// exactly. Re-sharding is an offline operation in this design, which
// is what lets a federated verdict be byte-identical to a single-node
// reference (see DESIGN.md §16) — there is never a moment where two
// nodes both think they own a key.
package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"bombdroid/internal/market"
	"bombdroid/internal/market/similarity"
	"bombdroid/internal/obs"
	"bombdroid/internal/report"
)

// Config describes a Router's membership and transport.
type Config struct {
	// Nodes are the member base URLs, e.g. "http://127.0.0.1:8845".
	// Order does not matter; the router sorts members by owned range.
	Nodes []string
	// HTTPClient defaults to http.DefaultClient.
	HTTPClient *http.Client
	// Gzip compresses fan-out request bodies.
	Gzip bool
	// Retry is the per-node fan-out retry policy (zero value = the
	// shared defaults). Routers sit in the request path, so unlike a
	// load tool they should bound MaxAttempts; New defaults it to 3.
	Retry market.RetryPolicy
	// Obs receives the router's metrics; nil records nothing.
	Obs *obs.Registry
}

// member is one node as the router sees it.
type member struct {
	url    string
	desc   market.NodeDesc
	client *market.Client
	events *obs.Counter // events routed here
	r429   *obs.Counter
	r503   *obs.Counter
}

// name is the member's display id in acks and errors.
func (m *member) name() string {
	if m.desc.NodeID != "" {
		return m.desc.NodeID
	}
	return m.url
}

// Router fans report batches out across the cluster and federates
// reads back together. Safe for concurrent use.
type Router struct {
	cfg     Config
	members []*member // sorted by RangeLo
	slots   int
	owner   []int // slot → members index

	batches  *obs.Counter
	fanoutUs *obs.Histogram
	misrout  *obs.Counter
}

// New discovers every configured node's descriptor and assembles the
// routing table. It refuses to start unless the members agree on the
// slot count and the merge-affecting knobs (threshold, timeline cap)
// and their ranges tile [0, slots) exactly — overlaps would
// double-admit keys, gaps would black-hole them, and either breaks
// the federation-equals-reference guarantee. Discovery is one pass;
// callers that race node startup (cmd/marketd's router mode) retry
// New until it succeeds.
func New(ctx context.Context, cfg Config) (*Router, error) {
	if len(cfg.Nodes) == 0 {
		return nil, errors.New("cluster: no nodes configured")
	}
	if cfg.Retry.MaxAttempts == 0 {
		cfg.Retry.MaxAttempts = 3
	}
	r := &Router{
		cfg:      cfg,
		batches:  cfg.Obs.Counter("cluster_router_batches_total"),
		fanoutUs: cfg.Obs.Histogram("cluster_router_fanout_us", obs.ExpBuckets(50, 4, 12), obs.Volatile()),
		misrout:  cfg.Obs.Counter("cluster_router_misroutes_total"),
	}
	for _, u := range cfg.Nodes {
		u = strings.TrimRight(u, "/")
		cl := &market.Client{BaseURL: u, HTTPClient: cfg.HTTPClient, Gzip: cfg.Gzip}
		desc, err := cl.Node().Get(ctx)
		if err != nil {
			return nil, fmt.Errorf("cluster: discovering %s: %w", u, err)
		}
		r.members = append(r.members, &member{
			url:    u,
			desc:   desc,
			client: cl,
			events: cfg.Obs.Counter(obs.L("cluster_node_events_total", "node", desc.NodeID)),
			r429:   cfg.Obs.Counter(obs.L("cluster_node_retries_total", "node", desc.NodeID, "code", "429")),
			r503:   cfg.Obs.Counter(obs.L("cluster_node_retries_total", "node", desc.NodeID, "code", "503")),
		})
	}
	sort.Slice(r.members, func(i, j int) bool { return r.members[i].desc.RangeLo < r.members[j].desc.RangeLo })

	first := r.members[0].desc
	r.slots = first.Slots
	want := 0
	for _, m := range r.members {
		d := m.desc
		if d.Slots != first.Slots || d.Threshold != first.Threshold || d.TimelineCap != first.TimelineCap {
			return nil, fmt.Errorf("cluster: node %s disagrees on geometry (slots=%d threshold=%d cap=%d, want %d/%d/%d)",
				m.name(), d.Slots, d.Threshold, d.TimelineCap, first.Slots, first.Threshold, first.TimelineCap)
		}
		if d.SimilarityTau != first.SimilarityTau || d.SimilarityK != first.SimilarityK {
			// τ and K shape the fused verdict; nodes disagreeing would
			// make the federated answer depend on which node is asked.
			return nil, fmt.Errorf("cluster: node %s disagrees on similarity knobs (tau=%g k=%d, want %g/%d)",
				m.name(), d.SimilarityTau, d.SimilarityK, first.SimilarityTau, first.SimilarityK)
		}
		if d.RangeLo != want {
			return nil, fmt.Errorf("cluster: ranges do not tile the slot space: node %s owns %s, want lo=%d",
				m.name(), d.Range(), want)
		}
		want = d.RangeHi
	}
	if want != r.slots {
		return nil, fmt.Errorf("cluster: ranges do not tile the slot space: coverage ends at %d of %d slots", want, r.slots)
	}
	r.owner = make([]int, r.slots)
	for i, m := range r.members {
		for s := m.desc.RangeLo; s < m.desc.RangeHi; s++ {
			r.owner[s] = i
		}
	}
	return r, nil
}

// Members reports the discovered node descriptors, sorted by range.
func (r *Router) Members() []market.NodeDesc {
	out := make([]market.NodeDesc, len(r.members))
	for i, m := range r.members {
		out[i] = m.desc
	}
	return out
}

// Desc describes the whole cluster as one logical full-range node —
// which is exactly what a router is from the outside, so a router can
// itself be a member of a larger federation tier.
func (r *Router) Desc() market.NodeDesc {
	var shards int
	for _, m := range r.members {
		shards += m.desc.Shards
	}
	return market.NodeDesc{
		NodeID:        "cluster",
		Slots:         r.slots,
		RangeLo:       0,
		RangeHi:       r.slots,
		Shards:        shards,
		Threshold:     r.members[0].desc.Threshold,
		TimelineCap:   r.members[0].desc.TimelineCap,
		SimilarityTau: r.members[0].desc.SimilarityTau,
		SimilarityK:   r.members[0].desc.SimilarityK,
	}
}

// NodeAck is one node's share of a routed batch.
type NodeAck struct {
	Node       string `json:"node"`
	Events     int    `json:"events"`
	Accepted   int    `json:"accepted"`
	Duplicates int    `json:"duplicates"`
	Retries429 int    `json:"retries_429,omitempty"`
	Retries503 int    `json:"retries_503,omitempty"`
	Err        string `json:"err,omitempty"`
}

// Ack is the cluster-wide result of one PostCtx: the summed accepted/
// duplicate counts (the same shape a single node acks) plus per-node
// accounting so backpressure and failures stay attributable.
type Ack struct {
	Accepted   int       `json:"accepted"`
	Duplicates int       `json:"duplicates"`
	Nodes      []NodeAck `json:"nodes"`
}

// PostCtx partitions one batch by key ownership and fans the pieces
// out to their owning nodes concurrently, retrying each node's share
// through the configured policy. The Ack always carries whatever was
// acknowledged; a non-nil error means at least one node's share was
// not fully admitted (the error wraps the node errors, so errors.Is
// still matches ErrBackpressure/ErrDegraded for callers with their
// own outer retry loop).
func (r *Router) PostCtx(ctx context.Context, evs []report.Event) (Ack, error) {
	return r.PostTracedCtx(ctx, evs, "")
}

// PostTracedCtx is PostCtx propagating an obs.TraceHeader id through
// every fan-out hop, so a traced device report stays traceable on
// whichever node it lands.
func (r *Router) PostTracedCtx(ctx context.Context, evs []report.Event, traceID string) (Ack, error) {
	r.batches.Inc()
	start := time.Now()
	parts := make([][]report.Event, len(r.members))
	for _, ev := range evs {
		i := r.owner[market.Slot(ev.Key(), r.slots)]
		parts[i] = append(parts[i], ev)
	}

	var (
		wg   sync.WaitGroup
		mu   sync.Mutex
		ack  Ack
		errs []error
	)
	ack.Nodes = make([]NodeAck, 0, len(r.members))
	for i, m := range r.members {
		part := parts[i]
		if len(part) == 0 {
			continue
		}
		wg.Add(1)
		go func(m *member, part []report.Event) {
			defer wg.Done()
			var res market.PostResult
			stats, err := r.cfg.Retry.Do(ctx, func(ctx context.Context) error {
				var perr error
				res, perr = m.client.Reports().PostTraced(ctx, part, traceID)
				return perr
			})
			m.events.Add(int64(len(part)))
			m.r429.Add(int64(stats.Retries429))
			m.r503.Add(int64(stats.Retries503))
			na := NodeAck{
				Node:       m.name(),
				Events:     len(part),
				Accepted:   res.Accepted,
				Duplicates: res.Duplicates,
				Retries429: stats.Retries429,
				Retries503: stats.Retries503,
			}
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				na.Err = err.Error()
				errs = append(errs, fmt.Errorf("node %s: %w", m.name(), err))
				if errors.Is(err, market.ErrNotOwner) {
					// A member refused its share: membership drifted under
					// us (a node restarted with a different range). That is
					// an operator problem, not a client problem.
					r.misrout.Inc()
				}
			}
			ack.Accepted += res.Accepted
			ack.Duplicates += res.Duplicates
			ack.Nodes = append(ack.Nodes, na)
		}(m, part)
	}
	wg.Wait()
	// Deterministic ack order regardless of which node answered first.
	sort.Slice(ack.Nodes, func(i, j int) bool { return ack.Nodes[i].Node < ack.Nodes[j].Node })
	r.fanoutUs.Observe(time.Since(start).Microseconds())
	if len(errs) > 0 {
		return ack, errors.Join(errs...)
	}
	return ack, nil
}

// reportsCtx federates one app's reports channel: per-node detection
// tallies are fetched concurrently and summed. Addition commutes, and
// ownership guarantees each admitted (app,bomb,user) key was counted
// on exactly one node, so the result equals — field for field — the
// channel a single node holding every event would serve.
func (r *Router) reportsCtx(ctx context.Context, app string) (market.ReportsChannel, error) {
	tallies := make([]market.ReportsChannel, len(r.members))
	err := r.eachMember(ctx, func(i int, m *member) error {
		ch, err := m.client.Verdicts().Reports(ctx, app)
		tallies[i] = ch
		return err
	})
	if err != nil {
		return market.ReportsChannel{}, err
	}
	out := market.ReportsChannel{Threshold: r.members[0].desc.Threshold}
	for _, ch := range tallies {
		out.Detections += ch.Detections
	}
	out.Flagged = out.Detections >= int64(out.Threshold)
	return out, nil
}

// VerdictCtx federates GET /v1/apps/{app}/verdict into the same fused
// multi-channel Verdict a single full-range node serves: the summed
// reports channel, plus the similarity channel evaluated over the
// federated top-K neighbor list (each qualifying neighbor's reports
// tally summed across nodes in turn). Determinism carries through
// because both rounds are integer-exact sums over disjoint node
// state.
func (r *Router) VerdictCtx(ctx context.Context, app string) (market.Verdict, error) {
	reports, err := r.reportsCtx(ctx, app)
	if err != nil {
		return market.Verdict{}, err
	}
	sim, err := r.similarityChannelCtx(ctx, app)
	if err != nil {
		return market.Verdict{}, err
	}
	return market.Verdict{
		App:     app,
		Flagged: reports.Flagged || sim.Flagged,
		Channels: market.VerdictChannels{
			Reports:    reports,
			Similarity: sim,
		},
	}, nil
}

// similarityChannelCtx mirrors the store's fusion rule over the
// federated neighbor list: the first top-K neighbor (score desc, app
// asc) scoring ≥ τ whose federated reports tally crosses the
// threshold flags the channel.
func (r *Router) similarityChannelCtx(ctx context.Context, app string) (market.SimilarityChannel, error) {
	out := market.SimilarityChannel{Tau: r.members[0].desc.SimilarityTau}
	sim, err := r.SimilarCtx(ctx, app)
	if errors.Is(err, market.ErrNoFingerprint) {
		return out, nil
	}
	if err != nil {
		return market.SimilarityChannel{}, err
	}
	for _, n := range sim.Neighbors {
		if n.Score < out.Tau {
			break // sorted by score desc: nothing below τ qualifies
		}
		reports, err := r.reportsCtx(ctx, n.App)
		if err != nil {
			return market.SimilarityChannel{}, err
		}
		if reports.Flagged {
			out.Neighbor, out.Score, out.Flagged = n.App, n.Score, true
			break
		}
	}
	return out, nil
}

// fpOwner is the member owning an app's fingerprint slot. Unlike
// report events (which slot by the full event key), fingerprints slot
// by app name alone, so one node serializes every write for an app.
func (r *Router) fpOwner(app string) *member {
	return r.members[r.owner[market.Slot(app, r.slots)]]
}

// PutFingerprintCtx routes a fingerprint upload to the owning node.
func (r *Router) PutFingerprintCtx(ctx context.Context, fp market.Fingerprint) (market.FingerprintAck, error) {
	m := r.fpOwner(fp.App)
	var ack market.FingerprintAck
	_, err := r.cfg.Retry.Do(ctx, func(ctx context.Context) error {
		var perr error
		ack, perr = m.client.Fingerprints().Put(ctx, fp)
		return perr
	})
	if err != nil {
		return market.FingerprintAck{}, fmt.Errorf("node %s: %w", m.name(), err)
	}
	return ack, nil
}

// FingerprintCtx reads an app's fingerprint from its owning node.
func (r *Router) FingerprintCtx(ctx context.Context, app string) (market.Fingerprint, error) {
	return r.fpOwner(app).client.Fingerprints().Get(ctx, app)
}

// SimilarCtx federates GET /v1/apps/{app}/similar in two rounds:
//
//  1. probe — fetch the query fingerprint from its owning node, then
//     ask every node for its local candidates (apps sharing ≥1
//     digest) concurrently;
//  2. weigh — collect the union of digests across query and
//     candidates, ask every node for its local document frequencies,
//     and sum them (each app's fingerprint lives on exactly one node,
//     so the sums equal a single full-range node's df and corpus
//     size).
//
// similarity.Rank interns the merged candidates' digests locally and
// scores them with the same kernel the store's Index.Rank runs, so the
// federated neighbor list — scores included — is byte-identical to
// the single-node reference.
func (r *Router) SimilarCtx(ctx context.Context, app string) (market.Similar, error) {
	fp, err := r.FingerprintCtx(ctx, app)
	if err != nil {
		return market.Similar{}, err
	}

	probes := make([]market.ProbeResponse, len(r.members))
	err = r.eachMember(ctx, func(i int, m *member) error {
		p, perr := m.client.Fingerprints().Probe(ctx, market.ProbeRequest{Digests: fp.Digests, Exclude: app})
		probes[i] = p
		return perr
	})
	if err != nil {
		return market.Similar{}, err
	}
	cands := make(map[string][]string)
	digestSet := make(map[string]struct{}, len(fp.Digests))
	for _, d := range fp.Digests {
		digestSet[d] = struct{}{}
	}
	var apps int64
	for _, p := range probes {
		apps += p.Apps
		for _, c := range p.Candidates {
			cands[c.App] = c.Digests
			for _, d := range c.Digests {
				digestSet[d] = struct{}{}
			}
		}
	}

	union := make([]string, 0, len(digestSet))
	for d := range digestSet {
		union = append(union, d)
	}
	df := make(map[string]int64, len(union))
	var dfMu sync.Mutex
	err = r.eachMember(ctx, func(i int, m *member) error {
		resp, perr := m.client.Fingerprints().DF(ctx, market.DFRequest{Digests: union})
		if perr != nil {
			return perr
		}
		dfMu.Lock()
		for d, n := range resp.DF {
			df[d] += n
		}
		dfMu.Unlock()
		return nil
	})
	if err != nil {
		return market.Similar{}, err
	}

	ns := similarity.TopK(similarity.Rank(fp.Digests, cands, df, apps), r.members[0].desc.SimilarityK)
	return market.Similar{
		App:       app,
		Known:     true,
		Tau:       r.members[0].desc.SimilarityTau,
		Neighbors: ns,
	}, nil
}

// TimelineCtx federates GET /v1/apps/{app}/timeline: every node's raw
// per-shard timeline parts are fetched concurrently and merged by the
// same k-way merge a single store runs over its own shards
// (market.MergeTimelineParts). Because the parts carry the tie hashes
// and evicted counts, the merged timeline is byte-identical to the
// single-node reference whenever no part has evicted, and keeps the
// head-through-threshold entries and final counts exact even under
// eviction — the same guarantee the store itself makes across
// restarts.
func (r *Router) TimelineCtx(ctx context.Context, app string) (market.Timeline, error) {
	raws := make([]market.RawTimeline, len(r.members))
	err := r.eachMember(ctx, func(i int, m *member) error {
		raw, err := m.client.Timelines().Raw(ctx, app)
		raws[i] = raw
		return err
	})
	if err != nil {
		return market.Timeline{}, err
	}
	var parts []market.TimelinePart
	for i, raw := range raws {
		if raw.Threshold != raws[0].Threshold || raw.Head != raws[0].Head {
			return market.Timeline{}, fmt.Errorf("cluster: node %s timeline geometry drifted (threshold=%d head=%d, want %d/%d)",
				r.members[i].name(), raw.Threshold, raw.Head, raws[0].Threshold, raws[0].Head)
		}
		parts = append(parts, raw.Parts...)
	}
	return market.MergeTimelineParts(app, raws[0].Threshold, raws[0].Head, parts), nil
}

// NodeHealth is one member's health as seen from the router.
type NodeHealth struct {
	Node           string `json:"node"`
	Status         string `json:"status"` // "ok" | "degraded" | "unreachable"
	ShardsOK       int    `json:"shards_ok"`
	ShardsDegraded int    `json:"shards_degraded"`
}

// HealthCtx polls every member's /healthz concurrently. ok is true
// only when every node answered and none is degraded.
func (r *Router) HealthCtx(ctx context.Context) (ok bool, nodes []NodeHealth) {
	nodes = make([]NodeHealth, len(r.members))
	var wg sync.WaitGroup
	for i, m := range r.members {
		wg.Add(1)
		go func(i int, m *member) {
			defer wg.Done()
			nodes[i] = m.health(ctx)
		}(i, m)
	}
	wg.Wait()
	ok = true
	for _, n := range nodes {
		if n.Status != "ok" {
			ok = false
		}
	}
	return ok, nodes
}

func (m *member) health(ctx context.Context) NodeHealth {
	out := NodeHealth{Node: m.name(), Status: "unreachable"}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, m.url+"/healthz", nil)
	if err != nil {
		return out
	}
	cl := m.client.HTTPClient
	if cl == nil {
		cl = http.DefaultClient
	}
	resp, err := cl.Do(req)
	if err != nil {
		return out
	}
	defer resp.Body.Close()
	var body struct {
		Status         string `json:"status"`
		ShardsOK       int    `json:"shards_ok"`
		ShardsDegraded int    `json:"shards_degraded"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		return out
	}
	out.Status = body.Status
	out.ShardsOK = body.ShardsOK
	out.ShardsDegraded = body.ShardsDegraded
	return out
}

// eachMember runs f concurrently for every member and joins errors.
func (r *Router) eachMember(ctx context.Context, f func(i int, m *member) error) error {
	errs := make([]error, len(r.members))
	var wg sync.WaitGroup
	for i, m := range r.members {
		wg.Add(1)
		go func(i int, m *member) {
			defer wg.Done()
			if err := f(i, m); err != nil {
				errs[i] = fmt.Errorf("node %s: %w", m.name(), err)
			}
		}(i, m)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// Obs exposes the router's metrics registry.
func (r *Router) Obs() *obs.Registry { return r.cfg.Obs }

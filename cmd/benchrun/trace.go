package main

import (
	"context"
	"net/http"
	"net/http/httptrace"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed interval at a layer boundary, in nanoseconds since
// the tracer's base. Spans of one operation form a tree through parent
// ids; roots (parent 0) are the workload's operations.
type span struct {
	id, parent int64
	name       string
	route      string // HTTP route, for client and handler spans
	start, end int64
}

// tracer keeps spans in memory until the run ends. A nil *tracer is
// the untraced run: every method is a no-op and ids are 0.
type tracer struct {
	base  time.Time
	next  atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{base: time.Now()} }

// at converts a wall time to the tracer's clock.
func (t *tracer) at(ts time.Time) int64 { return ts.Sub(t.base).Nanoseconds() }

// id reserves a span id before the span ends, so children can name
// their parent while it is still open.
func (t *tracer) id() int64 {
	if t == nil {
		return 0
	}
	return t.next.Add(1)
}

// record stores a finished span under a reserved id.
func (t *tracer) record(id, parent int64, name, route string, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{id: id, parent: parent, name: name, route: route,
		start: t.at(start), end: t.at(end)})
	t.mu.Unlock()
}

// add records a finished span under a fresh id.
func (t *tracer) add(parent int64, name string, start, end time.Time) {
	t.record(t.id(), parent, name, "", start, end)
}

// selfTimes returns, per span name, the summed self time — each span's
// duration minus the part of its interval covered by the union of its
// children — and the summed duration of the root spans. Self times of
// one operation's tree add up to its root's duration.
func selfTimes(spans []span) (self map[string]float64, rootNs float64) {
	kids := map[int64][]span{}
	for _, s := range spans {
		if s.parent != 0 {
			kids[s.parent] = append(kids[s.parent], s)
		}
	}
	self = map[string]float64{}
	for _, s := range spans {
		d := float64(s.end - s.start)
		if s.parent == 0 {
			rootNs += d
		}
		self[s.name] += d - float64(covered(s.start, s.end, kids[s.id]))
	}
	return self, rootNs
}

// covered is the length of [lo, hi) that the union of the children's
// intervals covers.
func covered(lo, hi int64, children []span) int64 {
	iv := make([][2]int64, 0, len(children))
	for _, c := range children {
		a, b := max(c.start, lo), min(c.end, hi)
		if a < b {
			iv = append(iv, [2]int64{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curA, curB int64
	open := false
	for _, x := range iv {
		if open && x[0] <= curB {
			curB = max(curB, x[1])
			continue
		}
		if open {
			total += curB - curA
		}
		curA, curB, open = x[0], x[1], true
	}
	if open {
		total += curB - curA
	}
	return total
}

// spanHeader carries the client span's id to the server middleware,
// which records the handler span as its child. Only traced requests
// carry it.
const spanHeader = "X-Benchrun-Span"

type parentKey struct{}

// withParent marks ctx's requests as traced under span id parent.
func withParent(ctx context.Context, parent int64) context.Context {
	if parent == 0 {
		return ctx
	}
	return context.WithValue(ctx, parentKey{}, parent)
}

// tracingTransport records the client side of each traced request: an
// "http.client" span from RoundTrip to the response headers, with an
// "http.conn_wait" child until a connection is acquired. The parent
// comes from the request context (market.Client passes the caller's
// ctx through) or, for report.HTTPSink whose requests carry no ctx,
// from the parent field its owning goroutine sets before each call.
type tracingTransport struct {
	tr     *tracer
	base   http.RoundTripper
	parent int64 // owner goroutine only
}

func (t *tracingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	parent, _ := req.Context().Value(parentKey{}).(int64)
	if parent == 0 {
		parent = t.parent
	}
	if t.tr == nil || parent == 0 {
		return t.base.RoundTrip(req)
	}
	id := t.tr.id()
	start := time.Now()
	var gotNs atomic.Int64 // GotConn may run on a transport goroutine
	ctx := httptrace.WithClientTrace(req.Context(), &httptrace.ClientTrace{
		GotConn: func(httptrace.GotConnInfo) { gotNs.Store(int64(time.Since(start))) },
	})
	req = req.Clone(ctx)
	req.Header.Set(spanHeader, strconv.FormatInt(id, 10))
	resp, err := t.base.RoundTrip(req)
	end := time.Now()
	if ns := gotNs.Load(); ns > 0 {
		t.tr.add(id, "http.conn_wait", start, start.Add(time.Duration(ns)))
	}
	t.tr.record(id, parent, "http.client", routeOf(req), start, end)
	return resp, err
}

// traceHandler wraps the market handler: a request carrying spanHeader
// gets a "market.handler" span under the client span that sent it.
func traceHandler(tr *tracer, h http.Handler) http.Handler {
	if tr == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		parent, err := strconv.ParseInt(r.Header.Get(spanHeader), 10, 64)
		if err != nil {
			h.ServeHTTP(w, r)
			return
		}
		start := time.Now()
		h.ServeHTTP(w, r)
		tr.record(tr.id(), parent, "market.handler", routeOf(r), start, time.Now())
	})
}

// routeOf names a marketd request by its API resource.
func routeOf(r *http.Request) string {
	p := r.URL.Path
	switch {
	case p == "/v1/reports":
		return "reports"
	case strings.HasSuffix(p, "/verdict"):
		return "verdict"
	case strings.HasSuffix(p, "/similar"):
		return "similar"
	case strings.HasSuffix(p, "/timeline"):
		return "timeline"
	case strings.HasSuffix(p, "/fingerprint"):
		return "fingerprint"
	}
	return "other"
}

// serverShares returns, per route, the median handler span time as a
// percentage of the median client span time of the same requests.
func serverShares(spans []span) map[string]float64 {
	clients := map[int64]span{}
	for _, s := range spans {
		if s.name == "http.client" {
			clients[s.id] = s
		}
	}
	cl, sv := map[string][]float64{}, map[string][]float64{}
	for _, s := range spans {
		if s.name != "market.handler" {
			continue
		}
		c, ok := clients[s.parent]
		if !ok {
			continue
		}
		cl[c.route] = append(cl[c.route], float64(c.end-c.start))
		sv[c.route] = append(sv[c.route], float64(s.end-s.start))
	}
	out := map[string]float64{}
	for r := range cl {
		out[r] = 100 * percentile(sv[r], 0.5) / percentile(cl[r], 0.5)
	}
	return out
}

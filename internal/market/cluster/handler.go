package cluster

import (
	"encoding/json"
	"errors"
	"net/http"
	"strconv"
	"time"

	"bombdroid/internal/market"
	"bombdroid/internal/obs"
)

// maxRouterEvents bounds one POST body at the router front. The
// router cannot know each node's queue capacity at handler-build
// time, so it uses the wire ceiling; a share that overflows a node's
// queues still gets that node's own 413/429 answer through the
// fan-out.
const maxRouterEvents = 65536

// NewHandler wires a Router into the same HTTP surface a single
// marketd node serves, so clients — report.HTTPSink included — cannot
// tell a cluster from a node:
//
//	POST /v1/reports             — routed fan-out; the 200 body is the
//	                               cluster Ack (accepted/duplicates
//	                               plus per-node accounting); 429/503
//	                               surface when a node's share stayed
//	                               rejected through the router's
//	                               retries, 502 when a member refused
//	                               its share as misrouted (membership
//	                               drift — an operator problem)
//	GET  /v1/apps/{app}/verdict  — federated fused Verdict
//	                               (?channel=reports for the tally
//	                               channel alone)
//	GET  /v1/apps/{app}/timeline — federated Timeline
//	POST /v1/apps/{app}/fingerprint — routed to the app's owning node
//	GET  /v1/apps/{app}/fingerprint — fetched from the owning node
//	GET  /v1/apps/{app}/similar  — federated near-duplicate query
//	                               (probe + document-frequency rounds
//	                               across all members)
//	GET  /v1/node                — the cluster described as one
//	                               logical full-range node
//	GET  /healthz                — aggregate health with per-node rows
//	GET  /metrics, /metrics.json — the router's registry
//
// An incoming obs.TraceHeader is propagated through the fan-out hop
// to the owning nodes, and the router answers with its own
// obs.ServerTimingHeader — receive → all-nodes-acked microseconds —
// so a traced report's latency breakdown gains the router leg.
func NewHandler(r *Router) http.Handler {
	mux := http.NewServeMux()
	reqs := r.Obs().Counter("cluster_http_requests_total")
	fallbacks := r.Obs().Counter("cluster_ingest_decode_fallback_total")

	mux.HandleFunc("POST /v1/reports", func(w http.ResponseWriter, req *http.Request) {
		reqs.Inc()
		recv := time.Now()
		traceID := ""
		if h := req.Header.Get(obs.TraceHeader); h != "" {
			if _, err := obs.ParseTraceID(h); err == nil {
				traceID = h
			}
		}
		evs, ok := market.ReadReports(w, req, maxRouterEvents, fallbacks)
		if !ok {
			return
		}
		ack, err := r.PostTracedCtx(req.Context(), evs, traceID)
		if err != nil {
			writeRoutedError(w, err)
			return
		}
		if traceID != "" {
			w.Header().Set(obs.ServerTimingHeader, strconv.FormatInt(time.Since(recv).Microseconds(), 10))
		}
		w.Header().Set("Content-Type", "application/json")
		b, _ := json.Marshal(ack)
		w.Write(append(b, '\n'))
	})

	mux.HandleFunc("GET /v1/apps/{app}/verdict", func(w http.ResponseWriter, req *http.Request) {
		reqs.Inc()
		var v any
		var err error
		if req.URL.Query().Get("channel") == "reports" {
			v, err = r.reportsCtx(req.Context(), req.PathValue("app"))
		} else {
			v, err = r.VerdictCtx(req.Context(), req.PathValue("app"))
		}
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadGateway)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		b, _ := json.Marshal(v)
		w.Write(append(b, '\n'))
	})

	mux.HandleFunc("POST /v1/apps/{app}/fingerprint", func(w http.ResponseWriter, req *http.Request) {
		reqs.Inc()
		var fp market.Fingerprint
		body := http.MaxBytesReader(w, req.Body, maxRouterEvents)
		if err := json.NewDecoder(body).Decode(&fp); err != nil {
			http.Error(w, "bad fingerprint body: "+err.Error(), http.StatusBadRequest)
			return
		}
		fp.App = req.PathValue("app")
		ack, err := r.PutFingerprintCtx(req.Context(), fp)
		if err != nil {
			writeRoutedError(w, err)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		b, _ := json.Marshal(ack)
		w.Write(append(b, '\n'))
	})

	mux.HandleFunc("GET /v1/apps/{app}/fingerprint", func(w http.ResponseWriter, req *http.Request) {
		reqs.Inc()
		fp, err := r.FingerprintCtx(req.Context(), req.PathValue("app"))
		if err != nil {
			if errors.Is(err, market.ErrNoFingerprint) {
				http.Error(w, err.Error(), http.StatusNotFound)
				return
			}
			http.Error(w, err.Error(), http.StatusBadGateway)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		b, _ := json.Marshal(fp)
		w.Write(append(b, '\n'))
	})

	mux.HandleFunc("GET /v1/apps/{app}/similar", func(w http.ResponseWriter, req *http.Request) {
		reqs.Inc()
		sim, err := r.SimilarCtx(req.Context(), req.PathValue("app"))
		if err != nil {
			if errors.Is(err, market.ErrNoFingerprint) {
				http.Error(w, err.Error(), http.StatusNotFound)
				return
			}
			http.Error(w, err.Error(), http.StatusBadGateway)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		b, _ := json.Marshal(sim)
		w.Write(append(b, '\n'))
	})

	mux.HandleFunc("GET /v1/apps/{app}/timeline", func(w http.ResponseWriter, req *http.Request) {
		reqs.Inc()
		tl, err := r.TimelineCtx(req.Context(), req.PathValue("app"))
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadGateway)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		b, _ := json.Marshal(tl)
		w.Write(append(b, '\n'))
	})

	mux.HandleFunc("GET /v1/node", func(w http.ResponseWriter, _ *http.Request) {
		reqs.Inc()
		w.Header().Set("Content-Type", "application/json")
		b, _ := json.Marshal(r.Desc())
		w.Write(append(b, '\n'))
	})

	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, req *http.Request) {
		reqs.Inc()
		ok, nodes := r.HealthCtx(req.Context())
		status := "ok"
		code := http.StatusOK
		if !ok {
			status = "degraded"
			code = http.StatusServiceUnavailable
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(code)
		b, _ := json.Marshal(struct {
			Status string       `json:"status"`
			Nodes  []NodeHealth `json:"nodes"`
		}{status, nodes})
		w.Write(append(b, '\n'))
	})
	obs.RegisterMetricsHandlers(mux, r.Obs())
	return mux
}

// writeRoutedError answers a failed routed write (a report batch or a
// fingerprint) with the status its cause calls for.
func writeRoutedError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, market.ErrNotOwner):
		// A member rejected its share: the routing table and the node's
		// pinned range disagree. Retrying through this router cannot
		// help until an operator fixes membership, so it is a 502 even
		// when another member's share of the same fan-out was only
		// throttled.
		http.Error(w, err.Error(), http.StatusBadGateway)
	case errors.Is(err, market.ErrBackpressure):
		w.Header().Set("Retry-After", "1")
		http.Error(w, err.Error(), http.StatusTooManyRequests)
	case errors.Is(err, market.ErrDegraded):
		w.Header().Set("Retry-After", "2")
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
	case errors.Is(err, market.ErrBatchTooLarge), errors.Is(err, market.ErrEventTooLarge),
		errors.Is(err, market.ErrFingerprintTooLarge):
		http.Error(w, err.Error(), http.StatusRequestEntityTooLarge)
	default:
		http.Error(w, err.Error(), http.StatusBadGateway)
	}
}

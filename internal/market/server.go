package market

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"

	"bombdroid/internal/obs"
	"bombdroid/internal/report"
)

// maxRequestEvents bounds one POST /v1/reports body. Clients batching
// harder than this get a 413 and should split; it keeps a single
// request from monopolizing every shard queue. The effective per-
// request bound is the smaller of this and the store's total queue
// capacity (QueueCap × Shards) — a batch past the latter cannot fit
// even into idle queues, so a 429 there would never clear.
const maxRequestEvents = 65536

// maxRequestBytes caps a request body, both as sent and after gzip
// inflation, so a runaway stream cannot balloon the JSON decoder; at
// typical event sizes it is far above what maxRequestEvents events
// occupy.
const maxRequestBytes = 64 << 20

// NewHandler wires a Store into marketd's HTTP surface:
//
//	POST /v1/reports             — newline-delimited JSON Events
//	                               (Content-Encoding: gzip honored);
//	                               200 {"accepted":n,"duplicates":d},
//	                               429 + Retry-After on backpressure
//	                               (transient — retry), 503 +
//	                               Retry-After when a target shard is
//	                               degraded (disk trouble — retry,
//	                               alert), 413 on a batch or event that
//	                               could never be admitted (permanent —
//	                               split it), 421 on a batch whose keys
//	                               this node does not own (permanent —
//	                               re-route to the owning node)
//	GET  /v1/apps/{app}/verdict  — the app's fused multi-channel
//	                               Verdict as JSON; ?channel=reports
//	                               serves just the ReportsChannel (the
//	                               federation building block)
//	GET  /v1/apps/{app}/timeline — the app's verdict Timeline as JSON
//	                               (first report → tally climbs →
//	                               threshold crossing, in event time);
//	                               ?raw=1 serves the mergeable per-shard
//	                               TimelineParts federation consumes
//	POST /v1/apps/{app}/fingerprint — the app's resource fingerprint
//	                               (JSON {"digests":[...]}); 200 with a
//	                               FingerprintAck after the WAL flush,
//	                               413 past MaxFingerprintEntries, plus
//	                               the ingest error contract (429/503/
//	                               421)
//	GET  /v1/apps/{app}/fingerprint — the stored Fingerprint; 404 when
//	                               the app never uploaded one
//	GET  /v1/apps/{app}/similar  — the app's Similar top-K neighbors;
//	                               404 without a fingerprint
//	POST /v1/similarity/probe    — federation: local candidates for a
//	                               digest set (ProbeRequest/Response)
//	POST /v1/similarity/df       — federation: local document
//	                               frequencies (DFRequest/Response)
//	GET  /v1/node                — the node's cluster NodeDesc (id,
//	                               slots, owned shard range, merge knobs)
//	GET  /healthz                — per-shard health as JSON; 503 once
//	                               any shard is degraded
//	GET  /metrics, /metrics.json — the store's registry
//
// The ingestion wire format is the same Event JSON the device-side
// report.HTTPSink emits, so a pipeline pointed at marketd needs no
// adapter. A POST carrying obs.TraceHeader is the server end of a
// report trace: the daemon answers with obs.ServerTimingHeader — its
// receive→post-WAL-flush-ack wall time in microseconds — closing the
// market leg of the per-report latency breakdown, and records the
// same quantity into the (volatile) market_server_ack_us histogram.
// The decode layer inside that leg has its own series: the wall time
// of ReadReports in the volatile market_ingest_decode_us histogram,
// and the bodies that left its canonical fast path in
// market_ingest_decode_fallback_total.
func NewHandler(st *Store) http.Handler {
	mux := http.NewServeMux()
	reqs := st.Obs().Counter("market_http_requests_total")
	traced := st.Obs().Counter("market_traced_requests_total")
	hAckUs := st.Obs().Histogram("market_server_ack_us", obs.ExpBuckets(50, 4, 12), obs.Volatile())
	hDecodeUs := st.Obs().Histogram("market_ingest_decode_us", obs.ExpBuckets(50, 4, 12), obs.Volatile())
	fallbacks := st.Obs().Counter("market_ingest_decode_fallback_total")
	maxEvents := maxRequestEvents
	if c := st.cfg.QueueCap * st.cfg.Shards; c < maxEvents {
		maxEvents = c
	}

	mux.HandleFunc("POST /v1/reports", func(w http.ResponseWriter, r *http.Request) {
		reqs.Inc()
		recv := time.Now()
		isTraced := false
		if h := r.Header.Get(obs.TraceHeader); h != "" {
			if _, err := obs.ParseTraceID(h); err == nil {
				isTraced = true
				traced.Inc()
			}
		}
		decodeStart := time.Now()
		evs, ok := ReadReports(w, r, maxEvents, fallbacks)
		hDecodeUs.Observe(time.Since(decodeStart).Microseconds())
		if !ok {
			return
		}
		accepted, dups, err := st.Ingest(evs)
		if !WriteIngestError(w, err) {
			return
		}
		// The ack is post-WAL-flush (Ingest returned), so this duration
		// covers shard queueing plus the group-commit flush — the
		// market-side leg of the report's latency breakdown.
		ackUs := time.Since(recv).Microseconds()
		hAckUs.Observe(ackUs)
		if isTraced {
			w.Header().Set(obs.ServerTimingHeader, strconv.FormatInt(ackUs, 10))
		}
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintf(w, "{\"accepted\":%d,\"duplicates\":%d}\n", accepted, dups)
	})

	mux.HandleFunc("GET /v1/apps/{app}/verdict", func(w http.ResponseWriter, r *http.Request) {
		reqs.Inc()
		w.Header().Set("Content-Type", "application/json")
		// ?channel=reports serves the reports channel alone — the
		// summable per-node piece the cluster router federates (the
		// fused verdict is computed once, at the merge point).
		if r.URL.Query().Get("channel") == "reports" {
			b, _ := json.Marshal(st.reportsChannel(r.PathValue("app")))
			w.Write(append(b, '\n'))
			return
		}
		b, _ := json.Marshal(st.Verdict(r.PathValue("app")))
		w.Write(append(b, '\n'))
	})

	mux.HandleFunc("POST /v1/apps/{app}/fingerprint", func(w http.ResponseWriter, r *http.Request) {
		reqs.Inc()
		var fp Fingerprint
		if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBytes)).Decode(&fp); err != nil {
			http.Error(w, fmt.Sprintf("bad fingerprint body: %v", err), http.StatusBadRequest)
			return
		}
		fp.App = r.PathValue("app")
		ack, err := st.PutFingerprint(fp)
		if !WriteIngestError(w, err) {
			return
		}
		w.Header().Set("Content-Type", "application/json")
		b, _ := json.Marshal(ack)
		w.Write(append(b, '\n'))
	})

	mux.HandleFunc("GET /v1/apps/{app}/fingerprint", func(w http.ResponseWriter, r *http.Request) {
		reqs.Inc()
		fp, err := st.Fingerprint(r.PathValue("app"))
		if err != nil {
			http.Error(w, err.Error(), http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		b, _ := json.Marshal(fp)
		w.Write(append(b, '\n'))
	})

	mux.HandleFunc("GET /v1/apps/{app}/similar", func(w http.ResponseWriter, r *http.Request) {
		reqs.Inc()
		sim, err := st.Similar(r.PathValue("app"))
		if err != nil {
			http.Error(w, err.Error(), http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		b, _ := json.Marshal(sim)
		w.Write(append(b, '\n'))
	})

	mux.HandleFunc("POST /v1/similarity/probe", func(w http.ResponseWriter, r *http.Request) {
		reqs.Inc()
		var req ProbeRequest
		if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBytes)).Decode(&req); err != nil {
			http.Error(w, fmt.Sprintf("bad probe body: %v", err), http.StatusBadRequest)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		b, _ := json.Marshal(st.Probe(req))
		w.Write(append(b, '\n'))
	})

	mux.HandleFunc("POST /v1/similarity/df", func(w http.ResponseWriter, r *http.Request) {
		reqs.Inc()
		var req DFRequest
		if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBytes)).Decode(&req); err != nil {
			http.Error(w, fmt.Sprintf("bad df body: %v", err), http.StatusBadRequest)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		b, _ := json.Marshal(st.DFQuery(req))
		w.Write(append(b, '\n'))
	})

	mux.HandleFunc("GET /v1/apps/{app}/timeline", func(w http.ResponseWriter, r *http.Request) {
		reqs.Inc()
		w.Header().Set("Content-Type", "application/json")
		// ?raw=1 serves the mergeable per-shard parts (entries with tie
		// hashes + evicted counts) instead of the rendered timeline —
		// the form the cluster router federates across nodes.
		if r.URL.Query().Get("raw") == "1" {
			b, _ := json.Marshal(st.TimelineParts(r.PathValue("app")))
			w.Write(append(b, '\n'))
			return
		}
		b, _ := json.Marshal(st.Timeline(r.PathValue("app")))
		w.Write(append(b, '\n'))
	})

	mux.HandleFunc("GET /v1/node", func(w http.ResponseWriter, _ *http.Request) {
		reqs.Inc()
		w.Header().Set("Content-Type", "application/json")
		b, _ := json.Marshal(st.NodeDesc())
		w.Write(append(b, '\n'))
	})

	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		// Per-shard state, not a blanket 200: an orchestrator must see
		// partial failure (some shards degraded → 503 + the counts)
		// while the daemon keeps serving the healthy shards.
		ok, degraded := st.Health()
		status := "ok"
		code := http.StatusOK
		if degraded > 0 {
			status = "degraded"
			code = http.StatusServiceUnavailable
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(code)
		fmt.Fprintf(w, "{\"status\":%q,\"shards_ok\":%d,\"shards_degraded\":%d}\n", status, ok, degraded)
	})

	obs.RegisterMetricsHandlers(mux, st.Obs())
	return mux
}

// ReadReports decodes a POST /v1/reports body — newline-delimited
// Event JSON, Content-Encoding: gzip honored — enforcing the wire
// bounds (maxRequestBytes total, before and after inflation,
// MaxEventBytes per event, maxEvents per batch, app/bomb/user
// present). On any violation it writes the error response itself and
// reports ok=false. Shared by the node handler above and the cluster
// router's HTTP front, so both speak byte-identical request contracts.
//
// Events in the canonical form report.Event.AppendJSON writes are
// parsed by report.ParseCanonical straight from a small pooled
// buffer. At the first byte outside that form, the unparsed bytes and
// the rest of the body go to encoding/json, which decodes everything
// the wire contract accepts and words every error; fallbacks counts
// those bodies. Body offsets carry across the switch, so the bounds,
// status codes and error texts do not depend on which decoder ran.
func ReadReports(w http.ResponseWriter, r *http.Request, maxEvents int, fallbacks *obs.Counter) ([]report.Event, bool) {
	body := io.Reader(http.MaxBytesReader(w, r.Body, maxRequestBytes))
	if r.Header.Get("Content-Encoding") == "gzip" {
		zr, err := gzip.NewReader(body)
		if err != nil {
			http.Error(w, "bad gzip body", http.StatusBadRequest)
			return nil, false
		}
		defer zr.Close()
		// A small body can inflate without limit; bound what the
		// decoders see, not only what crossed the wire.
		body = http.MaxBytesReader(w, zr, maxRequestBytes)
	}
	rb := reportBatch{w: w, maxEvents: maxEvents}
	// *bufp stays the pooled array even when buf outgrows it, and no
	// event keeps a reference into it (ParseCanonical and
	// encoding/json copy), so it always goes back.
	bufp := readBufPool.Get().(*[]byte)
	defer readBufPool.Put(bufp)
	buf := *bufp
	var base int64 // body offset of buf[0]
	start, end := 0, 0
	var rerr error
	for {
		ev, n, short := report.ParseCanonical(buf[start:end])
		if n > 0 {
			start += n
			if !rb.add(ev, base+int64(start)) {
				return nil, false
			}
			continue
		}
		if !short {
			break
		}
		// Whitespace between events is not held in buf; the offsets
		// still count it.
		for start < end && isSpace(buf[start]) {
			start++
		}
		if rerr == io.EOF && start == end {
			return rb.evs, true
		}
		if rerr != nil || end-start >= MaxEventBytes {
			// A read error, a truncated event, or an event already past
			// the per-event bound: encoding/json words the outcome.
			break
		}
		if start > 0 {
			copy(buf, buf[start:end])
			base += int64(start)
			end -= start
			start = 0
		}
		if end == len(buf) {
			buf = append(buf, make([]byte, len(buf))...)
		}
		// Fill buf before parsing again: an event arriving in many
		// small reads is then re-scanned O(log size) times, not once
		// per read.
		for end < len(buf) && rerr == nil {
			var m int
			m, rerr = body.Read(buf[end:])
			end += m
		}
	}

	fallbacks.Inc()
	rest := body
	if rerr != nil {
		rest = errReader{rerr}
	}
	base += int64(start)
	dec := json.NewDecoder(io.MultiReader(bytes.NewReader(buf[start:end]), rest))
	for {
		var ev report.Event
		if err := dec.Decode(&ev); err == io.EOF {
			break
		} else if err != nil {
			code := http.StatusBadRequest
			var mbe *http.MaxBytesError
			if errors.As(err, &mbe) {
				code = http.StatusRequestEntityTooLarge
			}
			http.Error(w, fmt.Sprintf("bad event at index %d: %v", len(rb.evs), err), code)
			return nil, false
		}
		if !rb.add(ev, base+dec.InputOffset()) {
			return nil, false
		}
	}
	return rb.evs, true
}

// readBufSize is the pooled read buffer: a few events at typical
// sizes. A body with a longer event grows a private copy.
const readBufSize = 4 << 10

var readBufPool = sync.Pool{New: func() any {
	b := make([]byte, readBufSize)
	return &b
}}

// reportBatch accumulates one body's events under the per-event wire
// checks.
type reportBatch struct {
	w         http.ResponseWriter
	maxEvents int
	evs       []report.Event
	prevOff   int64
}

// add checks ev, whose JSON ends at body offset off, and appends it.
// On a violation it writes the error response and returns false.
func (b *reportBatch) add(ev report.Event, off int64) bool {
	// Per-event wire bound: an event whose raw JSON alone is past
	// MaxEventBytes can never be stored (the commit path re-checks the
	// encoded size, which escaping can inflate).
	if off-b.prevOff > MaxEventBytes {
		http.Error(b.w, fmt.Sprintf("event at index %d exceeds %d bytes", len(b.evs), MaxEventBytes),
			http.StatusRequestEntityTooLarge)
		return false
	}
	b.prevOff = off
	if ev.App == "" || ev.Bomb == "" || ev.User == "" {
		http.Error(b.w, fmt.Sprintf("event at index %d missing app/bomb/user", len(b.evs)), http.StatusBadRequest)
		return false
	}
	b.evs = append(b.evs, ev)
	if len(b.evs) > b.maxEvents {
		http.Error(b.w, fmt.Sprintf("batch exceeds %d events, split it", b.maxEvents), http.StatusRequestEntityTooLarge)
		return false
	}
	return true
}

func isSpace(c byte) bool { return c == ' ' || c == '\n' || c == '\r' || c == '\t' }

// errReader replays a read error the fast path already consumed.
type errReader struct{ err error }

func (e errReader) Read([]byte) (int, error) { return 0, e.err }

// WriteIngestError maps a Store.Ingest error onto the HTTP contract:
// 429 + Retry-After for backpressure, 503 + Retry-After for degraded
// (disk trouble, not load — retryable once an operator intervenes),
// 413 for a batch or event that could never be admitted, 421 for a
// misrouted batch (this node does not own the keys — permanent here,
// the caller must re-route), 500 otherwise. Returns true when err was
// nil and the caller should write its success body.
func WriteIngestError(w http.ResponseWriter, err error) bool {
	switch {
	case err == nil:
		return true
	case errors.Is(err, ErrBackpressure):
		w.Header().Set("Retry-After", "1")
		http.Error(w, err.Error(), http.StatusTooManyRequests)
	case errors.Is(err, ErrDegraded):
		w.Header().Set("Retry-After", "2")
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
	case errors.Is(err, ErrBatchTooLarge), errors.Is(err, ErrEventTooLarge),
		errors.Is(err, ErrFingerprintTooLarge):
		http.Error(w, err.Error(), http.StatusRequestEntityTooLarge)
	case errors.Is(err, ErrNotOwner):
		http.Error(w, err.Error(), http.StatusMisdirectedRequest)
	default:
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
	return false
}

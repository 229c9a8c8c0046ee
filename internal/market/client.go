package market

import (
	"bytes"
	"compress/gzip"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync/atomic"

	"bombdroid/internal/obs"
	"bombdroid/internal/report"
)

// Client speaks marketd's v1 API. cmd/loadgen uses it for the
// fire-hose and fingerprint paths, the cluster router uses one per
// node for its fan-out and federation rounds, and it is the reference
// for anyone pointing a real device fleet at the daemon. Pointed at a
// router instead of a node it works unchanged — the router serves the
// same surface.
//
// The API is grouped by resource, every method ctx-first:
//
//	c.Reports().Post(ctx, evs)        POST /v1/reports
//	c.Verdicts().Get(ctx, app)        GET  /v1/apps/{app}/verdict
//	c.Timelines().Get(ctx, app)       GET  /v1/apps/{app}/timeline
//	c.Fingerprints().Put(ctx, fp)     POST /v1/apps/{app}/fingerprint
//	c.Fingerprints().Similar(ctx, a)  GET  /v1/apps/{app}/similar
//	c.Node().Get(ctx)                 GET  /v1/node
//
// The groups are free to construct (a one-pointer wrapper); all
// transport state lives on the Client.
type Client struct {
	// BaseURL is the daemon root, e.g. "http://127.0.0.1:8844".
	BaseURL string
	// HTTPClient defaults to http.DefaultClient.
	HTTPClient *http.Client
	// Gzip compresses report-batch request bodies (Content-Encoding:
	// gzip).
	Gzip bool
	// Trace stamps each report POST with an obs.TraceHeader (a
	// synthetic per-batch id), which makes the daemon answer with its
	// receive→post-WAL-flush-ack time in obs.ServerTimingHeader; the
	// most recent reading is available from ServerUs. Device-side
	// pipelines propagate real per-report trace ids through
	// report.HTTPSink instead — this is the batch-level equivalent for
	// load tools and benchmarks. An explicit id passed to PostTraced
	// wins over the synthetic one.
	Trace bool
	// Retry, when set, runs Reports().Post and Fingerprints().Put
	// through the shared RetryPolicy so 429/503 answers are absorbed
	// inside the call. Nil posts once and surfaces ErrBackpressure/
	// ErrDegraded to the caller (whose own loop — loadgen's workers,
	// the router's fan-out — typically runs the same policy with
	// visible stats).
	Retry *RetryPolicy

	traceSeq int64 // batch counter behind synthetic trace ids
	serverUs int64 // last obs.ServerTimingHeader reading
}

// ServerUs returns the daemon's most recent receive→flush-ack timing
// (µs), 0 before any traced POST completed.
func (c *Client) ServerUs() int64 { return atomic.LoadInt64(&c.serverUs) }

func (c *Client) client() *http.Client {
	if c.HTTPClient != nil {
		return c.HTTPClient
	}
	return http.DefaultClient
}

// PostResult is the daemon's ack for one report batch.
type PostResult struct {
	Accepted   int `json:"accepted"`
	Duplicates int `json:"duplicates"`
}

// ReportsAPI groups the report-ingestion endpoints.
type ReportsAPI struct{ c *Client }

// Reports accesses the report-ingestion endpoints.
func (c *Client) Reports() ReportsAPI { return ReportsAPI{c} }

// Post sends one batch of events to POST /v1/reports. A 429 surfaces
// as ErrBackpressure, a 503 as ErrDegraded, and a 421 as ErrNotOwner
// (the batch reached a node that does not own its keys), so callers
// can share the store's retry logic. With c.Retry set the transient
// pair is retried in place.
func (a ReportsAPI) Post(ctx context.Context, evs []report.Event) (PostResult, error) {
	if a.c.Retry != nil {
		var res PostResult
		_, err := a.c.Retry.Do(ctx, func(ctx context.Context) error {
			var err error
			res, err = a.c.post(ctx, evs, "")
			return err
		})
		return res, err
	}
	return a.c.post(ctx, evs, "")
}

// PostTraced is Post with an explicit trace id on the wire — the
// router uses it to propagate a device report's obs.TraceHeader
// through the fan-out hop instead of minting a synthetic batch id.
func (a ReportsAPI) PostTraced(ctx context.Context, evs []report.Event, traceID string) (PostResult, error) {
	return a.c.post(ctx, evs, traceID)
}

func (c *Client) post(ctx context.Context, evs []report.Event, traceID string) (PostResult, error) {
	var body []byte
	for _, ev := range evs {
		body = append(ev.AppendJSON(body), '\n')
	}
	if c.Gzip {
		var zbuf bytes.Buffer
		zw := gzip.NewWriter(&zbuf)
		if _, err := zw.Write(body); err != nil {
			return PostResult{}, err
		}
		if err := zw.Close(); err != nil {
			return PostResult{}, err
		}
		body = zbuf.Bytes()
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.BaseURL+"/v1/reports", bytes.NewReader(body))
	if err != nil {
		return PostResult{}, err
	}
	req.Header.Set("Content-Type", "application/x-ndjson")
	if c.Gzip {
		req.Header.Set("Content-Encoding", "gzip")
	}
	if traceID == "" && c.Trace {
		seq := atomic.AddInt64(&c.traceSeq, 1)
		traceID = obs.TraceID{0x6c6f6164, uint64(seq)}.String()
	}
	if traceID != "" {
		req.Header.Set(obs.TraceHeader, traceID)
	}
	resp, err := c.client().Do(req)
	if err != nil {
		return PostResult{}, err
	}
	defer resp.Body.Close()
	if traceID != "" {
		if us, err := strconv.ParseInt(resp.Header.Get(obs.ServerTimingHeader), 10, 64); err == nil {
			atomic.StoreInt64(&c.serverUs, us)
		}
	}
	if err := statusErr(resp, "POST /v1/reports"); err != nil {
		return PostResult{}, err
	}
	var res PostResult
	if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
		return PostResult{}, err
	}
	return res, nil
}

// statusErr maps a non-200 response onto the shared error vocabulary:
// 429 → ErrBackpressure and 503 → ErrDegraded (so client-side retry
// logic matches the store's), 421 → ErrNotOwner. Anything else keeps
// the status and a body excerpt. The body is consumed on error.
func statusErr(resp *http.Response, what string) error {
	switch resp.StatusCode {
	case http.StatusOK:
		return nil
	case http.StatusTooManyRequests:
		io.Copy(io.Discard, resp.Body)
		return ErrBackpressure
	case http.StatusServiceUnavailable:
		io.Copy(io.Discard, resp.Body)
		return ErrDegraded
	case http.StatusMisdirectedRequest:
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("%w (%s)", ErrNotOwner, bytes.TrimSpace(body))
	default:
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("market: %s: %s: %s", what, resp.Status, bytes.TrimSpace(body))
	}
}

// getJSON fetches path and decodes the 200 body into out. A 404 maps
// to notFound when the caller supplies one (resources that can
// legitimately be absent, like fingerprints).
func (c *Client) getJSON(ctx context.Context, path, what string, notFound error, out any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.BaseURL+path, nil)
	if err != nil {
		return err
	}
	resp, err := c.client().Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusNotFound && notFound != nil {
		io.Copy(io.Discard, resp.Body)
		return fmt.Errorf("%w: GET %s", notFound, what)
	}
	if err := statusErr(resp, "GET "+what); err != nil {
		return err
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// postJSON sends in as a JSON body and decodes the 200 answer into
// out, with the same status mapping as statusErr. A 413 maps to
// tooLarge when the caller supplies one (permanent size refusals the
// caller must not retry verbatim).
func (c *Client) postJSON(ctx context.Context, path, what string, tooLarge error, in, out any) error {
	b, err := json.Marshal(in)
	if err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.BaseURL+path, bytes.NewReader(b))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.client().Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusRequestEntityTooLarge && tooLarge != nil {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("%w: POST %s: %s", tooLarge, what, bytes.TrimSpace(body))
	}
	if err := statusErr(resp, "POST "+what); err != nil {
		return err
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// VerdictsAPI groups the verdict read endpoints.
type VerdictsAPI struct{ c *Client }

// Verdicts accesses the verdict read endpoints.
func (c *Client) Verdicts() VerdictsAPI { return VerdictsAPI{c} }

// Get fetches the app's fused multi-channel Verdict.
func (a VerdictsAPI) Get(ctx context.Context, app string) (Verdict, error) {
	var v Verdict
	err := a.c.getJSON(ctx, "/v1/apps/"+app+"/verdict", "verdict", nil, &v)
	return v, err
}

// Reports fetches just the app's reports channel
// (?channel=reports) — the summable per-node piece federation
// consumes.
func (a VerdictsAPI) Reports(ctx context.Context, app string) (ReportsChannel, error) {
	var ch ReportsChannel
	err := a.c.getJSON(ctx, "/v1/apps/"+app+"/verdict?channel=reports", "verdict?channel=reports", nil, &ch)
	return ch, err
}

// TimelinesAPI groups the timeline read endpoints.
type TimelinesAPI struct{ c *Client }

// Timelines accesses the timeline read endpoints.
func (c *Client) Timelines() TimelinesAPI { return TimelinesAPI{c} }

// Get fetches the app's rendered verdict Timeline.
func (a TimelinesAPI) Get(ctx context.Context, app string) (Timeline, error) {
	var tl Timeline
	err := a.c.getJSON(ctx, "/v1/apps/"+app+"/timeline", "timeline", nil, &tl)
	return tl, err
}

// Raw fetches the node's per-shard timeline parts (?raw=1), the
// mergeable form federation ships instead of the rendered timeline
// (whose entries lack the tie hashes an exact cross-node merge
// needs).
func (a TimelinesAPI) Raw(ctx context.Context, app string) (RawTimeline, error) {
	var raw RawTimeline
	err := a.c.getJSON(ctx, "/v1/apps/"+app+"/timeline?raw=1", "timeline?raw=1", nil, &raw)
	return raw, err
}

// FingerprintsAPI groups the resource-fingerprint endpoints.
type FingerprintsAPI struct{ c *Client }

// Fingerprints accesses the resource-fingerprint endpoints.
func (c *Client) Fingerprints() FingerprintsAPI { return FingerprintsAPI{c} }

// Put uploads fp.App's fingerprint. The ack arrives after the
// record's WAL flush (Updated false when the stored set was already
// identical). With c.Retry set, 429/503 answers are retried in place.
func (a FingerprintsAPI) Put(ctx context.Context, fp Fingerprint) (FingerprintAck, error) {
	put := func(ctx context.Context) (FingerprintAck, error) {
		var ack FingerprintAck
		err := a.c.postJSON(ctx, "/v1/apps/"+fp.App+"/fingerprint", "fingerprint", ErrFingerprintTooLarge, fp, &ack)
		return ack, err
	}
	if a.c.Retry != nil {
		var ack FingerprintAck
		_, err := a.c.Retry.Do(ctx, func(ctx context.Context) error {
			var err error
			ack, err = put(ctx)
			return err
		})
		return ack, err
	}
	return put(ctx)
}

// Get fetches the app's stored Fingerprint; ErrNoFingerprint when the
// app never uploaded one.
func (a FingerprintsAPI) Get(ctx context.Context, app string) (Fingerprint, error) {
	var fp Fingerprint
	err := a.c.getJSON(ctx, "/v1/apps/"+app+"/fingerprint", "fingerprint", ErrNoFingerprint, &fp)
	return fp, err
}

// Similar fetches the app's top-K near-duplicate neighbors;
// ErrNoFingerprint when the app never uploaded one.
func (a FingerprintsAPI) Similar(ctx context.Context, app string) (Similar, error) {
	var sim Similar
	err := a.c.getJSON(ctx, "/v1/apps/"+app+"/similar", "similar", ErrNoFingerprint, &sim)
	return sim, err
}

// Probe runs the federation candidate round against one node.
func (a FingerprintsAPI) Probe(ctx context.Context, req ProbeRequest) (ProbeResponse, error) {
	var resp ProbeResponse
	err := a.c.postJSON(ctx, "/v1/similarity/probe", "similarity/probe", nil, req, &resp)
	return resp, err
}

// DF runs the federation weighting round against one node.
func (a FingerprintsAPI) DF(ctx context.Context, req DFRequest) (DFResponse, error) {
	var resp DFResponse
	err := a.c.postJSON(ctx, "/v1/similarity/df", "similarity/df", nil, req, &resp)
	return resp, err
}

// NodeAPI groups the node-descriptor endpoint.
type NodeAPI struct{ c *Client }

// Node accesses the node-descriptor endpoint.
func (c *Client) Node() NodeAPI { return NodeAPI{c} }

// Get fetches GET /v1/node, the node's cluster descriptor.
func (a NodeAPI) Get(ctx context.Context) (NodeDesc, error) {
	var d NodeDesc
	err := a.c.getJSON(ctx, "/v1/node", "node", nil, &d)
	return d, err
}

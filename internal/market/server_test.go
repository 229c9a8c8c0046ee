package market

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"bombdroid/internal/obs"
	"bombdroid/internal/report"
)

func newTestServer(t *testing.T, cfg Config) (*httptest.Server, *Store) {
	t.Helper()
	if cfg.Dir == "" {
		cfg.Dir = t.TempDir()
	}
	st, _, err := Open(cfg)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	srv := httptest.NewServer(NewHandler(st))
	t.Cleanup(func() { srv.Close(); st.Close() })
	return srv, st
}

func ndjson(evs ...report.Event) *bytes.Buffer {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, ev := range evs {
		enc.Encode(ev)
	}
	return &buf
}

func TestHTTPIngestAndVerdict(t *testing.T) {
	srv, _ := newTestServer(t, Config{Threshold: 2})
	cl := &Client{BaseURL: srv.URL}

	res, err := cl.Reports().Post(context.Background(), []report.Event{
		ev("app.h", "b1", "u1"),
		ev("app.h", "b1", "u2"),
		ev("app.h", "b1", "u1"), // dup
	})
	if err != nil {
		t.Fatalf("Post: %v", err)
	}
	if res.Accepted != 2 || res.Duplicates != 1 {
		t.Fatalf("Post = %+v, want accepted 2, duplicates 1", res)
	}

	v, err := cl.Verdicts().Get(context.Background(), "app.h")
	if err != nil {
		t.Fatalf("Verdict: %v", err)
	}
	if v.App != "app.h" || v.Channels.Reports.Detections != 2 || !v.Flagged {
		t.Errorf("Verdict = %+v, want 2 detections, repackaged", v)
	}
}

func TestHTTPGzip(t *testing.T) {
	srv, _ := newTestServer(t, Config{})
	cl := &Client{BaseURL: srv.URL, Gzip: true}
	res, err := cl.Reports().Post(context.Background(), []report.Event{ev("app.gz", "b1", "u1"), ev("app.gz", "b2", "u1")})
	if err != nil {
		t.Fatalf("gzip Post: %v", err)
	}
	if res.Accepted != 2 {
		t.Fatalf("gzip Post accepted = %d, want 2", res.Accepted)
	}

	// A body claiming gzip but carrying garbage is a 400.
	req, _ := http.NewRequest(http.MethodPost, srv.URL+"/v1/reports", strings.NewReader("not gzip"))
	req.Header.Set("Content-Encoding", "gzip")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("garbage gzip status = %d, want 400", resp.StatusCode)
	}
}

func TestHTTPBadRequests(t *testing.T) {
	srv, _ := newTestServer(t, Config{})

	post := func(body io.Reader) int {
		resp, err := http.Post(srv.URL+"/v1/reports", "application/x-ndjson", body)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := post(strings.NewReader("{not json")); code != http.StatusBadRequest {
		t.Errorf("malformed JSON status = %d, want 400", code)
	}
	if code := post(ndjson(report.Event{App: "a", Bomb: "b"})); code != http.StatusBadRequest {
		t.Errorf("missing user status = %d, want 400", code)
	}
	if code := post(strings.NewReader("")); code != http.StatusOK {
		t.Errorf("empty batch status = %d, want 200", code)
	}
	if resp, err := http.Get(srv.URL + "/healthz"); err != nil || resp.StatusCode != http.StatusOK {
		t.Errorf("/healthz failed: %v", err)
	} else {
		resp.Body.Close()
	}
}

// TestHTTPBackpressure: with simulated in-flight load holding the
// queue, a legal batch turns into a 429 + Retry-After — transient, so
// the Client maps it back to ErrBackpressure and the device pipeline's
// backoff takes over.
func TestHTTPBackpressure(t *testing.T) {
	srv, st := newTestServer(t, Config{Shards: 1, QueueCap: 8})

	var evs []report.Event
	for i := 0; i < 5; i++ {
		evs = append(evs, ev("app.429", fmt.Sprintf("b%d", i), "u1"))
	}
	st.shards[0].depth.Add(6) // pretend 6 events are queued, uncommitted
	defer st.shards[0].depth.Add(-6)

	resp, err := http.Post(srv.URL+"/v1/reports", "application/x-ndjson", ndjson(evs...))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 missing Retry-After header")
	}

	cl := &Client{BaseURL: srv.URL}
	if _, err := cl.Reports().Post(context.Background(), evs); !errors.Is(err, ErrBackpressure) {
		t.Errorf("Client.Post on saturated store: err = %v, want ErrBackpressure", err)
	}
}

// TestHTTPBatchTooLarge: batches that could never be admitted are a
// permanent 413 (split and resend), never a 429 that a well-behaved
// client would retry verbatim forever.
func TestHTTPBatchTooLarge(t *testing.T) {
	// A batch bigger than the store's whole queue capacity
	// (QueueCap × Shards) is cut off while decoding.
	srv, _ := newTestServer(t, Config{Shards: 1, QueueCap: 4})
	var evs []report.Event
	for i := 0; i < 5; i++ {
		evs = append(evs, ev("app.413", fmt.Sprintf("b%d", i), "u1"))
	}
	if code := postStatus(t, srv.URL, ndjson(evs...)); code != http.StatusRequestEntityTooLarge {
		t.Errorf("over-capacity batch status = %d, want 413", code)
	}

	// A batch within total capacity whose keys all skew onto one shard
	// trips the per-partition check inside Ingest instead.
	srv2, st2 := newTestServer(t, Config{Shards: 2, QueueCap: 4})
	var skewed []report.Event
	for i := 0; len(skewed) < 5; i++ {
		e := ev("app.skew", fmt.Sprintf("b%d", i), "u1")
		if st2.shardFor(e.Key()) == 0 {
			skewed = append(skewed, e)
		}
	}
	if code := postStatus(t, srv2.URL, ndjson(skewed...)); code != http.StatusRequestEntityTooLarge {
		t.Errorf("skewed batch status = %d, want 413", code)
	}
}

// TestHTTPOversizedEvent: an event too big for a WAL record must be
// refused with 413 before it can be acked — once written, the next
// replay would read it as corruption (the remote-poisoning vector).
func TestHTTPOversizedEvent(t *testing.T) {
	srv, st := newTestServer(t, Config{})

	// Raw wire size past MaxEventBytes: refused while decoding.
	big := fmt.Sprintf("{\"app\":\"app.big\",\"bomb\":\"b1\",\"user\":\"u1\",\"info\":%q}\n",
		strings.Repeat("x", MaxEventBytes))
	if code := postStatus(t, srv.URL, strings.NewReader(big)); code != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized wire event status = %d, want 413", code)
	}

	// Wire-small but escape-inflated: encoding/json HTML-escapes '<'
	// to six bytes, so the stored form would exceed a WAL record even
	// though the wire form passes; the commit path refuses.
	inflated := fmt.Sprintf("{\"app\":\"app.inf\",\"bomb\":\"b1\",\"user\":\"u1\",\"info\":%q}\n",
		strings.Repeat("<", MaxEventBytes/5))
	if code := postStatus(t, srv.URL, strings.NewReader(inflated)); code != http.StatusRequestEntityTooLarge {
		t.Errorf("escape-inflated event status = %d, want 413", code)
	}

	// Neither event was acked or tallied, and the store still works.
	for _, app := range []string{"app.big", "app.inf"} {
		if v := st.Verdict(app); v.Channels.Reports.Detections != 0 {
			t.Errorf("Verdict(%s) = %d detections, want 0", app, v.Channels.Reports.Detections)
		}
	}
	cl := &Client{BaseURL: srv.URL}
	if res, err := cl.Reports().Post(context.Background(), []report.Event{ev("app.ok", "b1", "u1")}); err != nil || res.Accepted != 1 {
		t.Errorf("Post after oversized events = (%+v, %v), want accepted 1", res, err)
	}
}

func postStatus(t *testing.T, base string, body io.Reader) int {
	t.Helper()
	resp, err := http.Post(base+"/v1/reports", "application/x-ndjson", body)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode
}

func TestHTTPOversizedBatch(t *testing.T) {
	// The effective per-request cap is min(maxRequestEvents,
	// QueueCap × Shards); one event past it is refused while decoding.
	srv, _ := newTestServer(t, Config{Shards: 2, QueueCap: 8})
	line, _ := json.Marshal(ev("app.big", "b", "u"))
	line = append(line, '\n')
	body := bytes.Repeat(line, 2*8+1)
	if code := postStatus(t, srv.URL, bytes.NewReader(body)); code != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized batch status = %d, want 413", code)
	}
}

// TestHTTPMetricsEndpoint: the handler serves the store's registry on
// /metrics with the market families present.
func TestHTTPMetricsEndpoint(t *testing.T) {
	srv, _ := newTestServer(t, Config{})
	cl := &Client{BaseURL: srv.URL}
	if _, err := cl.Reports().Post(context.Background(), []report.Event{ev("app.met", "b1", "u1")}); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, fam := range []string{
		"market_ingest_events_total",
		"market_wal_records_total",
		"market_http_requests_total",
		"market_commit_batches_total",
	} {
		if !strings.Contains(string(body), fam) {
			t.Errorf("/metrics missing %s", fam)
		}
	}
}

// TestHealthzJSON: /healthz reports per-shard state as JSON — 200
// with every shard ok, 503 once any shard is degraded, with the
// ok/degraded split in the body either way.
func TestHealthzJSON(t *testing.T) {
	srv, st := newTestServer(t, Config{Shards: 2})

	get := func() (int, map[string]any) {
		t.Helper()
		resp, err := http.Get(srv.URL + "/healthz")
		if err != nil {
			t.Fatalf("GET /healthz: %v", err)
		}
		defer resp.Body.Close()
		var body map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
			t.Fatalf("/healthz body not JSON: %v", err)
		}
		return resp.StatusCode, body
	}

	code, body := get()
	if code != http.StatusOK {
		t.Errorf("healthy /healthz status = %d, want 200", code)
	}
	if body["status"] != "ok" || body["shards_ok"] != float64(2) || body["shards_degraded"] != float64(0) {
		t.Errorf("healthy /healthz body = %v", body)
	}

	st.shards[0].degrade()
	code, body = get()
	if code != http.StatusServiceUnavailable {
		t.Errorf("degraded /healthz status = %d, want 503", code)
	}
	if body["status"] != "degraded" || body["shards_ok"] != float64(1) || body["shards_degraded"] != float64(1) {
		t.Errorf("degraded /healthz body = %v", body)
	}
}

// TestHTTPDegraded503: ingesting into a degraded shard is a 503 with
// a Retry-After (distinct from the 429 backpressure path), and the
// Client maps it to ErrDegraded so loadgen and the device pipeline
// can choose the slower retry beat.
func TestHTTPDegraded503(t *testing.T) {
	srv, st := newTestServer(t, Config{Shards: 1})
	st.shards[0].degrade()

	resp, err := http.Post(srv.URL+"/v1/reports", "application/x-ndjson",
		ndjson(ev("app.503", "b1", "u1")))
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("degraded 503 missing Retry-After header")
	}

	cl := &Client{BaseURL: srv.URL}
	if _, err := cl.Reports().Post(context.Background(), []report.Event{ev("app.503", "b2", "u1")}); !errors.Is(err, ErrDegraded) {
		t.Errorf("Client.Post err = %v, want ErrDegraded", err)
	}
}

// TestHTTPTimeline: the /timeline route serves the merged verdict
// history through the typed client, consistent with /verdict.
func TestHTTPTimeline(t *testing.T) {
	srv, _ := newTestServer(t, Config{Threshold: 2})
	cl := &Client{BaseURL: srv.URL}

	if _, err := cl.Reports().Post(context.Background(), []report.Event{
		{App: "app.tlh", Bomb: "b1", User: "u1", TimeMs: 1000, Info: "k"},
		{App: "app.tlh", Bomb: "b2", User: "u1", TimeMs: 3000, Info: "k"},
		{App: "app.tlh", Bomb: "b3", User: "u1", TimeMs: 2000, Info: "k"},
	}); err != nil {
		t.Fatalf("Post: %v", err)
	}

	tl, err := cl.Timelines().Get(context.Background(), "app.tlh")
	if err != nil {
		t.Fatalf("Timeline: %v", err)
	}
	if tl.App != "app.tlh" || tl.Detections != 3 || !tl.Repackaged {
		t.Fatalf("Timeline = %+v, want 3 detections, repackaged", tl)
	}
	if len(tl.Entries) != 3 || tl.Entries[0].Kind != "first" || tl.Entries[1].Kind != "threshold" {
		t.Fatalf("entries = %+v, want first then threshold", tl.Entries)
	}
	if tl.TimeToVerdictMs != 1000 {
		t.Errorf("time_to_verdict_ms = %d, want 1000 (1000 → 2000)", tl.TimeToVerdictMs)
	}

	empty, err := cl.Timelines().Get(context.Background(), "app.none")
	if err != nil {
		t.Fatalf("Timeline(empty): %v", err)
	}
	if len(empty.Entries) != 0 || empty.TimeToVerdictMs != -1 {
		t.Errorf("empty timeline = %+v", empty)
	}
}

// TestHTTPTraceHeaders: a POST carrying a well-formed obs.TraceHeader
// gets the server's receive→ack duration back in ServerTimingHeader
// (closing the market leg of the report trace); untraced and
// malformed-header POSTs get no timing header.
func TestHTTPTraceHeaders(t *testing.T) {
	srv, st := newTestServer(t, Config{})

	post := func(trace string) *http.Response {
		t.Helper()
		req, _ := http.NewRequest(http.MethodPost, srv.URL+"/v1/reports",
			ndjson(ev("app.tr", "b-"+trace, "u1")))
		req.Header.Set("Content-Type", "application/x-ndjson")
		if trace != "" {
			req.Header.Set(obs.TraceHeader, trace)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("POST: %v", err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp
	}

	id := obs.TraceID{0xdead, 0xbeef}
	resp := post(id.String())
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("traced POST status = %d", resp.StatusCode)
	}
	tv := resp.Header.Get(obs.ServerTimingHeader)
	if tv == "" {
		t.Fatal("traced POST missing server-timing header")
	}
	if us, err := strconv.ParseInt(tv, 10, 64); err != nil || us < 0 {
		t.Fatalf("server-timing %q not a non-negative integer: %v", tv, err)
	}

	if resp := post(""); resp.Header.Get(obs.ServerTimingHeader) != "" {
		t.Error("untraced POST got a server-timing header")
	}
	if resp := post("not-a-trace-id"); resp.Header.Get(obs.ServerTimingHeader) != "" {
		t.Error("malformed trace header got a server-timing header")
	}

	snap := st.Obs().Snapshot()
	if got := snap.Counters["market_traced_requests_total"]; got != 1 {
		t.Errorf("market_traced_requests_total = %d, want 1", got)
	}
}

// TestHTTPFingerprintRoutes drives the fingerprint surface end to end
// through the typed client: upload, read-back, similar, the
// channel-scoped verdict read, and the fused verdict after a
// similarity hit.
func TestHTTPFingerprintRoutes(t *testing.T) {
	srv, _ := newTestServer(t, Config{Threshold: 1})
	cl := &Client{BaseURL: srv.URL}
	ctx := context.Background()

	set := []string{"dg-b", "dg-a", "dg-c"}
	ack, err := cl.Fingerprints().Put(ctx, Fingerprint{App: "app.fp", Digests: set})
	if err != nil {
		t.Fatalf("Put: %v", err)
	}
	if ack.Entries != 3 || !ack.Updated {
		t.Fatalf("ack = %+v, want 3 entries updated", ack)
	}
	fp, err := cl.Fingerprints().Get(ctx, "app.fp")
	if err != nil {
		t.Fatalf("Get: %v", err)
	}
	if fp.App != "app.fp" || len(fp.Digests) != 3 || fp.Digests[0] != "dg-a" {
		t.Errorf("Get = %+v, want canonical digests", fp)
	}
	if _, err := cl.Fingerprints().Get(ctx, "app.none"); !errors.Is(err, ErrNoFingerprint) {
		t.Errorf("Get(unknown) err = %v, want ErrNoFingerprint", err)
	}
	if _, err := cl.Fingerprints().Similar(ctx, "app.none"); !errors.Is(err, ErrNoFingerprint) {
		t.Errorf("Similar(unknown) err = %v, want ErrNoFingerprint", err)
	}

	// A twin plus one report on the original: similar sees score 1.0 and
	// the twin's fused verdict flags through the similarity channel.
	if _, err := cl.Fingerprints().Put(ctx, Fingerprint{App: "app.twin", Digests: set}); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Reports().Post(ctx, []report.Event{ev("app.fp", "b1", "u1")}); err != nil {
		t.Fatal(err)
	}
	sim, err := cl.Fingerprints().Similar(ctx, "app.twin")
	if err != nil {
		t.Fatalf("Similar: %v", err)
	}
	if !sim.Known || len(sim.Neighbors) != 1 || sim.Neighbors[0].Score != 1.0 {
		t.Fatalf("Similar = %+v, want the twin at 1.0", sim)
	}
	v, err := cl.Verdicts().Get(ctx, "app.twin")
	if err != nil {
		t.Fatal(err)
	}
	if !v.Flagged || !v.Channels.Similarity.Flagged || v.Channels.Similarity.Neighbor != "app.fp" {
		t.Errorf("fused verdict = %+v, want similarity-flagged via app.fp", v)
	}
	// ?channel=reports answers the tally channel alone.
	rc, err := cl.Verdicts().Reports(ctx, "app.fp")
	if err != nil {
		t.Fatal(err)
	}
	if rc.Detections != 1 || !rc.Flagged {
		t.Errorf("reports channel = %+v, want 1 detection flagged", rc)
	}

	// The probe/df federation rounds answer over HTTP too.
	pr, err := cl.Fingerprints().Probe(ctx, ProbeRequest{Digests: set, Exclude: "app.fp"})
	if err != nil {
		t.Fatal(err)
	}
	if pr.Apps != 2 || len(pr.Candidates) != 1 || pr.Candidates[0].App != "app.twin" {
		t.Errorf("probe = %+v, want app.twin only", pr)
	}
	df, err := cl.Fingerprints().DF(ctx, DFRequest{Digests: []string{"dg-a", "dg-zzz"}})
	if err != nil {
		t.Fatal(err)
	}
	if df.DF["dg-a"] != 2 || df.DF["dg-zzz"] != 0 {
		t.Errorf("df = %+v, want dg-a:2 and dg-zzz omitted", df)
	}
}

// TestHTTPFingerprintTooLarge: an upload past MaxFingerprintEntries is
// a permanent 413 mapped back to ErrFingerprintTooLarge.
func TestHTTPFingerprintTooLarge(t *testing.T) {
	srv, _ := newTestServer(t, Config{MaxFingerprintEntries: 2})
	cl := &Client{BaseURL: srv.URL}
	_, err := cl.Fingerprints().Put(context.Background(),
		Fingerprint{App: "app.big", Digests: []string{"a", "b", "c"}})
	if !errors.Is(err, ErrFingerprintTooLarge) {
		t.Errorf("err = %v, want ErrFingerprintTooLarge", err)
	}
}

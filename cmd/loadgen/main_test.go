package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/http/httputil"
	"net/url"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"bombdroid/internal/apk"
	"bombdroid/internal/appgen"
	"bombdroid/internal/market"
	"bombdroid/internal/market/cluster"
	"bombdroid/internal/report"
)

// newMarket spins an in-process marketd-equivalent for the hose to
// shoot at.
func newMarket(t *testing.T, cfg market.Config) *httptest.Server {
	t.Helper()
	if cfg.Dir == "" {
		cfg.Dir = t.TempDir()
	}
	st, _, err := market.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(market.NewHandler(st))
	t.Cleanup(func() { srv.Close(); st.Close() })
	return srv
}

func TestRunRejectsBadFlags(t *testing.T) {
	var out bytes.Buffer
	if err := run(context.Background(), &out, []string{"-no-such-flag"}); err == nil {
		t.Fatal("unknown flag should fail")
	}
	if err := run(context.Background(), &out, nil); err == nil {
		t.Fatal("missing -url should fail")
	}
	srv := newMarket(t, market.Config{})
	if err := run(context.Background(), &out, []string{"-url", srv.URL, "-campaign", "x", "-profile", "bogus"}); err == nil {
		t.Fatal("unknown profile should fail")
	}
}

// TestFireHose: a small hose run lands every event exactly once and
// prints a parseable summary.
func TestFireHose(t *testing.T) {
	srv := newMarket(t, market.Config{Shards: 2})
	var out bytes.Buffer
	args := []string{"-url", srv.URL, "-events", "2000", "-batch", "100", "-workers", "3", "-run", "t1"}
	if err := run(context.Background(), &out, args); err != nil {
		t.Fatalf("run: %v", err)
	}
	var s summary
	if err := json.Unmarshal(out.Bytes(), &s); err != nil {
		t.Fatalf("summary does not parse: %v\n%s", err, out.String())
	}
	if s.Events != 2000 || s.Accepted != 2000 || s.Duplicates != 0 {
		t.Errorf("summary = %+v, want 2000 accepted, 0 duplicates", s)
	}
	if s.EventsPerSec <= 0 || s.P99Ms <= 0 {
		t.Errorf("summary missing rates: %+v", s)
	}

	// Same -run label again: all duplicates, still all accounted for.
	out.Reset()
	if err := run(context.Background(), &out, args); err != nil {
		t.Fatalf("rerun: %v", err)
	}
	if err := json.Unmarshal(out.Bytes(), &s); err != nil {
		t.Fatal(err)
	}
	if s.Accepted != 0 || s.Duplicates != 2000 {
		t.Errorf("rerun summary = %+v, want all duplicates", s)
	}
}

// TestFireHoseBackpressure: a saturable store turns 429s into retries,
// not losses — the summary still accounts for every event.
func TestFireHoseBackpressure(t *testing.T) {
	srv := newMarket(t, market.Config{Shards: 1, QueueCap: 64})
	var out bytes.Buffer
	args := []string{"-url", srv.URL, "-events", "1000", "-batch", "50", "-workers", "4", "-run", "bp"}
	if err := run(context.Background(), &out, args); err != nil {
		t.Fatalf("run: %v", err)
	}
	var s summary
	if err := json.Unmarshal(out.Bytes(), &s); err != nil {
		t.Fatal(err)
	}
	if s.Events != 1000 {
		t.Errorf("events = %d, want 1000 despite backpressure (rejected_429 = %d)", s.Events, s.Rejected429)
	}
}

func TestVerdictMode(t *testing.T) {
	srv := newMarket(t, market.Config{Threshold: 1})
	cl := &market.Client{BaseURL: srv.URL}
	if _, err := cl.Reports().Post(context.Background(), nil); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := run(context.Background(), &out, []string{"-url", srv.URL, "-verdict", "app.v"}); err != nil {
		t.Fatalf("verdict mode: %v", err)
	}
	var v market.Verdict
	if err := json.Unmarshal(out.Bytes(), &v); err != nil {
		t.Fatalf("verdict does not parse: %v\n%s", err, out.String())
	}
	if v.App != "app.v" || v.Flagged {
		t.Errorf("verdict = %+v, want app.v, not repackaged", v)
	}
}

// TestCampaignMode runs the full paper loop end to end: prepare a
// protected+repackaged app, detonate it under the clean profile, and
// deliver the detections through the device pipeline into the store.
func TestCampaignMode(t *testing.T) {
	srv := newMarket(t, market.Config{Threshold: 1})
	var out bytes.Buffer
	args := []string{"-url", srv.URL, "-campaign", "AndroFish", "-sessions", "4", "-profile", "none", "-seed", "3"}
	if err := run(context.Background(), &out, args); err != nil {
		t.Fatalf("campaign mode: %v", err)
	}
	got := out.String()
	// First block: the campaign summary JSON with the trace-derived
	// end-to-end percentiles and the market's time-to-verdict.
	lines := strings.Split(strings.TrimSpace(got), "\n")
	var cs campaignSummary
	if err := json.Unmarshal([]byte(strings.Join(lines[:len(lines)-1], "\n")), &cs); err != nil {
		t.Fatalf("campaign summary does not parse: %v\n%s", err, got)
	}
	if cs.App != "AndroFish" || cs.Sessions != 4 {
		t.Errorf("summary = %+v, want AndroFish over 4 sessions", cs)
	}
	if cs.Delivered == 0 || cs.TracesClosed != cs.Delivered {
		t.Errorf("traces_closed = %d, want one closed trace per delivered report (%d)",
			cs.TracesClosed, cs.Delivered)
	}
	if cs.E2EP99Ms <= 0 || cs.E2EP50Ms > cs.E2EP99Ms {
		t.Errorf("e2e percentiles (%g, %g) not ordered positive", cs.E2EP50Ms, cs.E2EP99Ms)
	}
	if cs.TimeToVerdictMs < 0 {
		t.Errorf("time_to_verdict_ms = %d, want crossed at threshold 1", cs.TimeToVerdictMs)
	}
	// The last line is the market's verdict for the pirated package;
	// a detonating campaign over threshold 1 must flag it.
	var v market.Verdict
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &v); err != nil {
		t.Fatalf("verdict line does not parse: %v\n%s", err, got)
	}
	if !v.Flagged || v.Channels.Reports.Detections == 0 {
		t.Errorf("verdict = %+v, want repackaged with detections after campaign", v)
	}

	// -timeline is the reports channel's history: its header agrees
	// with the verdict's reports channel and its last entry counts
	// every detection.
	out.Reset()
	if err := run(context.Background(), &out, []string{"-url", srv.URL, "-timeline", cs.App}); err != nil {
		t.Fatalf("timeline mode: %v", err)
	}
	var tl market.Timeline
	if err := json.Unmarshal(out.Bytes(), &tl); err != nil {
		t.Fatalf("timeline does not parse: %v\n%s", err, out.String())
	}
	rc := v.Channels.Reports
	if tl.App != v.App || tl.Threshold != rc.Threshold || tl.Detections != rc.Detections || tl.Repackaged != rc.Flagged {
		t.Errorf("timeline header (%s, %d, %d, %v) disagrees with verdict %+v",
			tl.App, tl.Threshold, tl.Detections, tl.Repackaged, v)
	}
	if n := len(tl.Entries); n == 0 || tl.Entries[n-1].Count != rc.Detections {
		t.Errorf("timeline entries %+v do not end at the verdict's %d detections", tl.Entries, rc.Detections)
	}
	if tl.TimeToVerdictMs != cs.TimeToVerdictMs {
		t.Errorf("timeline time_to_verdict_ms = %d, campaign summary says %d", tl.TimeToVerdictMs, cs.TimeToVerdictMs)
	}
}

// TestTimelineMode: -timeline prints the app's verdict timeline JSON.
func TestTimelineMode(t *testing.T) {
	srv := newMarket(t, market.Config{Threshold: 1})
	cl := &market.Client{BaseURL: srv.URL}
	if _, err := cl.Reports().Post(context.Background(), []report.Event{
		{App: "app.tlm", Bomb: "b1", User: "u1", TimeMs: 500, Info: "k"},
	}); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := run(context.Background(), &out, []string{"-url", srv.URL, "-timeline", "app.tlm"}); err != nil {
		t.Fatalf("timeline mode: %v", err)
	}
	var tl market.Timeline
	if err := json.Unmarshal(out.Bytes(), &tl); err != nil {
		t.Fatalf("timeline does not parse: %v\n%s", err, out.String())
	}
	if tl.App != "app.tlm" || len(tl.Entries) != 1 || tl.Entries[0].Kind != "threshold" {
		t.Errorf("timeline = %+v, want one threshold entry", tl)
	}
}

// TestFingerprintMode: -fingerprint uploads every protected output a
// bombdroid -batch manifest names, -similar finds a renamed clone of
// an app as its ≥ τ neighbour, and once the original is flagged by
// reports the clone's -verdict is flagged through the similarity
// channel.
func TestFingerprintMode(t *testing.T) {
	dir := t.TempDir()
	devKey, err := apk.NewKeyPair(1)
	if err != nil {
		t.Fatal(err)
	}
	pirateKey, err := apk.NewKeyPair(2)
	if err != nil {
		t.Fatal(err)
	}
	build := func(name string, seed int64, res apk.Resources) *apk.Package {
		t.Helper()
		app, err := appgen.Generate(appgen.Config{Name: name, Seed: seed, TargetLOC: 600})
		if err != nil {
			t.Fatal(err)
		}
		pkg, err := apk.Sign(apk.Build(name, app.File, res), devKey)
		if err != nil {
			t.Fatal(err)
		}
		return pkg
	}
	victim := build("app.victim", 3, apk.Resources{Strings: []string{"victim"}, Icon: []byte{1}, Author: "dev"})
	other := build("app.other", 4, apk.Resources{Strings: []string{"other"}, Icon: []byte{2}, Author: "someone"})
	// The clone ships the victim's code and resources under a new name
	// and the pirate's key: every digest matches.
	clone, err := apk.Sign(&apk.Unsigned{Name: "app.clone", Dex: victim.Dex, Res: victim.Res}, pirateKey)
	if err != nil {
		t.Fatal(err)
	}
	var man struct {
		Apps []batchApp `json:"apps"`
	}
	for _, pkg := range []*apk.Package{victim, other, clone} {
		data, err := apk.Pack(pkg)
		if err != nil {
			t.Fatal(err)
		}
		out := filepath.Join(dir, pkg.Name+".prot.apk")
		if err := os.WriteFile(out, data, 0o644); err != nil {
			t.Fatal(err)
		}
		man.Apps = append(man.Apps, batchApp{App: pkg.Name + ".apk", Status: "ok", Out: out})
	}
	manPath := filepath.Join(dir, "manifest.json")
	raw, err := json.Marshal(man)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(manPath, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	srv := newMarket(t, market.Config{Threshold: 1})
	var out bytes.Buffer
	if err := run(context.Background(), &out, []string{"-url", srv.URL, "-fingerprint", manPath}); err != nil {
		t.Fatalf("fingerprint mode: %v", err)
	}
	var fs fpSummary
	if err := json.Unmarshal(out.Bytes(), &fs); err != nil {
		t.Fatalf("fingerprint summary does not parse: %v\n%s", err, out.String())
	}
	if fs.Skipped != 0 || fs.Uploaded != 3 || fs.Updated != 3 ||
		strings.Join(fs.Apps, ",") != "app.clone,app.other,app.victim" {
		t.Errorf("fingerprint summary = %+v, want 3 apps uploaded, none skipped", fs)
	}

	out.Reset()
	if err := run(context.Background(), &out, []string{"-url", srv.URL, "-similar", "app.victim"}); err != nil {
		t.Fatalf("similar mode: %v", err)
	}
	var sim market.Similar
	if err := json.Unmarshal(out.Bytes(), &sim); err != nil {
		t.Fatalf("similar answer does not parse: %v\n%s", err, out.String())
	}
	if !sim.Known || len(sim.Neighbors) == 0 || sim.Neighbors[0].App != "app.clone" || sim.Neighbors[0].Score != 1 {
		t.Errorf("similar = %+v, want known with app.clone as the score-1 neighbour", sim)
	}

	// One detonation flags the victim (threshold 1); the clone has no
	// reports of its own and is flagged only through the similarity
	// channel.
	if _, err := (&market.Client{BaseURL: srv.URL}).Reports().Post(context.Background(), []report.Event{
		{App: "app.victim", Bomb: "b1", User: "u1", TimeMs: 1},
	}); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	if err := run(context.Background(), &out, []string{"-url", srv.URL, "-verdict", "app.clone"}); err != nil {
		t.Fatalf("verdict mode: %v", err)
	}
	var v market.Verdict
	if err := json.Unmarshal(out.Bytes(), &v); err != nil {
		t.Fatalf("verdict does not parse: %v\n%s", err, out.String())
	}
	if !v.Flagged || v.Channels.Reports.Flagged || !v.Channels.Similarity.Flagged || v.Channels.Similarity.Neighbor != "app.victim" {
		t.Errorf("clone verdict = %+v, want flagged through the similarity channel by app.victim", v)
	}
}

// TestFireHoseDegradedRetry: 503s from a degraded shard slow the hose
// down (retry after the daemon's beat) instead of failing it, and the
// summary counts them.
func TestFireHoseDegradedRetry(t *testing.T) {
	srv := newMarket(t, market.Config{Shards: 1})
	// Front the market with a flake that answers 503 + Retry-After to
	// the first few POSTs, then hands off — the shape of a shard that
	// degraded and was restarted by an operator.
	var mu sync.Mutex
	remaining := 3
	flake := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		deny := r.URL.Path == "/v1/reports" && remaining > 0
		if deny {
			remaining--
		}
		mu.Unlock()
		if deny {
			w.Header().Set("Retry-After", "2")
			http.Error(w, `{"error":"shard degraded"}`, http.StatusServiceUnavailable)
			return
		}
		httputil.NewSingleHostReverseProxy(mustParse(t, srv.URL)).ServeHTTP(w, r)
	}))
	defer flake.Close()

	oldDelay := degradedRetryDelay
	degradedRetryDelay = 10 * time.Millisecond
	defer func() { degradedRetryDelay = oldDelay }()

	var out bytes.Buffer
	args := []string{"-url", flake.URL, "-events", "500", "-batch", "100", "-workers", "2", "-run", "deg"}
	if err := run(context.Background(), &out, args); err != nil {
		t.Fatalf("run: %v", err)
	}
	var s summary
	if err := json.Unmarshal(out.Bytes(), &s); err != nil {
		t.Fatalf("summary does not parse: %v\n%s", err, out.String())
	}
	if s.DegradedRetries != 3 {
		t.Errorf("degraded_retries = %d, want 3", s.DegradedRetries)
	}
	if s.Accepted != 500 || s.Duplicates != 0 {
		t.Errorf("summary = %+v, want all 500 accepted after retries", s)
	}
}

func mustParse(t *testing.T, raw string) *url.URL {
	t.Helper()
	u, err := url.Parse(raw)
	if err != nil {
		t.Fatal(err)
	}
	return u
}

// TestFireHoseCluster: the hose drives a cluster through a router's
// HTTP surface (what marketd -router serves). Every event lands
// exactly once on its owning node, and -verdict through the same URL
// serves the federated view.
func TestFireHoseCluster(t *testing.T) {
	mk := func(id string, lo, hi int) *httptest.Server {
		return newMarket(t, market.Config{
			Shards: 2, NodeID: id, Slots: 16,
			Range: market.ShardRange{Lo: lo, Hi: hi}, Threshold: 3,
		})
	}
	n0 := mk("n0", 0, 5)
	n1 := mk("n1", 5, 11)
	n2 := mk("n2", 11, 16)
	rt, err := cluster.New(context.Background(), cluster.Config{Nodes: []string{n0.URL, n1.URL, n2.URL}})
	if err != nil {
		t.Fatal(err)
	}
	router := httptest.NewServer(cluster.NewHandler(rt))
	defer router.Close()

	var out bytes.Buffer
	args := []string{"-url", router.URL, "-events", "2000", "-batch", "100", "-workers", "3", "-apps", "4", "-run", "cl1"}
	if err := run(context.Background(), &out, args); err != nil {
		t.Fatalf("cluster hose: %v", err)
	}
	var s summary
	if err := json.Unmarshal(out.Bytes(), &s); err != nil {
		t.Fatalf("summary does not parse: %v\n%s", err, out.String())
	}
	if s.Events != 2000 || s.Accepted != 2000 || s.Duplicates != 0 {
		t.Errorf("summary = %+v, want 2000 accepted once across the cluster", s)
	}

	// The federated verdict sees the app's whole tally; no single node
	// does (4 apps over 2000 events → 500 each).
	out.Reset()
	if err := run(context.Background(), &out, []string{"-url", router.URL, "-verdict", "app-0"}); err != nil {
		t.Fatalf("federated verdict: %v", err)
	}
	var v market.Verdict
	if err := json.Unmarshal(out.Bytes(), &v); err != nil {
		t.Fatal(err)
	}
	if v.Channels.Reports.Detections != 500 || !v.Flagged {
		t.Errorf("federated verdict = %+v, want 500 detections", v)
	}
	nv, err := (&market.Client{BaseURL: n0.URL}).Verdicts().Get(context.Background(), "app-0")
	if err != nil {
		t.Fatal(err)
	}
	if nv.Channels.Reports.Detections == 0 || nv.Channels.Reports.Detections == 500 {
		t.Errorf("node share = %d detections, want a strict subset", nv.Channels.Reports.Detections)
	}
}

// TestFireHoseCtxCancel: cancelling the context mid-hose stops the
// run promptly instead of sleeping through retry backoffs.
func TestFireHoseCtxCancel(t *testing.T) {
	// A server that backpressures forever: without cancellation the
	// hose would retry indefinitely.
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "1")
		http.Error(w, `{"error":"queue full"}`, http.StatusTooManyRequests)
	}))
	defer srv.Close()

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	var out bytes.Buffer
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, &out, []string{"-url", srv.URL, "-events", "1000", "-batch", "100", "-workers", "2", "-run", "cc"})
	}()
	select {
	case err := <-done:
		if err == nil || !strings.Contains(err.Error(), "context canceled") {
			t.Fatalf("err = %v, want context cancellation surfaced", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("hose did not stop after cancellation")
	}
}

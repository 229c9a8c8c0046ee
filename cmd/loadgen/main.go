// Command loadgen drives a running marketd.
//
// Three modes:
//
//	loadgen -url http://127.0.0.1:8844 -events 100000 [-batch 512]
//	        [-workers 4] [-gzip] [-apps 64] [-run label]
//
// fire-hose: synthesize -events detonation reports (mostly-unique
// keys across -apps apps), POST them through market.Client in
// -batch-sized batches from -workers goroutines, retrying 429
// backpressure and 503 degraded answers through the shared
// market.RetryPolicy, and print a JSON summary
// with events_per_sec, p99_ms (per-POST), e2e_p50_ms/e2e_p99_ms
// (generation → durable ack, retries included), and degraded_retries.
//
//	loadgen -url ... -campaign AndroFish [-sessions 8] [-profile mild]
//
// campaign: prepare the named evaluation app, run a fault-injection
// detonation campaign (sim.RunChaos), and deliver its event stream
// through the device-side report.Pipeline with an HTTP sink pointed
// at marketd — the end-to-end paper loop: device detonations, flaky
// channel, retries and breaker, market WAL. Every report is traced
// from detonation to the daemon's post-WAL-flush ack; the JSON
// summary carries the trace-derived e2e_p50_ms/e2e_p99_ms (virtual
// ms) and the market's time_to_verdict_ms from the verdict timeline.
//
//	loadgen -url ... -verdict app-7
//	loadgen -url ... -timeline app-7
//
// verdict/timeline: fetch and print one app's fused verdict or
// verdict timeline.
//
//	loadgen -url ... -fingerprint out/manifest.json
//	loadgen -url ... -similar AndroFish
//
// fingerprint: walk a cmd/bombdroid -batch manifest, unpack each
// protected output package, and upload its resource fingerprint (the
// per-entry SHA-256 digests from the apk manifest) to
// POST /v1/apps/{app}/fingerprint — the static-channel corpus load.
// similar: fetch and print one app's top-K near-duplicate neighbors.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"sort"
	"sync"
	"syscall"
	"time"

	"bombdroid/internal/apk"
	"bombdroid/internal/chaos"
	"bombdroid/internal/exp"
	"bombdroid/internal/market"
	"bombdroid/internal/obs"
	"bombdroid/internal/report"
	"bombdroid/internal/sim"
)

// summary is the fire-hose mode's JSON report.
type summary struct {
	Events          int     `json:"events"`
	Accepted        int     `json:"accepted"`
	Duplicates      int     `json:"duplicates"`
	Rejected429     int     `json:"rejected_429"`
	DegradedRetries int     `json:"degraded_retries"`
	ElapsedSec      float64 `json:"elapsed_sec"`
	EventsPerSec    float64 `json:"events_per_sec"`
	P99Ms           float64 `json:"p99_ms"`
	// E2E percentiles cover a report's whole life on the wire:
	// generation → durable ack, retries and backpressure waits
	// included — what a device actually experiences, where p99_ms is
	// only the per-POST attempt latency.
	E2EP50Ms float64 `json:"e2e_p50_ms"`
	E2EP99Ms float64 `json:"e2e_p99_ms"`
}

// campaignSummary is the campaign mode's JSON report: pipeline
// delivery stats plus the trace-derived latency breakdown and the
// market's time-to-verdict, the end-to-end numbers behind the paper's
// detection-convergence claim.
type campaignSummary struct {
	App            string `json:"app"`
	Sessions       int    `json:"sessions"`
	Triggered      int    `json:"triggered"`
	Unique         int    `json:"unique"`
	Delivered      int64  `json:"delivered"`
	DeadLettered   int64  `json:"dead_lettered"`
	BreakerTripped bool   `json:"breaker_tripped"`
	TracesClosed   int64  `json:"traces_closed"`
	TracesAborted  int64  `json:"traces_aborted"`
	// Virtual-ms detonation→market-ack percentiles from the pipeline's
	// trace histogram.
	E2EP50Ms float64 `json:"e2e_p50_ms"`
	E2EP99Ms float64 `json:"e2e_p99_ms"`
	// TimeToVerdictMs is the market's event-time distance from first
	// report to threshold crossing (-1: verdict never flipped).
	TimeToVerdictMs int64 `json:"time_to_verdict_ms"`
}

// degradedRetryDelay matches the Retry-After the daemon sends with a
// 503 (a degraded shard is disk trouble, slower to clear than queue
// pressure). Variable so tests can shorten it.
var degradedRetryDelay = 2 * time.Second

func run(ctx context.Context, out io.Writer, args []string) error {
	fs := flag.NewFlagSet("loadgen", flag.ContinueOnError)
	url := fs.String("url", "", "marketd base URL, e.g. http://127.0.0.1:8844 (required)")
	events := fs.Int("events", 100_000, "fire-hose: total events to send")
	batch := fs.Int("batch", 512, "fire-hose: events per POST")
	workers := fs.Int("workers", 4, "fire-hose: concurrent posting goroutines")
	gzipOn := fs.Bool("gzip", false, "fire-hose: gzip request bodies")
	apps := fs.Int("apps", 64, "fire-hose: distinct app ids to spread events over")
	runID := fs.String("run", "", "fire-hose: label mixed into user ids so reruns are novel (default: wall clock)")
	campaign := fs.String("campaign", "", "campaign: run a chaos detonation campaign for this evaluation app")
	sessions := fs.Int("sessions", 8, "campaign: detonation sessions")
	profile := fs.String("profile", "mild", "campaign: fault profile none|mild|harsh")
	seed := fs.Int64("seed", 42, "campaign: campaign seed")
	verdict := fs.String("verdict", "", "verdict: fetch this app's fused verdict and exit")
	timeline := fs.String("timeline", "", "timeline: fetch this app's verdict timeline and exit")
	fingerprint := fs.String("fingerprint", "", "fingerprint: upload resource fingerprints from this bombdroid -batch manifest and exit")
	similar := fs.String("similar", "", "similar: fetch this app's near-duplicate neighbors and exit")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *url == "" {
		return fmt.Errorf("-url is required")
	}
	cl := &market.Client{BaseURL: *url, Gzip: *gzipOn}

	switch {
	case *verdict != "":
		v, err := cl.Verdicts().Get(ctx, *verdict)
		if err != nil {
			return err
		}
		b, _ := json.Marshal(v)
		fmt.Fprintf(out, "%s\n", b)
		return nil
	case *timeline != "":
		tl, err := cl.Timelines().Get(ctx, *timeline)
		if err != nil {
			return err
		}
		b, _ := json.Marshal(tl)
		fmt.Fprintf(out, "%s\n", b)
		return nil
	case *fingerprint != "":
		return uploadFingerprints(ctx, out, cl, *fingerprint)
	case *similar != "":
		sim, err := cl.Fingerprints().Similar(ctx, *similar)
		if err != nil {
			return err
		}
		b, _ := json.Marshal(sim)
		fmt.Fprintf(out, "%s\n", b)
		return nil
	case *campaign != "":
		return runCampaign(ctx, out, *url, *campaign, *sessions, *profile, *seed)
	default:
		return fireHose(ctx, out, cl, *events, *batch, *workers, *apps, *runID)
	}
}

// fpSummary is the fingerprint mode's JSON report. Apps is sorted so
// two uploads of the same corpus print identical summaries.
type fpSummary struct {
	Manifest string   `json:"manifest"`
	Uploaded int      `json:"uploaded"`
	Updated  int      `json:"updated"`
	Skipped  int      `json:"skipped"`
	Entries  int      `json:"entries"`
	Apps     []string `json:"apps"`
}

// batchApp mirrors the per-app rows of cmd/bombdroid's -batch
// manifest; only the fields fingerprint mode needs.
type batchApp struct {
	App    string `json:"app"`
	Status string `json:"status"`
	Out    string `json:"out"`
}

// uploadFingerprints walks a bombdroid -batch manifest, unpacks every
// successfully protected output APK, and uploads its per-entry digest
// set as the app's resource fingerprint.
func uploadFingerprints(ctx context.Context, out io.Writer, cl *market.Client, manifestPath string) error {
	raw, err := os.ReadFile(manifestPath)
	if err != nil {
		return err
	}
	var man struct {
		Apps []batchApp `json:"apps"`
	}
	if err := json.Unmarshal(raw, &man); err != nil {
		return fmt.Errorf("parse %s: %w", manifestPath, err)
	}
	s := fpSummary{Manifest: manifestPath}
	policy := market.RetryPolicy{Backoff503: degradedRetryDelay}
	for _, a := range man.Apps {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		if a.Status != "ok" || a.Out == "" {
			s.Skipped++
			continue
		}
		data, err := os.ReadFile(a.Out)
		if err != nil {
			return fmt.Errorf("app %s: %w", a.App, err)
		}
		pkg, err := apk.Unpack(data)
		if err != nil {
			return fmt.Errorf("app %s: %w", a.App, err)
		}
		rows := pkg.Manifest.SortedDigests()
		digests := make([]string, len(rows))
		for i, r := range rows {
			digests[i] = r.Digest
		}
		fp := market.Fingerprint{App: pkg.Name, Digests: digests}
		var ack market.FingerprintAck
		if _, err := policy.Do(ctx, func(ctx context.Context) error {
			var perr error
			ack, perr = cl.Fingerprints().Put(ctx, fp)
			return perr
		}); err != nil {
			return fmt.Errorf("app %s: %w", pkg.Name, err)
		}
		s.Uploaded++
		s.Entries += ack.Entries
		if ack.Updated {
			s.Updated++
		}
		s.Apps = append(s.Apps, pkg.Name)
	}
	sort.Strings(s.Apps)
	b, _ := json.MarshalIndent(s, "", "  ")
	fmt.Fprintf(out, "%s\n", b)
	return nil
}

// fireHose hammers POST /v1/reports from workers goroutines and
// reports throughput. 429s and 503s are retried through the shared
// market.RetryPolicy (unbounded attempts, doubling backoff with
// jitter) — backpressure slows the hose, it never drops from it — and
// the posts are ctx-first, so Ctrl-C cancels an in-flight POST or a
// backoff pause instead of sleeping through it.
func fireHose(ctx context.Context, out io.Writer, cl *market.Client, events, batch, workers, apps int, runID string) error {
	if runID == "" {
		runID = fmt.Sprintf("%d", time.Now().UnixNano())
	}
	policy := market.RetryPolicy{Backoff503: degradedRetryDelay}
	type res struct {
		accepted, dups, rejects, degraded int
		lat                               []time.Duration // per-POST attempt latency
		e2e                               []time.Duration // per-batch generation → durable ack
		err                               error
	}
	batches := make(chan int)
	failed := make(chan struct{}) // closed on the first hard worker error
	var failOnce sync.Once
	results := make([]res, workers)
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := &results[w]
			evs := make([]report.Event, batch)
			for off := range batches {
				gen := time.Now()
				for j := range evs {
					i := off + j
					evs[j] = report.Event{
						App:    fmt.Sprintf("app-%d", i%apps),
						Bomb:   fmt.Sprintf("bomb-%d", i%997),
						User:   fmt.Sprintf("u-%s-%d", runID, i),
						TimeMs: int64(i),
						Info:   "loadgen",
					}
				}
				var pr market.PostResult
				stats, err := policy.Do(ctx, func(ctx context.Context) error {
					t0 := time.Now()
					var perr error
					pr, perr = cl.Reports().Post(ctx, evs)
					r.lat = append(r.lat, time.Since(t0))
					return perr
				})
				r.rejects += stats.Retries429
				r.degraded += stats.Retries503
				if err != nil {
					r.err = err
					if !errors.Is(err, context.Canceled) {
						// Hard error (daemon gone, 413, …): stop the feed
						// too, or the producer would block forever on a
						// channel no worker drains.
						failOnce.Do(func() { close(failed) })
					}
					return
				}
				r.accepted += pr.Accepted
				r.dups += pr.Duplicates
				r.e2e = append(r.e2e, time.Since(gen))
			}
		}(w)
	}
feed:
	for off := 0; off < events; off += batch {
		select {
		case batches <- off:
		case <-failed:
			break feed
		case <-ctx.Done():
			break feed
		}
	}
	close(batches)
	wg.Wait()
	elapsed := time.Since(start)

	var s summary
	var lat, e2e []time.Duration
	for _, r := range results {
		if r.err != nil && !errors.Is(r.err, context.Canceled) {
			return r.err
		}
		s.Accepted += r.accepted
		s.Duplicates += r.dups
		s.Rejected429 += r.rejects
		s.DegradedRetries += r.degraded
		lat = append(lat, r.lat...)
		e2e = append(e2e, r.e2e...)
	}
	s.Events = s.Accepted + s.Duplicates
	s.ElapsedSec = elapsed.Seconds()
	s.EventsPerSec = float64(s.Events) / elapsed.Seconds()
	if len(lat) > 0 {
		sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
		s.P99Ms = float64(lat[len(lat)*99/100].Microseconds()) / 1000.0
	}
	if len(e2e) > 0 {
		sort.Slice(e2e, func(i, j int) bool { return e2e[i] < e2e[j] })
		s.E2EP50Ms = float64(e2e[len(e2e)/2].Microseconds()) / 1000.0
		s.E2EP99Ms = float64(e2e[len(e2e)*99/100].Microseconds()) / 1000.0
	}
	b, _ := json.MarshalIndent(s, "", "  ")
	fmt.Fprintf(out, "%s\n", b)
	return ctx.Err()
}

// runCampaign replays a real detonation campaign into marketd: the
// prepared (protected, repackaged) app detonates under fault
// injection, and every detection flows through the device-side
// pipeline — retries, backoff, breaker — into the daemon's WAL.
func runCampaign(ctx context.Context, out io.Writer, url, app string, sessions int, profile string, seed int64) error {
	var prof chaos.Profile
	switch profile {
	case "none":
		prof = chaos.None
	case "mild":
		prof = chaos.Mild
	case "harsh":
		prof = chaos.Harsh
	default:
		return fmt.Errorf("unknown profile %q (want none, mild or harsh)", profile)
	}
	p, err := exp.PrepareCtx(ctx, app, 2_500)
	if err != nil {
		return err
	}
	// The tracer rides the device-side pipeline: every detonation event
	// minted at Submit, per-attempt annotations through retries and
	// breaker holds, closed at the market's post-WAL-flush ack (the
	// HTTP sink carries the trace id out and the server's timing header
	// back). Every report is traced: a load test wants the full
	// distribution.
	treg := obs.NewRegistry()
	tracer := obs.NewTracer(treg, seed)
	res, err := sim.RunChaos(ctx, p.Pirated, p.Surface, sim.ChaosOptions{
		Sessions: sessions,
		CapMs:    20 * 60_000,
		Seed:     seed,
		Profile:  prof,
		Sink:     &report.HTTPSink{URL: url + "/v1/reports"},
		Pipeline: []report.Option{
			report.WithMaxAttempts(200),
			report.WithMaxBackoffMs(5 * 60_000),
			report.WithBreakerThreshold(3),
			report.WithTracer(tracer),
		},
	})
	if err != nil {
		return err
	}
	cl := &market.Client{BaseURL: url}
	tl, err := cl.Timelines().Get(ctx, p.Pirated.Name)
	if err != nil {
		return err
	}
	e2e := tracer.E2E().Snapshot()
	cs := campaignSummary{
		App:             p.Pirated.Name,
		Sessions:        sessions,
		Triggered:       res.Successes,
		Unique:          res.UniqueDetects,
		Delivered:       res.Pipeline.Delivered,
		DeadLettered:    res.Pipeline.DeadLettered,
		BreakerTripped:  res.BreakerTripped,
		TracesClosed:    treg.Counter("traces_closed_total").Value(),
		TracesAborted:   treg.Counter("traces_aborted_total").Value(),
		E2EP50Ms:        e2e.Quantile(0.5),
		E2EP99Ms:        e2e.Quantile(0.99),
		TimeToVerdictMs: tl.TimeToVerdictMs,
	}
	b, _ := json.MarshalIndent(cs, "", "  ")
	fmt.Fprintf(out, "%s\n", b)
	v, err := cl.Verdicts().Get(ctx, p.Pirated.Name)
	if err != nil {
		return err
	}
	b, _ = json.Marshal(v)
	fmt.Fprintf(out, "%s\n", b)
	return nil
}

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Stdout, os.Args[1:]); err != nil {
		if err == flag.ErrHelp {
			os.Exit(2)
		}
		fmt.Fprintln(os.Stderr, "loadgen:", err)
		os.Exit(1)
	}
}

package market

import (
	"context"
	"fmt"
	"net/http/httptest"
	"sort"
	"testing"
	"time"

	"bombdroid/internal/report"
)

// benchEvents builds n events spread over apps/users with mostly
// distinct keys — the realistic market mix where dedup checks run but
// rarely hit.
func benchEvents(n int) []report.Event {
	evs := make([]report.Event, n)
	for i := range evs {
		evs[i] = report.Event{
			App:    fmt.Sprintf("app-%d", i%64),
			Bomb:   fmt.Sprintf("bomb-%d", i%997),
			User:   fmt.Sprintf("user-%d", i),
			TimeMs: int64(i),
			Info:   "bench",
		}
	}
	return evs
}

// benchIngestHTTP drives the whole marketd stack — Client → HTTP →
// handler → shards → WAL — with 512-event batches and reports
// sustained events/sec plus the p99 per-batch latency. With traced
// set, every POST carries an obs.TraceHeader so the handler pays the
// full tracing tax (parse, ack-timing stopwatch, response header);
// the traced variant additionally reports the p99 of the daemon's
// receive→flush-ack time read back from obs.ServerTimingHeader.
func benchIngestHTTP(b *testing.B, traced bool) {
	st, _, err := Open(Config{Dir: b.TempDir(), Shards: 4, QueueCap: 1 << 16, DedupWindow: 1 << 20})
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	srv := httptest.NewServer(NewHandler(st))
	defer srv.Close()
	cl := &Client{BaseURL: srv.URL, HTTPClient: srv.Client(), Trace: traced}

	const batch = 512
	evs := benchEvents(batch * 256)
	lat := make([]time.Duration, 0, b.N)
	var srvUs []int64
	if traced {
		srvUs = make([]int64, 0, b.N)
	}

	b.ReportAllocs()
	b.ResetTimer()
	start := time.Now()
	for i := 0; i < b.N; i++ {
		// Rotate through the pre-built pool, shifting User per lap so
		// keys stay novel and the dedup path is exercised, not hit.
		off := (i * batch) % len(evs)
		part := evs[off : off+batch]
		if i >= len(evs)/batch {
			lap := i / (len(evs) / batch)
			for j := range part {
				part[j].User = fmt.Sprintf("user-%d-%d", off+j, lap)
			}
		}
		t0 := time.Now()
		if _, err := cl.Reports().Post(context.Background(), part); err != nil {
			b.Fatal(err)
		}
		lat = append(lat, time.Since(t0))
		if traced {
			srvUs = append(srvUs, cl.ServerUs())
		}
	}
	elapsed := time.Since(start)
	b.StopTimer()

	b.ReportMetric(float64(b.N*batch)/elapsed.Seconds(), "events_sec")
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	p99 := lat[len(lat)*99/100]
	b.ReportMetric(float64(p99.Microseconds())/1000.0, "p99_ms")
	if traced {
		sort.Slice(srvUs, func(i, j int) bool { return srvUs[i] < srvUs[j] })
		b.ReportMetric(float64(srvUs[len(srvUs)*99/100])/1000.0, "srv_p99_ms")
	}
}

// BenchmarkMarketIngestHTTP is the untraced baseline.
func BenchmarkMarketIngestHTTP(b *testing.B) { benchIngestHTTP(b, false) }

// BenchmarkMarketIngestHTTPTraced is the same workload with every
// batch traced. Its events/sec delta against the untraced run is the
// trace overhead, and its client-observed p99 is the
// generation→durable-ack distribution a traced producer sees.
// cmd/benchrun measures ingest end to end.
func BenchmarkMarketIngestHTTPTraced(b *testing.B) { benchIngestHTTP(b, true) }

// BenchmarkTimeToVerdict measures the verdict-timeline read path: a
// single app with reports spread over event time, b.N k-way-merge
// rebuilds of its timeline. The reported ttv_ms metric is the app's
// time_to_verdict_ms (3rd distinct reporter at 250ms spacing → 500),
// so the value is pinned by a bench run, not hand-entered.
func BenchmarkTimeToVerdict(b *testing.B) {
	st, _, err := Open(Config{Dir: b.TempDir(), Shards: 4, QueueCap: 1 << 16, DedupWindow: 1 << 20})
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	const n = 1000
	evs := make([]report.Event, n)
	for i := range evs {
		evs[i] = report.Event{App: "app-ttv", Bomb: "b", User: fmt.Sprintf("u-%d", i),
			TimeMs: 1000 + int64(i)*250, Info: "bench"}
	}
	if _, _, err := st.Ingest(evs); err != nil {
		b.Fatal(err)
	}

	b.ReportAllocs()
	b.ResetTimer()
	var tl Timeline
	for i := 0; i < b.N; i++ {
		tl = st.Timeline("app-ttv")
	}
	b.StopTimer()
	if tl.TimeToVerdictMs != 500 {
		b.Fatalf("TimeToVerdictMs = %d, want 500", tl.TimeToVerdictMs)
	}
	b.ReportMetric(float64(tl.TimeToVerdictMs), "ttv_ms")
}

// BenchmarkWALReplay measures crash-recovery speed: how fast Open can
// re-admit a shard's worth of committed records. Checkpoints are
// disabled throughout so every iteration pays the full replay; the
// checkpointed restart path is measured by BenchmarkRestartReplay*.
func BenchmarkWALReplay(b *testing.B) {
	dir := b.TempDir()
	const n = 20_000
	seedStore(b, dir, n, -1)

	b.ReportAllocs()
	b.ResetTimer()
	start := time.Now()
	for i := 0; i < b.N; i++ {
		st, stats, err := Open(Config{Dir: dir, Shards: 1, QueueCap: 1 << 16, DedupWindow: 1 << 20, CheckpointEvery: -1})
		if err != nil {
			b.Fatal(err)
		}
		if stats.Records != n {
			b.Fatalf("replayed %d records, want %d", stats.Records, n)
		}
		b.StopTimer()
		st.Close()
		b.StartTimer()
	}
	elapsed := time.Since(start)
	b.ReportMetric(float64(b.N)*n/elapsed.Seconds(), "events_sec")
}

// seedStore fills a fresh single-shard store under dir with n
// distinct-key events and closes it cleanly.
func seedStore(b *testing.B, dir string, n, ckptEvery int) {
	b.Helper()
	st, _, err := Open(Config{Dir: dir, Shards: 1, QueueCap: 1 << 16, DedupWindow: 1 << 20,
		MaxBatch: 1 << 14, CheckpointEvery: ckptEvery})
	if err != nil {
		b.Fatal(err)
	}
	evs := benchEvents(n)
	for off := 0; off < n; off += 4096 {
		end := off + 4096
		if end > n {
			end = n
		}
		if _, _, err := st.Ingest(evs[off:end]); err != nil {
			b.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		b.Fatal(err)
	}
}

// benchRestart times Open against a pre-seeded store of restartEvents
// records and reports milliseconds per restart, compared across the
// full-replay and checkpointed variants. cmd/benchrun's ingest_relay workload measures restarts end to end
// (restart.* per-layer metrics).
const restartEvents = 120_000

func benchRestart(b *testing.B, ckptEvery int) {
	dir := b.TempDir()
	seedStore(b, dir, restartEvents, ckptEvery)

	b.ReportAllocs()
	b.ResetTimer()
	start := time.Now()
	for i := 0; i < b.N; i++ {
		st, stats, err := Open(Config{Dir: dir, Shards: 1, QueueCap: 1 << 16, DedupWindow: 1 << 20,
			CheckpointEvery: ckptEvery})
		if err != nil {
			b.Fatal(err)
		}
		if stats.Records != restartEvents {
			b.Fatalf("restored %d records, want %d", stats.Records, restartEvents)
		}
		if ckptEvery > 0 && stats.Checkpoints != 1 {
			b.Fatalf("Checkpoints = %d, want 1", stats.Checkpoints)
		}
		b.StopTimer()
		st.Close()
		b.StartTimer()
	}
	elapsed := time.Since(start)
	b.ReportMetric(float64(elapsed.Milliseconds())/float64(b.N), "ms_restart")
}

// BenchmarkRestartReplayFull: restart cost with checkpointing off —
// O(total history), the PR-5 baseline.
func BenchmarkRestartReplayFull(b *testing.B) { benchRestart(b, -1) }

// BenchmarkRestartReplayCheckpoint: restart cost restoring the
// shutdown checkpoint and replaying an empty tail — O(checkpoint).
func BenchmarkRestartReplayCheckpoint(b *testing.B) { benchRestart(b, 1<<16) }

// BenchmarkStoreIngest isolates the store (no HTTP): partition,
// dedup, group commit, WAL flush.
func BenchmarkStoreIngest(b *testing.B) {
	st, _, err := Open(Config{Dir: b.TempDir(), Shards: 4, QueueCap: 1 << 16, DedupWindow: 1 << 20})
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	const batch = 512
	evs := benchEvents(batch)

	b.ReportAllocs()
	b.ResetTimer()
	start := time.Now()
	for i := 0; i < b.N; i++ {
		for j := range evs {
			evs[j].User = fmt.Sprintf("u-%d-%d", i, j)
		}
		if _, _, err := st.Ingest(evs); err != nil {
			b.Fatal(err)
		}
	}
	elapsed := time.Since(start)
	b.ReportMetric(float64(b.N*batch)/elapsed.Seconds(), "events_sec")
}

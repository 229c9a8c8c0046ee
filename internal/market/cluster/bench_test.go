package cluster_test

import (
	"context"
	"fmt"
	"testing"

	"bombdroid/internal/market/cluster"
	"bombdroid/internal/report"
)

// benchBatch builds one fan-out batch with globally unique keys so
// dedup never kicks in and every event takes the full admission path.
func benchBatch(iter, size int, evs []report.Event) []report.Event {
	evs = evs[:0]
	for j := 0; j < size; j++ {
		i := iter*size + j
		evs = append(evs, report.Event{
			App:    fmt.Sprintf("app-%d", i%16),
			Bomb:   fmt.Sprintf("bomb-%d", i%997),
			User:   fmt.Sprintf("u-bench-%d", i),
			TimeMs: int64(i),
			Info:   "bench",
		})
	}
	return evs
}

// loadedRouter stands a 3-node cluster up with n admitted events.
func loadedRouter(b *testing.B, n int) *cluster.Router {
	b.Helper()
	nodes := threeNodes(b)
	rt := newRouter(b, nodes)
	evs := make([]report.Event, 0, 512)
	ctx := context.Background()
	for off, iter := 0, 0; off < n; off, iter = off+512, iter+1 {
		size := 512
		if off+size > n {
			size = n - off
		}
		evs = benchBatch(iter, size, evs)
		if _, err := rt.PostCtx(ctx, evs); err != nil {
			b.Fatalf("preload: %v", err)
		}
	}
	return rt
}

// BenchmarkClusterIngest measures routed ingest through a 3-node HTTP
// cluster: batch partitioning, concurrent fan-out, per-node acks. It
// reports events/s and the router's fan-out p99; the repository
// benchmark is cmd/benchrun.
func BenchmarkClusterIngest(b *testing.B) {
	nodes := threeNodes(b)
	rt := newRouter(b, nodes)
	const batch = 512
	evs := make([]report.Event, 0, batch)
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		evs = benchBatch(i, batch, evs)
		if _, err := rt.PostCtx(ctx, evs); err != nil {
			b.Fatalf("PostCtx: %v", err)
		}
	}
	b.StopTimer()
	if s := b.Elapsed().Seconds(); s > 0 {
		b.ReportMetric(float64(b.N*batch)/s, "events/s")
	}
	snap := rt.Obs().Histogram("cluster_router_fanout_us", nil).Snapshot()
	b.ReportMetric(snap.Quantile(0.99)/1000.0, "p99fan_ms")
}

// BenchmarkFederatedVerdict measures one federated read: three
// concurrent node fetches plus the commutative sum.
func BenchmarkFederatedVerdict(b *testing.B) {
	rt := loadedRouter(b, 8192)
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := rt.VerdictCtx(ctx, "app-1"); err != nil {
			b.Fatalf("VerdictCtx: %v", err)
		}
	}
}

// BenchmarkFederatedTimeline measures the heavier federated read: raw
// per-shard parts from every node plus the k-way merge.
func BenchmarkFederatedTimeline(b *testing.B) {
	rt := loadedRouter(b, 8192)
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := rt.TimelineCtx(ctx, "app-1"); err != nil {
			b.Fatalf("TimelineCtx: %v", err)
		}
	}
}

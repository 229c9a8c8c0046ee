package exp

import (
	"bytes"
	"context"
	"encoding/json"
	"reflect"
	"sync"
	"testing"

	"bombdroid/internal/obs"
)

// TestTablesDeterministicAcrossWorkers pins the headline contract of
// the parallel evaluation engine: Workers:1 and Workers:8 produce
// identical rows for every table and figure, because seeds derive
// from item identity (app name, session index, grid cell) rather
// than from scheduling order.
func TestTablesDeterministicAcrossWorkers(t *testing.T) {
	serial := Quick()
	serial.Workers = 1
	par := Quick()
	par.Workers = 8

	ctx := context.Background()
	gens := []struct {
		name string
		run  func(Scale) (any, error)
	}{
		{"Table1", func(sc Scale) (any, error) { return Table1(ctx, sc) }},
		{"Table2", func(sc Scale) (any, error) { return Table2(ctx, sc) }},
		{"Table3", func(sc Scale) (any, error) { return Table3(ctx, sc) }},
		{"Table4", func(sc Scale) (any, error) { return Table4(ctx, sc) }},
		{"Table5", func(sc Scale) (any, error) { return Table5(ctx, sc) }},
		{"Figure4", func(sc Scale) (any, error) { return Figure4(ctx, sc) }},
		{"Figure5", func(sc Scale) (any, error) { return Figure5(ctx, sc) }},
	}
	for _, g := range gens {
		want, err := g.run(serial)
		if err != nil {
			t.Fatalf("%s workers=1: %v", g.name, err)
		}
		got, err := g.run(par)
		if err != nil {
			t.Fatalf("%s workers=8: %v", g.name, err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Errorf("%s differs across worker counts:\nserial:   %+v\nparallel: %+v", g.name, want, got)
		}
	}
}

// TestMetricsDeterministicAcrossWorkers extends the same contract to
// the obs layer: with metrics enabled, the deterministic snapshot
// (virtual-time counters and histograms; volatile scheduler-dependent
// series excluded) is byte-identical between Workers:1 and Workers:8.
func TestMetricsDeterministicAcrossWorkers(t *testing.T) {
	snapshot := func(workers int) []byte {
		sc := Quick()
		sc.Workers = workers
		sc.Obs = obs.NewRegistry()
		for name, gen := range map[string]func(Scale) error{
			"Table3": func(sc Scale) error { _, err := Table3(context.Background(), sc); return err },
			"Table4": func(sc Scale) error { _, err := Table4(context.Background(), sc); return err },
		} {
			if err := gen(sc); err != nil {
				t.Fatalf("%s workers=%d: %v", name, workers, err)
			}
		}
		b, err := sc.Obs.SnapshotDeterministic().JSON()
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	serial := snapshot(1)
	par := snapshot(8)
	if !bytes.Equal(serial, par) {
		t.Errorf("deterministic metrics snapshot differs across worker counts:\n--- workers=1\n%s\n--- workers=8\n%s",
			serial, par)
	}
	// Sanity: the snapshot is not trivially empty.
	var snap obs.Snapshot
	if err := json.Unmarshal(serial, &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Counters["sim_sessions_total"] == 0 {
		t.Error("snapshot carries no campaign counters; the test proved nothing")
	}
	if h, ok := snap.Histograms["sim_trigger_latency_ms"]; !ok || h.Count == 0 {
		t.Error("snapshot carries no trigger-latency observations")
	}
}

// TestPrepareOnceUnderContention hammers a cold Prepare key from
// eight goroutines: the per-key once must run the pipeline exactly
// one time and hand every caller the same PreparedApp.
func TestPrepareOnceUnderContention(t *testing.T) {
	// 1207 is an oddball event count no other test uses, so the key is
	// cold regardless of test order; PrepareRuns deltas stay immune to
	// whatever earlier tests already cached.
	const events = 1207
	before := PrepareRuns()
	apps := make([]*PreparedApp, 8)
	var wg sync.WaitGroup
	for i := range apps {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			p, err := PrepareCtx(context.Background(), "SWJournal", events)
			if err != nil {
				t.Errorf("Prepare: %v", err)
				return
			}
			apps[i] = p
		}(i)
	}
	wg.Wait()
	if d := PrepareRuns() - before; d != 1 {
		t.Errorf("pipeline ran %d times under contention, want 1", d)
	}
	for i, p := range apps {
		if p != apps[0] {
			t.Errorf("caller %d got a different PreparedApp instance", i)
		}
	}
	// A later wave is a pure cache hit.
	if _, err := PrepareCtx(context.Background(), "SWJournal", events); err != nil {
		t.Fatal(err)
	}
	if d := PrepareRuns() - before; d != 1 {
		t.Errorf("pipeline re-ran after warm cache: %d runs", d)
	}
}

// TestPrepareSharedAcrossTables is the report-invocation contract:
// after one table has prepared a scale's apps, every further table
// and figure of the same scale rides the cache — zero extra pipeline
// runs, the way a single `cmd/report -all` prepares each app once.
func TestPrepareSharedAcrossTables(t *testing.T) {
	sc := tiny()
	if _, err := Table2(context.Background(), sc); err != nil { // warms (app, ProfileEvents) keys
		t.Fatal(err)
	}
	before := PrepareRuns()
	if _, err := Table3(context.Background(), sc); err != nil {
		t.Fatal(err)
	}
	if _, err := Table5(context.Background(), sc); err != nil {
		t.Fatal(err)
	}
	if _, err := Figure4(context.Background(), sc); err != nil {
		t.Fatal(err)
	}
	if d := PrepareRuns() - before; d != 0 {
		t.Errorf("later tables re-ran the prepare pipeline %d times, want 0", d)
	}
}

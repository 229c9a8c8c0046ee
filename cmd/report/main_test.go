package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"bombdroid/internal/obs"
)

func TestScaleFor(t *testing.T) {
	sc, err := scaleFor("quick", 4)
	if err != nil {
		t.Fatalf("scaleFor(quick, 4): %v", err)
	}
	if sc.Workers != 4 {
		t.Fatalf("Workers = %d, want 4", sc.Workers)
	}
	if len(sc.Apps) == 0 {
		t.Fatal("quick scale has no apps")
	}
	if _, err := scaleFor("huge", 0); err == nil {
		t.Fatal("scaleFor(huge) should fail")
	}
	if _, err := scaleFor("quick", -1); err == nil {
		t.Fatal("scaleFor with negative workers should fail")
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	var out bytes.Buffer
	if err := run(context.Background(), &out, []string{"-scale", "huge"}); err == nil {
		t.Fatal("run with unknown scale should fail")
	}
	if err := run(context.Background(), &out, []string{"-no-such-flag"}); err == nil {
		t.Fatal("run with unknown flag should fail")
	}
	// A selector that names no section used to print nothing and
	// succeed; it must fail and name the valid values.
	for _, c := range []struct {
		args  []string
		valid string
	}{
		{[]string{"-table", "9"}, "1, 2, 3, 4, 5"},
		{[]string{"-figure", "1"}, "3, 4, 5"},
		{[]string{"-extra", "bogus"}, "fp, size, human, matrix, ablate, chaos"},
	} {
		err := run(context.Background(), &out, c.args)
		if err == nil || !strings.Contains(err.Error(), c.valid) {
			t.Errorf("run %v: err = %v, want an error naming %s", c.args, err, c.valid)
		}
	}
	if out.Len() != 0 {
		t.Errorf("rejected runs printed output:\n%s", out.String())
	}
}

// TestRunTable2WorkersIdentical exercises the real pipeline end to end
// and pins the -workers contract at the CLI boundary: serial and
// parallel runs print byte-identical tables. The second run rides the
// warm Prepare cache, so the cost is one prepared scale, not two.
func TestRunTable2WorkersIdentical(t *testing.T) {
	var serial, parallel bytes.Buffer
	if err := run(context.Background(), &serial, []string{"-table", "2", "-workers", "1"}); err != nil {
		t.Fatalf("run -workers 1: %v", err)
	}
	if !strings.Contains(serial.String(), "Table 2") {
		t.Fatalf("output missing Table 2 header:\n%s", serial.String())
	}
	if err := run(context.Background(), &parallel, []string{"-table", "2", "-workers", "8"}); err != nil {
		t.Fatalf("run -workers 8: %v", err)
	}
	if serial.String() != parallel.String() {
		t.Fatalf("serial and parallel output differ:\n--- workers=1\n%s\n--- workers=8\n%s",
			serial.String(), parallel.String())
	}
}

// TestRunMetricsSnapshot runs one table with -metrics and checks the
// snapshot file parses and carries the layers the run exercised:
// campaign counters, the Table 3 trigger-latency histogram, VM opcode
// counts, and pool metrics.
func TestRunMetricsSnapshot(t *testing.T) {
	path := filepath.Join(t.TempDir(), "metrics.json")
	var out bytes.Buffer
	if err := run(context.Background(), &out, []string{"-table", "3", "-metrics", path}); err != nil {
		t.Fatalf("run -metrics: %v", err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var snap obs.Snapshot
	if err := json.Unmarshal(b, &snap); err != nil {
		t.Fatalf("snapshot does not parse: %v", err)
	}
	if snap.Counters["sim_sessions_total"] == 0 {
		t.Error("snapshot missing sim_sessions_total")
	}
	if snap.Counters["exp_pool_tasks_total"] == 0 {
		t.Error("snapshot missing exp_pool_tasks_total")
	}
	if h, ok := snap.Histograms["sim_trigger_latency_ms"]; !ok || h.Count == 0 {
		t.Error("snapshot missing sim_trigger_latency_ms observations")
	}
	found := false
	for name, v := range snap.Counters {
		if strings.HasPrefix(name, "vm_op_total{") && v > 0 {
			found = true
			break
		}
	}
	if !found {
		t.Error("snapshot has no per-opcode VM counts")
	}
}

// TestServeDebugEndpoints scrapes every endpoint of the debug server
// directly (no race against a finishing run).
func TestServeDebugEndpoints(t *testing.T) {
	reg := obs.NewRegistry()
	reg.Counter("probe_total").Add(3)
	reg.Histogram("probe_ms", []int64{10}).Observe(7)
	stop, addr, err := obs.ServeDebug("127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	defer stop()

	get := func(path string) (int, string) {
		resp, err := http.Get(fmt.Sprintf("http://%s%s", addr, path))
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		return resp.StatusCode, string(body)
	}
	code, body := get("/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics status = %d", code)
	}
	for _, want := range []string{"# TYPE probe_total counter", "probe_total 3", "probe_ms_count 1"} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q:\n%s", want, body)
		}
	}
	code, body = get("/metrics.json")
	if code != http.StatusOK {
		t.Fatalf("/metrics.json status = %d", code)
	}
	var snap obs.Snapshot
	if err := json.Unmarshal([]byte(body), &snap); err != nil {
		t.Fatalf("/metrics.json does not parse: %v", err)
	}
	if snap.Counters["probe_total"] != 3 {
		t.Errorf("probe_total = %d, want 3", snap.Counters["probe_total"])
	}
	if code, _ := get("/debug/vars"); code != http.StatusOK {
		t.Errorf("/debug/vars status = %d", code)
	}
	if code, _ := get("/debug/pprof/cmdline"); code != http.StatusOK {
		t.Errorf("/debug/pprof/cmdline status = %d", code)
	}
}

// TestRunDebugAddr pins the CLI wiring: a run with -debug-addr binds,
// reports the bound address, and completes.
func TestRunDebugAddr(t *testing.T) {
	var out bytes.Buffer
	if err := run(context.Background(), &out, []string{"-table", "2", "-debug-addr", "127.0.0.1:0"}); err != nil {
		t.Fatalf("run -debug-addr: %v", err)
	}
	if !strings.Contains(out.String(), "debug endpoint listening on 127.0.0.1:") {
		t.Fatalf("missing bound-address line:\n%s", out.String())
	}
}

// TestRunCancelled: a cancelled context aborts report generation with
// the context's error instead of producing output.
func TestRunCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var out bytes.Buffer
	if err := run(ctx, &out, []string{"-table", "3"}); !errors.Is(err, context.Canceled) {
		t.Fatalf("run under cancelled ctx: err = %v, want context.Canceled", err)
	}
}

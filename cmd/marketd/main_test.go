package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"bombdroid/internal/market"
	"bombdroid/internal/report"
)

// daemonEnv, set to 1, makes the test binary run marketd's main
// instead of the tests, so a test can start the daemon as a real
// process and signal it.
const daemonEnv = "MARKETD_TEST_DAEMON"

func TestMain(m *testing.M) {
	if os.Getenv(daemonEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// daemonProc is marketd running as a child process on an ephemeral
// port, its stdout and stderr collected line by line.
type daemonProc struct {
	cmd  *exec.Cmd
	url  string
	done chan struct{} // closed once the child's output hits EOF
	mu   sync.Mutex
	out  strings.Builder
}

// startProc re-executes the test binary as marketd with args and
// waits until it is listening.
func startProc(t *testing.T, args ...string) *daemonProc {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(exe, append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	cmd.Env = append(os.Environ(), daemonEnv+"=1")
	pipe, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = cmd.Stdout
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	p := &daemonProc{cmd: cmd, done: make(chan struct{})}
	ready := make(chan string, 1)
	go func() {
		defer close(p.done)
		sc := bufio.NewScanner(pipe)
		for sc.Scan() {
			p.mu.Lock()
			p.out.WriteString(sc.Text() + "\n")
			p.mu.Unlock()
			if addr, ok := strings.CutPrefix(sc.Text(), "marketd: listening on "); ok {
				ready <- addr
			}
		}
	}()
	t.Cleanup(func() {
		if cmd.ProcessState == nil {
			cmd.Process.Kill()
			p.wait(t)
		}
	})
	select {
	case addr := <-ready:
		p.url = "http://" + addr
	case <-p.done:
		p.wait(t)
		t.Fatalf("daemon exited before listening:\n%s", p.output())
	case <-time.After(20 * time.Second):
		t.Fatalf("daemon never listened:\n%s", p.output())
	}
	return p
}

func (p *daemonProc) output() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.out.String()
}

// wait reaps the child once its output is drained and returns its
// exit error.
func (p *daemonProc) wait(t *testing.T) error {
	t.Helper()
	select {
	case <-p.done:
	case <-time.After(20 * time.Second):
		t.Fatalf("daemon did not exit:\n%s", p.output())
	}
	return p.cmd.Wait()
}

// terminate SIGTERMs the daemon and requires a clean shutdown.
func (p *daemonProc) terminate(t *testing.T) {
	t.Helper()
	if err := p.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := p.wait(t); err != nil || !strings.Contains(p.output(), "marketd: clean shutdown") {
		t.Fatalf("SIGTERM exit = %v, want a clean shutdown:\n%s", err, p.output())
	}
}

// hoseBatch is batch i of a deterministic fire-hose run: n events over
// 64 apps, unique per (run, index), so re-posting it is pure duplicates.
func hoseBatch(run string, i, n int) []report.Event {
	evs := make([]report.Event, n)
	for j := range evs {
		k := i*n + j
		evs[j] = report.Event{App: fmt.Sprintf("app-%d", k%64), Bomb: fmt.Sprintf("bomb-%d", k%997),
			User: fmt.Sprintf("u-%s-%d", run, k), TimeMs: int64(k)}
	}
	return evs
}

// TestDaemonKill9Recovery: the daemon as a real process, killed with
// SIGKILL while a hose is writing. The restart recovers from
// checkpoints, every acked event is still there (re-posting it is all
// duplicates), and a SIGTERM restart after that serves the same
// verdict.
func TestDaemonKill9Recovery(t *testing.T) {
	args := []string{"-data", t.TempDir(), "-shards", "2", "-threshold", "3", "-checkpoint-every", "1000"}
	ctx := context.Background()
	p := startProc(t, args...)
	cl := &market.Client{BaseURL: p.url, Retry: &market.RetryPolicy{}}
	var hoseA []report.Event
	for i := 0; i < 20; i++ {
		batch := hoseBatch("A", i, 250)
		res, err := cl.Reports().Post(ctx, batch)
		if err != nil || res.Accepted != len(batch) {
			t.Fatalf("hose A batch %d = %+v (%v), want all accepted", i, res, err)
		}
		hoseA = append(hoseA, batch...)
	}

	// Hose B writes until the daemon dies; the kill lands once some of
	// its batches are acked, so it hits a live write stream.
	var ackedB []report.Event
	hoseDone := make(chan struct{})
	warm := make(chan struct{})
	go func() {
		defer close(hoseDone)
		for i := 0; ; i++ {
			batch := hoseBatch("B", i, 100)
			if _, err := cl.Reports().Post(ctx, batch); err != nil {
				return
			}
			ackedB = append(ackedB, batch...)
			if i == 10 {
				close(warm)
			}
		}
	}()
	select {
	case <-warm:
	case <-hoseDone:
		t.Fatal("hose B failed before the kill")
	}
	if err := p.cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	<-hoseDone
	if err := p.wait(t); err == nil {
		t.Fatal("SIGKILLed daemon exited cleanly")
	}
	if strings.Contains(p.output(), "clean shutdown") {
		t.Fatalf("SIGKILLed daemon claims a clean shutdown:\n%s", p.output())
	}

	p = startProc(t, args...)
	if !strings.Contains(p.output(), "2/2 shards from checkpoint") {
		t.Errorf("crash restart did not recover from checkpoints:\n%s", p.output())
	}
	cl = &market.Client{BaseURL: p.url, Retry: &market.RetryPolicy{}}
	for _, acked := range [][]report.Event{hoseA, ackedB} {
		res, err := cl.Reports().Post(ctx, acked)
		if err != nil || res.Accepted != 0 || res.Duplicates != len(acked) {
			t.Fatalf("re-post of %d acked events = %+v (%v), want all duplicates", len(acked), res, err)
		}
	}
	before, err := cl.Verdicts().Get(ctx, "app-0")
	if err != nil || !before.Flagged {
		t.Fatalf("verdict after crash restart = %+v (%v), want app-0 flagged", before, err)
	}
	p.terminate(t)

	p = startProc(t, args...)
	after, err := (&market.Client{BaseURL: p.url}).Verdicts().Get(ctx, "app-0")
	if err != nil || after != before {
		t.Errorf("verdict across restart = %+v (%v), want %+v", after, err, before)
	}
	p.terminate(t)
}

// startDaemon runs the daemon against dir on an ephemeral port and
// returns its base URL plus a stop function that cancels it and
// returns the full output after a clean exit.
func startDaemon(t *testing.T, dir string, extra ...string) (string, func() string) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	var out bytes.Buffer
	var mu sync.Mutex
	ready := make(chan string, 1)
	errc := make(chan error, 1)
	args := append([]string{"-addr", "127.0.0.1:0", "-data", dir}, extra...)
	go func() {
		mu.Lock()
		defer mu.Unlock()
		errc <- run(ctx, &out, args, ready)
	}()
	var addr string
	select {
	case addr = <-ready:
	case err := <-errc:
		t.Fatalf("daemon exited before ready: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("daemon never became ready")
	}
	return "http://" + addr, func() string {
		cancel()
		select {
		case err := <-errc:
			if err != nil {
				t.Fatalf("daemon exited with error: %v", err)
			}
		case <-time.After(15 * time.Second):
			t.Fatal("daemon did not shut down")
		}
		mu.Lock()
		defer mu.Unlock()
		return out.String()
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	var out bytes.Buffer
	if err := run(context.Background(), &out, []string{"-no-such-flag"}, nil); err == nil {
		t.Fatal("unknown flag should fail")
	}
	if err := run(context.Background(), &out, nil, nil); err == nil {
		t.Fatal("missing -data should fail")
	}
	if err := run(context.Background(), &out, []string{"-data", t.TempDir(), "-queue-cap", "-1"}, nil); err == nil {
		t.Fatal("negative queue-cap should fail Validate")
	}
}

// TestDaemonLifecycle: start, ingest, verdict, SIGTERM-equivalent
// cancel, restart — the restarted daemon replays the WAL and serves
// the identical verdict.
func TestDaemonLifecycle(t *testing.T) {
	dir := t.TempDir()
	base, stop := startDaemon(t, dir, "-shards", "2", "-threshold", "2")
	cl := &market.Client{BaseURL: base}

	evs := []report.Event{
		{App: "app.x", Bomb: "b1", User: "u1", TimeMs: 1},
		{App: "app.x", Bomb: "b1", User: "u2", TimeMs: 2},
		{App: "app.x", Bomb: "b1", User: "u1", TimeMs: 3}, // dup
	}
	res, err := cl.Reports().Post(context.Background(), evs)
	if err != nil {
		t.Fatalf("Post: %v", err)
	}
	if res.Accepted != 2 || res.Duplicates != 1 {
		t.Fatalf("Post = %+v, want accepted 2, duplicates 1", res)
	}
	v1, err := cl.Verdicts().Get(context.Background(), "app.x")
	if err != nil {
		t.Fatalf("Verdict: %v", err)
	}
	if !v1.Flagged || v1.Channels.Reports.Detections != 2 {
		t.Fatalf("verdict = %+v, want repackaged with 2 detections", v1)
	}

	output := stop()
	if !strings.Contains(output, "marketd: listening on 127.0.0.1:") {
		t.Errorf("missing listening line:\n%s", output)
	}
	if !strings.Contains(output, "marketd: clean shutdown") {
		t.Errorf("missing clean-shutdown line:\n%s", output)
	}

	// Restart over the same data dir: replay must reproduce the state.
	base2, stop2 := startDaemon(t, dir, "-shards", "2", "-threshold", "2")
	cl2 := &market.Client{BaseURL: base2}
	v2, err := cl2.Verdicts().Get(context.Background(), "app.x")
	if err != nil {
		t.Fatalf("Verdict after restart: %v", err)
	}
	if v2 != v1 {
		t.Errorf("verdict changed across restart: %+v vs %+v", v1, v2)
	}
	// Dedup state replayed too: the old batch is all duplicates.
	res2, err := cl2.Reports().Post(context.Background(), evs)
	if err != nil || res2.Accepted != 0 || res2.Duplicates != 3 {
		t.Errorf("re-Post after restart = %+v (%v), want all duplicates", res2, err)
	}
	output2 := stop2()
	if !strings.Contains(output2, "recovered 2 records") {
		t.Errorf("missing replay summary:\n%s", output2)
	}
}

func TestDaemonDebugAddr(t *testing.T) {
	base, stop := startDaemon(t, t.TempDir(), "-debug-addr", "127.0.0.1:0")
	cl := &market.Client{BaseURL: base}
	if _, err := cl.Reports().Post(context.Background(), []report.Event{{App: "a", Bomb: "b", User: "u"}}); err != nil {
		t.Fatal(err)
	}
	output := stop()
	if !strings.Contains(output, "marketd: debug endpoint listening on 127.0.0.1:") {
		t.Errorf("missing debug endpoint line:\n%s", output)
	}
}

// TestDaemonCheckpointRestart: a restart after a clean shutdown comes
// back from the checkpoint (zero tail records) and says so in the
// recovery line; /healthz reports every shard ok.
func TestDaemonCheckpointRestart(t *testing.T) {
	dir := t.TempDir()
	base, stop := startDaemon(t, dir, "-shards", "2", "-checkpoint-every", "100")
	cl := &market.Client{BaseURL: base}
	var evs []report.Event
	for i := 0; i < 50; i++ {
		evs = append(evs, report.Event{App: "app.ck", Bomb: fmt.Sprintf("b%d", i), User: "u", TimeMs: int64(i)})
	}
	if _, err := cl.Reports().Post(context.Background(), evs); err != nil {
		t.Fatalf("Post: %v", err)
	}
	stop()

	base2, stop2 := startDaemon(t, dir, "-shards", "2", "-checkpoint-every", "100")
	resp, err := http.Get(base2 + "/healthz")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz after restart: %v %v", resp, err)
	}
	var health struct {
		Status         string `json:"status"`
		ShardsOK       int    `json:"shards_ok"`
		ShardsDegraded int    `json:"shards_degraded"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatalf("healthz body: %v", err)
	}
	resp.Body.Close()
	if health.Status != "ok" || health.ShardsOK != 2 || health.ShardsDegraded != 0 {
		t.Errorf("healthz = %+v, want 2 ok shards", health)
	}
	cl2 := &market.Client{BaseURL: base2}
	res, err := cl2.Reports().Post(context.Background(), evs)
	if err != nil || res.Accepted != 0 || res.Duplicates != 50 {
		t.Errorf("re-Post after checkpoint restart = %+v (%v), want all duplicates", res, err)
	}
	output := stop2()
	if !strings.Contains(output, "recovered 50 records") {
		t.Errorf("missing recovery summary:\n%s", output)
	}
	if !strings.Contains(output, "2/2 shards from checkpoint, 0 tail records") {
		t.Errorf("restart did not come from checkpoints:\n%s", output)
	}
}

// TestDaemonPinsShardRange: a daemon restarted with a -shard-range
// that disagrees with the data directory's meta.json must refuse to
// start, exactly like a -shards change.
func TestDaemonPinsShardRange(t *testing.T) {
	dir := t.TempDir()
	_, stop := startDaemon(t, dir, "-node-id", "n0", "-slots", "16", "-shard-range", "0:8")
	stop()

	var out bytes.Buffer
	err := run(context.Background(), &out,
		[]string{"-addr", "127.0.0.1:0", "-data", dir, "-node-id", "n0", "-slots", "16", "-shard-range", "0:16"}, nil)
	if err == nil || !strings.Contains(err.Error(), "shard range") {
		t.Fatalf("range change started (err = %v), want refusal", err)
	}
	if err := run(context.Background(), &out,
		[]string{"-data", t.TempDir(), "-shard-range", "8:4"}, nil); err == nil {
		t.Fatal("malformed -shard-range accepted")
	}
}

// TestRouterMode: three partial-range daemons plus a -router daemon;
// writes through the router land on the owning nodes and the
// federated verdict counts them all. One node then restarts on the
// same address over its own data dir under the live router, and the
// federated verdict does not change.
func TestRouterMode(t *testing.T) {
	n1Args := []string{"-node-id", "n1", "-slots", "16", "-shard-range", "5:11", "-shards", "2"}
	n1Dir := t.TempDir()
	u0, stop0 := startDaemon(t, t.TempDir(), "-node-id", "n0", "-slots", "16", "-shard-range", "0:5", "-shards", "2")
	u1, stop1 := startDaemon(t, n1Dir, n1Args...)
	u2, stop2 := startDaemon(t, t.TempDir(), "-node-id", "n2", "-slots", "16", "-shard-range", "11:16", "-shards", "2")
	defer stop0()
	defer stop2()

	ur, stopR := startDaemon(t, t.TempDir(), "-router", "-nodes", u0+","+u1+","+u2)
	cl := &market.Client{BaseURL: ur}
	var evs []report.Event
	for i := 0; i < 60; i++ {
		evs = append(evs, report.Event{App: "app.r", Bomb: fmt.Sprintf("b%d", i), User: "u1", TimeMs: int64(i + 1)})
	}
	pr, err := cl.Reports().Post(context.Background(), evs)
	if err != nil || pr.Accepted != 60 {
		t.Fatalf("post through router = %+v (%v), want 60 accepted", pr, err)
	}
	v, err := cl.Verdicts().Get(context.Background(), "app.r")
	if err != nil || v.Channels.Reports.Detections != 60 || !v.Flagged {
		t.Fatalf("federated verdict = %+v (%v), want 60 detections", v, err)
	}
	// No single node holds the full count.
	for _, u := range []string{u0, u1, u2} {
		nv, err := (&market.Client{BaseURL: u}).Verdicts().Get(context.Background(), "app.r")
		if err != nil {
			t.Fatal(err)
		}
		if nv.Channels.Reports.Detections == 60 || nv.Channels.Reports.Detections == 0 {
			t.Errorf("node %s holds %d detections, want a proper share", u, nv.Channels.Reports.Detections)
		}
	}

	// Restart n1 on its old address with the flags its meta.json
	// pinned; the router keeps its membership and serves the same
	// federated verdict.
	if out := stop1(); !strings.Contains(out, "clean shutdown") {
		t.Fatalf("node n1 did not shut down cleanly:\n%s", out)
	}
	u1b, stop1b := startDaemon(t, n1Dir, append([]string{"-addr", strings.TrimPrefix(u1, "http://")}, n1Args...)...)
	defer stop1b()
	if u1b != u1 {
		t.Fatalf("n1 restarted on %s, want %s", u1b, u1)
	}
	v2, err := cl.Verdicts().Get(context.Background(), "app.r")
	if err != nil || v2 != v {
		t.Errorf("federated verdict after node restart = %+v (%v), want %+v", v2, err, v)
	}
	out := stopR()
	if !strings.Contains(out, "router listening") || !strings.Contains(out, "clean shutdown") {
		t.Errorf("router output missing lifecycle lines:\n%s", out)
	}
}

// TestRouterModeRequiresNodes covers the flag cross-checks.
func TestRouterModeRequiresNodes(t *testing.T) {
	var out bytes.Buffer
	if err := run(context.Background(), &out, []string{"-router"}, nil); err == nil {
		t.Fatal("-router without -nodes should fail")
	}
	if err := run(context.Background(), &out, []string{"-data", t.TempDir(), "-nodes", "http://x"}, nil); err == nil {
		t.Fatal("-nodes without -router should fail")
	}
}

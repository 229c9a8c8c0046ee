// Command benchrun is the repository's benchmark: it runs one workload
// against the system through the packages' public APIs, checks that the
// outputs are correct, and prints the measured metrics as one JSON line.
//
// Usage:
//
//	benchrun --workload NAME --seed N --seconds S --trace 0|1
//	benchrun -series FILE [-runs N] [-seed-from K] [-seconds S] [-trace 0|1]
//	benchrun -compare A.jsonl B.jsonl
//
// The first form is one run: --seed generates every input, --seconds
// sets how long the timed part measures, and --trace 1 makes it the
// per-layer run (spans and layer counters on; it prints the per-layer
// metrics instead of the end-to-end ones). The last line of standard
// output is {"correct","attempted","failed","metrics"}; the exit code
// is non-zero if a correctness check fails. -series runs the first
// form for every workload repeatedly, each run its own process,
// workloads interleaved, appends each result to FILE, and stops at the
// first run that fails a check. -compare reads two such files and the
// bounds in ./BENCHMARK.json and reports, per workload and end-to-end
// metric, whether B is better, worse beyond the metric's bound, or
// unresolved; a B run that fails a check or more failed operations in
// B than in A also count as a regression, and it exits non-zero on
// one. README.md describes the workloads and metrics.
package main

import (
	"bufio"
	"context"
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
)

// baseline.json records the reference environment, the default-seed
// output digests, and the measured spreads the bounds came from.
//
//go:embed baseline.json
var baselineJSON []byte

type baseline struct {
	DigestSeed    int64             `json:"digest_seed"`
	DigestSeconds float64           `json:"digest_seconds"`
	Digests       map[string]string `json:"digests"`
}

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchrun", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload to run: "+describe())
	seed := fs.Int64("seed", 1, "seed every input is generated from")
	seconds := fs.Float64("seconds", 14, "how long the timed part measures (BENCHMARK.json: run_seconds)")
	trace := fs.Int("trace", 0, "1: the per-layer run")
	series := fs.String("series", "", "append the results of repeated runs to this file")
	runs := fs.Int("runs", 10, "-series: runs per workload")
	seedFrom := fs.Int64("seed-from", 1, "-series: seed of the first run; later runs count up")
	compare := fs.Bool("compare", false, "compare the two series files given as arguments")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	switch {
	case *compare:
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "benchrun: -compare needs two series files")
			return 2
		}
		regressed, err := compareFiles(stdout, "BENCHMARK.json", fs.Arg(0), fs.Arg(1))
		if err != nil {
			fmt.Fprintln(stderr, "benchrun:", err)
			return 2
		}
		if regressed {
			return 1
		}
		return 0
	case *series != "":
		if err := runSeries(ctx, stderr, *series, *runs, *seedFrom, *seconds, *trace); err != nil {
			fmt.Fprintln(stderr, "benchrun:", err)
			return 1
		}
		return 0
	}
	fn, ok := workloads[*workload]
	if !ok {
		fmt.Fprintf(stderr, "benchrun: unknown workload %q (want one of %s)\n", *workload, describe())
		return 2
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "benchrun: -seconds must be positive and -trace 0 or 1")
		return 2
	}
	fmt.Fprintln(stderr, "benchrun: env", envLine())
	dir := filepath.Join(".bench_build", fmt.Sprintf("run-%d", os.Getpid()))
	defer os.RemoveAll(dir)
	c := &config{seed: *seed, seconds: *seconds, trace: *trace == 1, workers: runtime.NumCPU(), dir: dir}
	out, err := runWorkload(ctx, stderr, *workload, fn, c)
	if err != nil {
		fmt.Fprintln(stderr, "benchrun:", err)
		return 1
	}
	line, _ := json.Marshal(out)
	fmt.Fprintln(stdout, string(line))
	if !out.Correct {
		return 1
	}
	return 0
}

// runWorkload runs one workload and checks its output digest against
// the pinned one.
func runWorkload(ctx context.Context, log io.Writer, name string, fn workloadFunc, c *config) (output, error) {
	m := newMeter(c)
	if err := fn(ctx, m); err != nil {
		return output{}, err
	}
	if err := ctx.Err(); err != nil {
		return output{}, err
	}
	var b baseline
	if err := json.Unmarshal(baselineJSON, &b); err != nil {
		return output{}, fmt.Errorf("baseline.json: %w", err)
	}
	b.checkDigest(m, name)
	fmt.Fprintf(log, "benchrun: %s digest %s\n", name, m.digest)
	for _, p := range m.problems {
		fmt.Fprintln(log, "benchrun: check failed:", p)
	}
	return m.result(), nil
}

// checkDigest compares a run's output digest with the pinned one when
// the run used the pinned seed and length: the digest covers outputs
// the run length decides (how many requests the open-loop phases
// send), so other lengths have no pinned value.
func (b baseline) checkDigest(m *meter, name string) {
	c := m.c
	if want, ok := b.Digests[name]; ok && !c.tiny && c.seed == b.DigestSeed && c.seconds == b.DigestSeconds {
		m.checkf(m.digest == want, "output digest %s, pinned %s", m.digest, want)
	}
}

// envLine describes the machine a result comes from.
func envLine() string {
	return fmt.Sprintf("nproc=%d gomaxprocs=%d go=%s os=%s/%s cpu=%q",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH, cpuModel())
}

// cpuModel reads the CPU model name, "" where /proc/cpuinfo has none.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return ""
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return ""
}

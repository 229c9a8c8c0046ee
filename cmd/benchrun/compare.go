package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sort"
	"strconv"
)

// record is one line of a series file: one run's result.
type record struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Trace    int    `json:"trace"`
	Result   output `json:"result"`
}

// runSeries runs every workload runs times, each run its own process
// as the benchmark's users run it, interleaving workloads so drift in
// the machine's speed spreads over all of them, and appends every
// result to path. Run r of every workload uses seed seedFrom+r. A run
// that fails a check ends the series: its numbers measure a broken
// program.
func runSeries(ctx context.Context, log io.Writer, path string, runs int,
	seedFrom int64, seconds float64, trace int) error {
	names := workloadNames()
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	defer f.Close()
	for r := 0; r < runs; r++ {
		for k := range names {
			w := names[(k+r)%len(names)]
			seed := seedFrom + int64(r)
			cmd := exec.CommandContext(ctx, exe, "--workload", w, "--seed", strconv.FormatInt(seed, 10),
				"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", strconv.Itoa(trace))
			cmd.Stderr = log
			out, runErr := cmd.Output()
			res, err := lastResult(out)
			if err != nil {
				return fmt.Errorf("%s seed %d: %v (%v)", w, seed, err, runErr)
			}
			line, _ := json.Marshal(record{Workload: w, Seed: seed, Trace: trace, Result: res})
			if _, err := f.Write(append(line, '\n')); err != nil {
				return err
			}
			fmt.Fprintf(log, "benchrun: series %s seed %d correct=%v failed=%d\n", w, seed, res.Correct, res.Failed)
			if !res.Correct {
				return fmt.Errorf("%s seed %d failed a correctness check", w, seed)
			}
		}
	}
	return f.Close()
}

var errNoResult = errors.New("run printed no result line")

// lastResult parses the last non-empty line of a run's output.
func lastResult(out []byte) (output, error) {
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var res output
	if len(lines) == 0 || len(lines[len(lines)-1]) == 0 {
		return res, errNoResult
	}
	err := json.Unmarshal(lines[len(lines)-1], &res)
	return res, err
}

// benchSpec is the part of BENCHMARK.json compare needs.
type benchSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// workloadRuns is one series file's untraced runs of one workload.
type workloadRuns struct {
	metrics           map[string]map[int64]float64 // metric → seed → value
	incorrect, failed int                          // runs that failed a check; failed ops
}

// series maps workload → its runs.
type series map[string]*workloadRuns

func readSeries(path string) (series, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	s := series{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) == 0 {
			continue
		}
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if r.Trace != 0 {
			continue
		}
		w := s[r.Workload]
		if w == nil {
			w = &workloadRuns{metrics: map[string]map[int64]float64{}}
			s[r.Workload] = w
		}
		if !r.Result.Correct {
			w.incorrect++
		}
		w.failed += r.Result.Failed
		for name, v := range r.Result.Metrics {
			if w.metrics[name] == nil {
				w.metrics[name] = map[int64]float64{}
			}
			w.metrics[name][r.Seed] = v.Value
		}
	}
	return s, sc.Err()
}

// verdict judges B against A for one metric. worse is B's median
// change in the metric's bad direction, as a share of A's median;
// spread the larger of the two sides' quartile distance over median.
// A spread beyond the bound leaves the metric unresolved unless every
// B run beats every A run. Within the bound, B is worse when its
// median lost more than the bound, and better when it wins at least
// nine tenths of the seed pairs by more than A's own quartile
// distance.
func verdict(a, b map[int64]float64, lowerBetter bool, bound float64) (v string, worse, spread float64) {
	av, bv := values(a), values(b)
	aq1, am, aq3 := quartiles(av)
	bq1, bm, bq3 := quartiles(bv)
	if am == 0 || bm == 0 {
		return "unresolved", 0, 0
	}
	better := func(x, y float64) bool { // x better than y
		if lowerBetter {
			return x < y
		}
		return x > y
	}
	worse = (bm - am) / am
	if !lowerBetter {
		worse = -worse
	}
	spread = max((aq3-aq1)/am, (bq3-bq1)/bm)
	// Every B run beats every A run when B's worst beats A's best.
	allBetter := better(extreme(bv, lowerBetter), extreme(av, !lowerBetter))
	switch {
	case spread > bound && allBetter:
		return "better", worse, spread
	case spread > bound:
		return "unresolved", worse, spread
	case worse > bound:
		return "worse", worse, spread
	}
	wins, pairs := 0, 0
	for seed, x := range b {
		if y, ok := a[seed]; ok {
			pairs++
			if better(x, y) {
				wins++
			}
		}
	}
	if pairs > 0 && wins*10 >= pairs*9 && -worse*am > aq3-aq1 {
		return "better", worse, spread
	}
	return "same", worse, spread
}

// extreme is the largest of xs, or the smallest when largest is false.
func extreme(xs []float64, largest bool) float64 {
	s := sortedCopy(xs)
	if largest {
		return s[len(s)-1]
	}
	return s[0]
}

func values(m map[int64]float64) []float64 {
	out := make([]float64, 0, len(m))
	for _, v := range m {
		out = append(out, v)
	}
	return out
}

// compareFiles prints, per workload, a row for its correctness and one
// row per end-to-end metric, and reports whether anything regressed.
// A B run that failed a check, or more failed operations in B than in
// A, is a regression whatever the metrics read: cheap failures can
// make a program look faster. A run of A that failed a check makes the
// comparison meaningless, so it is an error.
func compareFiles(w io.Writer, benchPath, pathA, pathB string) (bool, error) {
	raw, err := os.ReadFile(benchPath)
	if err != nil {
		return false, err
	}
	var spec benchSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		return false, fmt.Errorf("%s: %w", benchPath, err)
	}
	a, err := readSeries(pathA)
	if err != nil {
		return false, err
	}
	b, err := readSeries(pathB)
	if err != nil {
		return false, err
	}
	names := make([]string, 0, len(a))
	for n := range a {
		names = append(names, n)
	}
	sort.Strings(names)
	regressed := false
	fmt.Fprintf(w, "%-15s %-17s %12s %25s %12s %25s %8s %8s %7s  %s\n",
		"workload", "metric", "A median", "A [q1, q3]", "B median", "B [q1, q3]", "worse", "spread", "bound", "verdict")
	for _, wl := range names {
		ra, rb := a[wl], b[wl]
		if ra.incorrect > 0 {
			return false, fmt.Errorf("%s: %d %s runs failed a check", pathA, ra.incorrect, wl)
		}
		if rb == nil {
			regressed = true
			fmt.Fprintf(w, "%-15s %-17s no runs in B  worse\n", wl, "checks")
			continue
		}
		checks := "ok"
		if rb.incorrect > 0 || rb.failed > ra.failed {
			checks, regressed = "worse", true
		}
		fmt.Fprintf(w, "%-15s %-17s %38s %38s  %s\n", wl, "checks",
			fmt.Sprintf("A: 0 incorrect, %d failed ops", ra.failed),
			fmt.Sprintf("B: %d incorrect, %d failed ops", rb.incorrect, rb.failed), checks)
		for _, mt := range spec.EndToEnd {
			av, bv := ra.metrics[mt.Name], rb.metrics[mt.Name]
			if len(av) == 0 || len(bv) == 0 {
				fmt.Fprintf(w, "%-15s %-17s missing on one side\n", wl, mt.Name)
				continue
			}
			v, worse, spread := verdict(av, bv, mt.Better == "lower", mt.Bound)
			regressed = regressed || v == "worse"
			aq1, am, aq3 := quartiles(values(av))
			bq1, bm, bq3 := quartiles(values(bv))
			fmt.Fprintf(w, "%-15s %-17s %12.4g %25s %12.4g %25s %+7.1f%% %7.1f%% %6.0f%%  %s\n",
				wl, mt.Name, am, fmt.Sprintf("[%.4g, %.4g]", aq1, aq3), bm, fmt.Sprintf("[%.4g, %.4g]", bq1, bq3),
				100*worse, 100*spread, 100*mt.Bound, v)
		}
	}
	return regressed, nil
}

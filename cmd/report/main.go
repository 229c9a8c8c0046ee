// Command report regenerates the paper's tables and figures.
//
// Usage:
//
//	report [-scale quick|full] [-workers N] [-table N] [-figure N] [-extra name] [-all]
//	       [-metrics out.json] [-debug-addr :6060]
//
// With -all (the default when nothing is selected) every table, figure
// and extra experiment is produced in order; -table, -figure and
// -extra each pick one, and a value that names none is an error.
// Extras: fp (false positives), size (code size), human (analyst
// study), matrix (attack × protection resilience matrix), ablate
// (design-choice ablations), chaos (fault-injection resilience
// campaigns).
//
// -workers bounds the evaluation worker pool: 0 (default) uses all
// available cores, 1 forces the fully serial path. Either setting
// produces byte-identical output; -workers only changes wall-clock.
//
// -metrics turns on the obs layer for the whole run (VM opcode
// profiles, pool utilization, campaign counters, report-pipeline
// counters, prepare spans) and writes the JSON snapshot to the given
// path at exit. -debug-addr serves live observability over HTTP while
// the run executes: /metrics (Prometheus text), /metrics.json,
// /debug/pprof/* and /debug/vars.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"slices"
	"strconv"
	"strings"
	"syscall"

	"bombdroid/internal/exp"
	"bombdroid/internal/obs"
)

// run drives the whole report generation; main is just signal and
// exit-code plumbing around it so tests can call run directly.
// Cancelling ctx (main wires it to SIGINT/SIGTERM) stops the worker
// pools from claiming further items and returns the context's error;
// a -metrics snapshot of everything finished so far is still written.
func run(ctx context.Context, out io.Writer, args []string) (err error) {
	fs := flag.NewFlagSet("report", flag.ContinueOnError)
	scale := fs.String("scale", "quick", "workload scale: quick or full")
	workers := fs.Int("workers", 0, "parallel workers (0 = all cores, 1 = serial)")
	table := fs.Int("table", 0, "print one table (1-5)")
	figure := fs.Int("figure", 0, "print one figure (3-5)")
	extra := fs.String("extra", "", "print one extra: fp, size, human, matrix, ablate, chaos")
	all := fs.Bool("all", false, "print everything")
	metricsPath := fs.String("metrics", "", "collect run metrics and write the JSON snapshot to this path")
	debugAddr := fs.String("debug-addr", "", "serve /metrics, /metrics.json and /debug/pprof on this address while running")
	if err := fs.Parse(args); err != nil {
		return err
	}

	sc, err := scaleFor(*scale, *workers)
	if err != nil {
		return err
	}
	list := experiments()
	selected, err := pick(list, *table, *figure, *extra)
	if err != nil {
		return err
	}
	var reg *obs.Registry
	if *metricsPath != "" || *debugAddr != "" {
		reg = obs.NewRegistry()
		sc.Obs = reg
	}
	if *debugAddr != "" {
		stop, bound, err := obs.ServeDebug(*debugAddr, reg)
		if err != nil {
			return err
		}
		defer stop()
		fmt.Fprintf(out, "debug endpoint listening on %s\n\n", bound)
	}
	if *metricsPath != "" {
		defer func() {
			if werr := writeMetrics(*metricsPath, reg); werr != nil && err == nil {
				err = werr
			}
		}()
	}

	everything := *all || len(selected) == 0
	for _, e := range list {
		if !everything && selected[e.flag] != e.sel {
			continue
		}
		text, err := e.run(ctx, sc)
		if err != nil {
			return err
		}
		fmt.Fprintln(out, text)
	}
	return nil
}

// experiment is one section of the report: the flag that selects it
// alone (-table, -figure or -extra), that flag's value, and the
// function that runs the experiment and renders its text.
type experiment struct {
	flag, sel string
	run       func(ctx context.Context, sc exp.Scale) (string, error)
}

// experiments lists the report's sections in -all order.
func experiments() []experiment {
	return []experiment{
		{"table", "1", section(exp.Table1, exp.FormatTable1)},
		{"table", "2", section(exp.Table2, exp.FormatTable2)},
		{"table", "3", section(exp.Table3, exp.FormatTable3)},
		{"table", "4", section(exp.Table4, exp.FormatTable4)},
		{"table", "5", section(exp.Table5, exp.FormatTable5)},
		{"figure", "3", section(exp.Figure3, exp.FormatFigure3)},
		{"figure", "4", section(exp.Figure4, exp.FormatFigure4)},
		{"figure", "5", section(exp.Figure5, exp.FormatFigure5)},
		{"extra", "fp", section(exp.FalsePositives, exp.FormatFPResults)},
		{"extra", "size", func(ctx context.Context, sc exp.Scale) (string, error) {
			rows, avg, err := exp.CodeSize(ctx, sc)
			if err != nil {
				return "", err
			}
			return exp.FormatSizeRows(rows, avg), nil
		}},
		{"extra", "human", section(exp.HumanAnalystStudy, exp.FormatAnalystRows)},
		{"extra", "matrix", section(func(ctx context.Context, _ exp.Scale) ([]exp.MatrixRow, error) {
			return exp.ResilienceMatrix(ctx, 7)
		}, exp.FormatMatrix)},
		{"extra", "ablate", section(func(ctx context.Context, _ exp.Scale) ([]exp.AblationRow, error) {
			return exp.Ablations(ctx, 11)
		}, exp.FormatAblations)},
		{"extra", "chaos", section(exp.ChaosResilience, exp.FormatChaos)},
	}
}

// section pairs an experiment with the function that formats its rows.
func section[T any](run func(context.Context, exp.Scale) (T, error), format func(T) string) func(context.Context, exp.Scale) (string, error) {
	return func(ctx context.Context, sc exp.Scale) (string, error) {
		rows, err := run(ctx, sc)
		if err != nil {
			return "", err
		}
		return format(rows), nil
	}
}

// pick maps the set selector flags to their values and refuses a value
// that names no section, listing the valid ones.
func pick(list []experiment, table, figure int, extra string) (map[string]string, error) {
	selected := map[string]string{}
	if table != 0 {
		selected["table"] = strconv.Itoa(table)
	}
	if figure != 0 {
		selected["figure"] = strconv.Itoa(figure)
	}
	if extra != "" {
		selected["extra"] = extra
	}
	for _, flag := range []string{"table", "figure", "extra"} {
		want, ok := selected[flag]
		if !ok {
			continue
		}
		var valid []string
		for _, e := range list {
			if e.flag == flag {
				valid = append(valid, e.sel)
			}
		}
		if !slices.Contains(valid, want) {
			return nil, fmt.Errorf("unknown -%s %q (want one of %s)", flag, want, strings.Join(valid, ", "))
		}
	}
	return selected, nil
}

// scaleFor maps the -scale and -workers flags to an exp.Scale.
func scaleFor(name string, workers int) (exp.Scale, error) {
	var sc exp.Scale
	switch name {
	case "quick":
		sc = exp.Quick()
	case "full":
		sc = exp.Full()
	default:
		return exp.Scale{}, fmt.Errorf("unknown scale %q (want quick or full)", name)
	}
	if workers < 0 {
		return exp.Scale{}, fmt.Errorf("workers must be >= 0, got %d", workers)
	}
	sc.Workers = workers
	return sc, nil
}

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Stdout, os.Args[1:]); err != nil {
		if err == flag.ErrHelp {
			os.Exit(2)
		}
		fmt.Fprintln(os.Stderr, "report:", err)
		os.Exit(1)
	}
}

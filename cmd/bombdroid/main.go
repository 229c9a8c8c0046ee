// Command bombdroid protects an app package with logic bombs — the
// paper's tool, end to end (Fig. 1): unpack the .apk, extract the
// public key from CERT.RSA, profile, instrument, and write the
// protected package back out.
//
// Usage:
//
//	bombdroid -in app.apk -out protected.apk [-keyseed N] [-alpha F]
//	          [-single-trigger] [-no-weave] [-report report.txt]
//	bombdroid -batch corpus/ -outdir protected/ [-workers N]
//	          [-manifest manifest.json] [protection flags as above]
//
// The input packages must be signed; the developer key (regenerated
// from -keyseed, matching cmd/apkgen) re-signs the output, mirroring
// the paper's "sent to the legitimate developer to sign" step.
//
// -batch protects every *.apk in a directory through the staged
// engine over a shared worker pool and artifact cache, so duplicate
// inputs cost one pipeline run. Each app is isolated: one bad package
// records an error entry and the rest proceed. Ctrl-C cancels
// gracefully — in-flight apps stop at their next pipeline stage, and
// the JSON manifest (per-app status, per-stage wall times, cache
// hit/miss counts) is still written for everything that ran.
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
	"path/filepath"
	"sort"
	"strings"
	"syscall"
	"time"

	"bombdroid/internal/apk"
	"bombdroid/internal/artifact"
	"bombdroid/internal/core"
	"bombdroid/internal/exp"
	"bombdroid/internal/obs"
)

// cliConfig is the parsed flag set shared by single and batch mode.
type cliConfig struct {
	in, out       string
	batch, outDir string
	manifest      string
	reportPath    string
	keySeed       int64
	alpha         float64
	single        bool
	noWeave       bool
	profileEvents int
	domain        int64
	seed          int64
	workers       int
}

func (c cliConfig) engine(cache *artifact.Store, reg *obs.Registry) *core.Engine {
	return &core.Engine{
		Opts: core.Options{
			Seed:          c.seed,
			Alpha:         c.alpha,
			SingleTrigger: c.single,
			NoWeave:       c.noWeave,
		},
		Prof: core.ProfileConfig{
			Events: c.profileEvents,
			Domain: c.domain,
			Seed:   c.seed,
		},
		Cache: cache,
		Obs:   reg,
	}
}

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Stdout, os.Args[1:]); err != nil {
		if err == flag.ErrHelp {
			os.Exit(2)
		}
		fmt.Fprintln(os.Stderr, "bombdroid:", err)
		os.Exit(1)
	}
}

// run parses flags and dispatches to single or batch mode; main is
// just signal and exit-code plumbing around it so tests can call run
// directly with their own context.
func run(ctx context.Context, out io.Writer, args []string) error {
	fs := flag.NewFlagSet("bombdroid", flag.ContinueOnError)
	var c cliConfig
	fs.StringVar(&c.in, "in", "", "input .apk (signed)")
	fs.StringVar(&c.out, "out", "", "output .apk (protected, re-signed)")
	fs.StringVar(&c.batch, "batch", "", "protect every *.apk in this directory")
	fs.StringVar(&c.outDir, "outdir", "", "batch output directory (default: <batch>/protected)")
	fs.StringVar(&c.manifest, "manifest", "", "batch manifest JSON path (default: <outdir>/manifest.json)")
	fs.Int64Var(&c.keySeed, "keyseed", 1, "developer key seed (must match the signer of the inputs)")
	fs.Float64Var(&c.alpha, "alpha", 0.25, "fraction of candidate methods given artificial QCs")
	fs.BoolVar(&c.single, "single-trigger", false, "disable inner (environment) triggers")
	fs.BoolVar(&c.noWeave, "no-weave", false, "disable code weaving")
	fs.IntVar(&c.profileEvents, "profile-events", 10_000, "profiling events for hot-method detection and artificial-QC values (0 = no profiling)")
	fs.Int64Var(&c.domain, "domain", 64, "handler parameter domain for profiling")
	fs.StringVar(&c.reportPath, "report", "", "write the bomb inventory here (single mode)")
	fs.Int64Var(&c.seed, "seed", 42, "instrumentation seed")
	fs.IntVar(&c.workers, "workers", 0, "batch workers (0 = all cores, 1 = serial)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if c.batch != "" {
		return runBatch(ctx, out, c)
	}
	if c.in == "" || c.out == "" {
		return errors.New("need -in and -out (or -batch DIR)")
	}
	return runSingle(ctx, out, c)
}

// readSigned loads and verifies one package from disk.
func readSigned(path string) (*apk.Package, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	pkg, err := apk.Unpack(data)
	if err != nil {
		return nil, err
	}
	if err := pkg.Verify(); err != nil {
		return nil, fmt.Errorf("input package does not verify: %w", err)
	}
	return pkg, nil
}

// protectSigned runs one verified package through the engine and
// re-signs the result with the developer key, enforcing the paper's
// rule that only the legitimate developer's key may sign.
func protectSigned(ctx context.Context, eng *core.Engine, pkg *apk.Package, devKey *apk.KeyPair) (*apk.Package, *core.Protected, error) {
	if pkg.PublicKeyHex() != devKey.PublicKeyHex() {
		return nil, nil, fmt.Errorf("developer key (seed) does not match the package certificate")
	}
	prot, err := eng.Run(ctx, pkg)
	if err != nil {
		return nil, nil, err
	}
	signed, err := apk.Sign(prot.Unsigned, devKey)
	if err != nil {
		return nil, nil, err
	}
	return signed, prot, nil
}

func runSingle(ctx context.Context, out io.Writer, c cliConfig) error {
	pkg, err := readSigned(c.in)
	if err != nil {
		return err
	}
	devKey, err := apk.NewKeyPair(c.keySeed)
	if err != nil {
		return err
	}
	signed, prot, err := protectSigned(ctx, c.engine(nil, nil), pkg, devKey)
	if err != nil {
		return err
	}
	packed, err := apk.Pack(signed)
	if err != nil {
		return err
	}
	if err := os.WriteFile(c.out, packed, 0o644); err != nil {
		return err
	}

	st := prot.Result.Stats
	fmt.Fprintf(out, "protected %s -> %s\n", c.in, c.out)
	fmt.Fprintf(out, "  methods=%d candidates=%d (hot excluded: %d)\n", st.Methods, st.Candidates, st.HotExcluded)
	fmt.Fprintf(out, "  bombs: %d existing + %d artificial (+%d bogus), %d woven\n",
		st.BombsExisting, st.BombsArtificial, st.BombsBogus, st.Woven)
	fmt.Fprintf(out, "  code: %d -> %d instructions, %d payload bytes\n", st.InstrBefore, st.InstrAfter, st.BlobBytes)
	for _, t := range prot.Info.Stages {
		fmt.Fprintf(out, "  stage %-9s %8.2fms\n", t.Stage, float64(t.WallNs)/1e6)
	}

	if c.reportPath != "" {
		f, err := os.Create(c.reportPath)
		if err != nil {
			return err
		}
		defer f.Close()
		for _, b := range prot.Result.Bombs {
			fmt.Fprintf(f, "%s\tmethod=%s\tsource=%s\tstrength=%s\tdetect=%s\tresponse=%s\twoven=%v\tinner=%q\n",
				b.ID, b.Method, b.Source, b.Strength, b.Detect, b.Response, b.Woven, b.Inner.String())
		}
	}
	return nil
}

// batchEntry is one app's row in the batch manifest.
type batchEntry struct {
	App         string             `json:"app"`
	Status      string             `json:"status"` // ok | error | cancelled
	Error       string             `json:"error,omitempty"`
	Out         string             `json:"out,omitempty"`
	WallMs      int64              `json:"wall_ms"`
	Stages      []core.StageTiming `json:"stages,omitempty"`
	CacheHits   int                `json:"cache_hits"`
	CacheMisses int                `json:"cache_misses"`
}

// batchManifest is the JSON document -batch writes next to its
// outputs: per-app outcomes plus the shared artifact-store totals.
type batchManifest struct {
	Corpus    string         `json:"corpus"`
	Workers   int            `json:"workers"`
	Cancelled bool           `json:"cancelled,omitempty"`
	WallMs    int64          `json:"wall_ms"`
	Cache     artifact.Stats `json:"cache"`
	Apps      []batchEntry   `json:"apps"`
}

// batchCacheBytes bounds the shared artifact store; a corpus whose
// protected artifacts outgrow it just re-runs the evicted stages.
const batchCacheBytes = 256 << 20

func runBatch(ctx context.Context, out io.Writer, c cliConfig) error {
	paths, err := filepath.Glob(filepath.Join(c.batch, "*.apk"))
	if err != nil {
		return err
	}
	sort.Strings(paths)
	if len(paths) == 0 {
		return fmt.Errorf("no .apk files in %s", c.batch)
	}
	if c.outDir == "" {
		c.outDir = filepath.Join(c.batch, "protected")
	}
	if err := os.MkdirAll(c.outDir, 0o755); err != nil {
		return err
	}
	if c.manifest == "" {
		c.manifest = filepath.Join(c.outDir, "manifest.json")
	}
	devKey, err := apk.NewKeyPair(c.keySeed)
	if err != nil {
		return err
	}

	// One engine for the whole corpus: Engine.Run is safe for
	// concurrent use, and the shared store deduplicates identical
	// inputs across workers (the second copy is a result-cache hit).
	reg := obs.NewRegistry()
	cache := artifact.NewStore(batchCacheBytes)
	eng := c.engine(cache, reg)
	sc := exp.Scale{Workers: c.workers, Obs: reg}

	t0 := time.Now()
	entries, poolErr := exp.ForIndexed(ctx, sc, len(paths), func(i int) (batchEntry, error) {
		// Per-app isolation: every failure becomes a manifest entry,
		// never an error that would abort the rest of the corpus.
		return protectPath(ctx, eng, devKey, paths[i], c.outDir), nil
	})
	// protectPath never returns an error, so a pool error can only be
	// the context's; anything else is a programming error worth
	// surfacing before the manifest pretends the batch ran.
	if poolErr != nil && ctx.Err() == nil {
		return poolErr
	}
	cancelled := ctx.Err() != nil
	for i := range entries {
		if entries[i].Status == "" {
			// Never claimed before the pool stopped.
			entries[i] = batchEntry{App: filepath.Base(paths[i]), Status: "cancelled"}
		}
	}

	m := batchManifest{
		Corpus:    c.batch,
		Workers:   sc.Workers,
		Cancelled: cancelled,
		WallMs:    time.Since(t0).Milliseconds(),
		Cache:     cache.Stats(),
		Apps:      entries,
	}
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(c.manifest, append(data, '\n'), 0o644); err != nil {
		return err
	}

	var ok, failed, skipped int
	for _, e := range entries {
		switch e.Status {
		case "ok":
			ok++
		case "error":
			failed++
		default:
			skipped++
		}
	}
	st := cache.Stats()
	fmt.Fprintf(out, "batch %s: %d ok, %d failed, %d cancelled (%d apps, %d workers)\n",
		c.batch, ok, failed, skipped, len(paths), sc.Workers)
	fmt.Fprintf(out, "  cache: %d hits, %d misses; manifest: %s\n", st.Hits, st.Misses, c.manifest)
	if cancelled {
		return context.Canceled
	}
	if failed > 0 {
		return fmt.Errorf("%d of %d apps failed; see %s", failed, len(paths), c.manifest)
	}
	return nil
}

// protectPath protects one corpus member and reports the outcome as a
// manifest entry.
func protectPath(ctx context.Context, eng *core.Engine, devKey *apk.KeyPair, path, outDir string) batchEntry {
	e := batchEntry{App: filepath.Base(path)}
	t0 := time.Now()
	defer func() { e.WallMs = time.Since(t0).Milliseconds() }()

	fail := func(err error) batchEntry {
		if ctx.Err() != nil {
			e.Status = "cancelled"
			return e
		}
		e.Status = "error"
		e.Error = err.Error()
		return e
	}
	pkg, err := readSigned(path)
	if err != nil {
		return fail(err)
	}
	signed, prot, err := protectSigned(ctx, eng, pkg, devKey)
	if err != nil {
		return fail(err)
	}
	packed, err := apk.Pack(signed)
	if err != nil {
		return fail(err)
	}
	outPath := filepath.Join(outDir, strings.TrimSuffix(e.App, ".apk")+".prot.apk")
	if err := os.WriteFile(outPath, packed, 0o644); err != nil {
		return fail(err)
	}
	e.Status = "ok"
	e.Out = outPath
	e.Stages = prot.Info.Stages
	e.CacheHits = prot.Info.CacheHits
	e.CacheMisses = prot.Info.CacheMisses
	return e
}

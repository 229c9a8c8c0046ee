package core

import (
	"context"
	"fmt"
	"sort"
	"time"

	"bombdroid/internal/android"
	"bombdroid/internal/apk"
	"bombdroid/internal/artifact"
	"bombdroid/internal/dex"
	"bombdroid/internal/fuzz"
	"bombdroid/internal/obs"
	"bombdroid/internal/vm"
)

// newProfileVM boots the original app on a stock lab emulator in
// profiling mode — the same device exp.Prepare and cmd/bombdroid use.
func newProfileVM(in *apk.Package, seed int64) (*vm.VM, error) {
	return vm.New(in, android.EmulatorLab(1)[0], vm.Options{Seed: seed, Profile: true})
}

// This file is the staged protection engine: the paper's Fig. 1
// pipeline (unpack → profile → static analysis → bomb construction →
// stego → validate → repack) as explicit named stages over a typed
// artifact blackboard, with content-addressed caching of the
// expensive early stages and per-stage observability. Engine.Run is
// the only way to protect an app; signing its unsigned output stays
// with the developer (apk.Sign).
//
// Key derivation chains: the input key (which also keys the unpack
// artifact) covers the package content; the profile key covers the
// input key plus the profiling configuration; the analyze key covers
// the profile key plus HotFrac; the result key covers the input key,
// the profile key, and every remaining option. Changing only a
// late-stage option (a response kind, the bogus fraction) therefore
// invalidates the result artifact but leaves the unpack, profile and
// analyze artifacts warm, and the engine skips straight past those
// stages on the next run.

// StageName identifies one pipeline stage.
type StageName string

// The Fig. 1 stages, in pipeline order.
const (
	StageUnpack    StageName = "unpack"
	StageProfile   StageName = "profile"
	StageAnalyze   StageName = "analyze"
	StageConstruct StageName = "construct"
	StageStego     StageName = "stego"
	StageValidate  StageName = "validate"
	StageRepack    StageName = "repack"
)

// artifacts is the typed blackboard stages read and write. Each stage
// consumes fields earlier stages produced and fills in its own.
type artifacts struct {
	// Inputs.
	In   *apk.Package // signed input package
	Opts Options
	Prof ProfileConfig

	// Unpack outputs. IconDigest/AuthorDigest are the input manifest's
	// icon and author digests, which DetectIcon bombs hide fragments of.
	File          *dex.File
	Ko            string
	ResourceCount int
	IconDigest    string
	AuthorDigest  string

	// Profile outputs: method invocation counts and the observed values
	// of each watched static field, which artificial QCs draw their
	// constants from (paper §7.2). Both stay nil when profiling is off.
	Profile     map[string]int64
	FieldValues map[string][]dex.Value

	// Analyze outputs: the hot-method exclusion set, and one analysis
	// per construct candidate in File.Methods() order.
	Hot      map[string]bool
	analyses []methodAnalysis
	// early is the analysis the profile stage started beside its VM
	// (nil when the profile stage did not run its body).
	early *backgroundAnalysis
	// beforeMethod, when set, sees each candidate on the construct
	// clone just before it is instrumented (tests only).
	beforeMethod func(out *dex.File, m *dex.Method, ma *methodAnalysis)

	// Construct/Stego/Validate outputs.
	Out    *dex.File
	Result *Result
	prot   *protector // construct → stego carry-over (stego plan + RNG stream)
	outDex []byte     // Out encoded, once stego has taken its digest

	// Repack output.
	Unsigned *apk.Unsigned
}

// ProfileConfig configures the engine's profiling stage (paper §7.1:
// Dynodroid + Traceview on a stock emulator).
type ProfileConfig struct {
	// Events is the number of profiling events (the paper ran 10,000).
	// 0 turns profiling off: the profile stage does not run, no method
	// counts as hot, and artificial QCs fall back to declared field
	// initial values.
	Events int
	Domain int64 // handler parameter domain; 0 = 64
	Seed   int64 // profiling RNG seed
	// Watch lists the static fields whose values profiling records for
	// artificial-QC construction. Empty means every field in the dex.
	Watch []string
}

func (p ProfileConfig) withDefaults() ProfileConfig {
	if p.Events == 0 {
		return ProfileConfig{} // no profiling: nothing else can matter
	}
	if p.Domain == 0 {
		p.Domain = 64
	}
	return p
}

// StageTiming is one stage's wall time within a run. Wall times are
// operator-facing only — never compare them across runs.
type StageTiming struct {
	Stage  StageName `json:"stage"`
	WallNs int64     `json:"wall_ns"`
	// Cache is "hit" or "miss" for cached stages ("" for uncached
	// ones). A hit means the stage's output came from the artifact
	// store and its work was skipped.
	Cache string `json:"cache,omitempty"`
}

// RunInfo records how one engine run was satisfied: the derived
// artifact keys, per-stage timings, and cache effectiveness.
type RunInfo struct {
	Input       artifact.Key  `json:"input_key"`
	ProfileKey  artifact.Key  `json:"profile_key"`
	AnalyzeKey  artifact.Key  `json:"analyze_key"`
	ResultKey   artifact.Key  `json:"result_key"`
	Stages      []StageTiming `json:"stages"`
	CacheHits   int           `json:"cache_hits"`
	CacheMisses int           `json:"cache_misses"`
}

// Protected is a completed engine run.
type Protected struct {
	Unsigned *apk.Unsigned
	Result   *Result
	// Profile/FieldValues are the profiling stage's outputs (possibly
	// cache-satisfied, nil without profiling), for callers that feed
	// them onward.
	Profile     map[string]int64
	FieldValues map[string][]dex.Value
	Info        RunInfo
}

// Engine runs the full staged pipeline over signed packages. The
// zero-value Engine works: no cache, no metrics, the paper's default
// options and no profiling.
type Engine struct {
	Opts Options
	Prof ProfileConfig
	// Cache, when set, memoizes stage outputs content-addressed by
	// input + options. Nil disables caching with no other behavior
	// change.
	Cache *artifact.Store
	// Obs, when set, receives per-stage counters and wall-time
	// histograms plus cache hit/miss counters. All engine series are
	// Volatile: they depend on process history (what is already
	// cached), not on the work's content.
	Obs *obs.Registry
}

// cached stage artifacts. The unpack, profile and analyze artifacts
// are shared structures handed to every run that hits them — treat
// them as immutable (construct clones the decoded file before it
// edits anything). The result artifact is copied on every hit
// because callers receive (and may mutate) what is inside.
type unpackArtifact struct {
	file                     *dex.File
	ko                       string
	resourceCount            int
	iconDigest, authorDigest string
}

type profileArtifact struct {
	profile   map[string]int64
	fieldVals map[string][]dex.Value
}

type analyzeArtifact struct {
	hot      map[string]bool
	analyses []methodAnalysis
}

// resultArtifact is a built run in its cached form. It holds no dex
// file: the protected file is exactly what unsigned.Dex encodes, so a
// hit decodes it, and a build, which may never be hit, does not pay
// for a deep clone of the file.
type resultArtifact struct {
	unsigned  *apk.Unsigned
	result    *Result // File is nil
	profile   map[string]int64
	fieldVals map[string][]dex.Value
}

// copyBuild copies the parts of a built run a caller can reach and
// mutate, except the result's dex file, which the copy leaves nil:
// the unsigned package and the result's slices.
func copyBuild(u *apk.Unsigned, r *Result) (*apk.Unsigned, *Result) {
	cu := apk.ForShipping(u.Name, append([]byte(nil), u.Dex...), u.Res.Clone())
	cr := *r
	cr.File = nil
	cr.Bombs = append([]Bomb(nil), r.Bombs...)
	cr.StegoStrings = append([]string(nil), r.StegoStrings...)
	return cu, &cr
}

// open hands a hit its own copy of the cached run, with the result's
// file decoded from the copy's dex bytes. The profile maps stay shared
// (read-only by contract).
func (ra *resultArtifact) open() (*apk.Unsigned, *Result, error) {
	u, r := copyBuild(ra.unsigned, ra.result)
	f, err := dex.Decode(u.Dex)
	if err != nil {
		return nil, nil, fmt.Errorf("core: cached result: %w", err)
	}
	r.File = f
	return u, r, nil
}

// InputKey content-addresses a signed package: its name, every
// manifest entry digest (classes.dex, strings.xml, icon, author), and
// the signer's public key. Two packages differing in even one method
// body have different dex digests and therefore different keys. The
// key trusts the manifest, so Engine.Run checks the digests against
// the content before it looks anything up.
func InputKey(in *apk.Package) artifact.Key {
	f := artifact.NewFingerprint("bombdroid/input/v1")
	f.Str(in.Name)
	names := make([]string, 0, len(in.Manifest.Digests))
	for k := range in.Manifest.Digests {
		names = append(names, k)
	}
	sort.Strings(names)
	f.Int(int64(len(names)))
	for _, n := range names {
		f.Str(n).Str(in.Manifest.Digests[n])
	}
	f.Str(in.PublicKeyHex())
	return f.Done()
}

// profileKey covers everything the profiling stage's output depends
// on: the input package and the profiling configuration.
func profileKey(input artifact.Key, p ProfileConfig) artifact.Key {
	return artifact.NewFingerprint("bombdroid/profile/v1").
		Key(input).
		Int(int64(p.Events)).
		Int(p.Domain).
		Int(p.Seed).
		Strs(p.Watch).
		Done()
}

// analyzeKey chains the profile key with the one option the analysis
// stage reads.
func analyzeKey(profKey artifact.Key, hotFrac float64) artifact.Key {
	return artifact.NewFingerprint("bombdroid/analyze/v1").
		Key(profKey).F64(hotFrac).Done()
}

// resultKey covers the whole run: input, profiling provenance, and
// every construction option. Options must already have defaults
// applied so semantically equal configurations key identically.
// Whatever unpack derives from the package (the icon and author
// digests among it) is covered by the input key.
func resultKey(input, profKey artifact.Key, o Options) artifact.Key {
	f := artifact.NewFingerprint("bombdroid/protect/v2")
	f.Key(input).Key(profKey)
	f.Int(o.Seed).F64(o.Alpha).F64(o.HotFrac)
	f.F64(o.PLo).F64(o.PHi)
	f.Bool(o.SingleTrigger).Bool(o.NoWeave).F64(o.BogusFrac)
	f.Int(int64(len(o.Detections)))
	for _, d := range o.Detections {
		f.Int(int64(d))
	}
	f.Int(int64(len(o.Responses)))
	for _, r := range o.Responses {
		f.Int(int64(r))
	}
	f.Int(o.DelayResponseMs)
	f.F64(o.ExistingFrac)
	f.Int(int64(o.MaxBombsPerMethod)).Int(int64(o.MaxBombs))
	f.Str(o.GlobalSalt).Bool(o.MuteAfterFirst)
	return f.Done()
}

// fileBytes roughly sizes a decoded dex file for cache accounting.
func fileBytes(f *dex.File) int64 {
	n := int64(0)
	for _, s := range f.Strings {
		n += 16 + int64(len(s))
	}
	for _, b := range f.Blobs {
		n += 24 + int64(len(b))
	}
	for _, c := range f.Classes {
		n += 64 + 40*int64(len(c.Fields))
		for _, m := range c.Methods {
			n += 96 + 24*int64(len(m.Code))
			for _, t := range m.Tables {
				n += 32 + 16*int64(len(t.Cases))
			}
		}
	}
	return n
}

// mapBytes roughly sizes a profile for cache accounting.
func mapBytes(profile map[string]int64, fieldVals map[string][]dex.Value) int64 {
	n := int64(0)
	for k := range profile {
		n += int64(len(k)) + 24
	}
	for k, vs := range fieldVals {
		n += int64(len(k)) + 16 + int64(len(vs))*24
	}
	return n
}

// resultBytes roughly sizes a protected build for cache accounting.
func resultBytes(ra *resultArtifact) int64 {
	n := int64(len(ra.unsigned.Dex))
	for _, s := range ra.unsigned.Res.Strings {
		n += int64(len(s))
	}
	n += int64(len(ra.unsigned.Res.Icon)) + int64(len(ra.unsigned.Res.Author))
	n += int64(len(ra.result.Bombs)) * 128
	n += int64(ra.result.Stats.BlobBytes)
	return n + mapBytes(ra.profile, ra.fieldVals)
}

// engineStageBucketsNs buckets stage wall time from 1µs to ~4.5min.
var engineStageBucketsNs = obs.ExpBuckets(1_000, 8, 10)

// observe records one stage completion on the engine's registry. All
// series are Volatile — stage wall time and cache outcomes depend on
// process history, so they must never enter deterministic snapshots.
func (e *Engine) observe(name StageName, ns int64, cache string) {
	if e.Obs == nil {
		return
	}
	e.Obs.Counter(obs.L("core_engine_stage_total", "stage", string(name)), obs.Volatile()).Inc()
	e.Obs.Histogram(obs.L("core_engine_stage_wall_ns", "stage", string(name)),
		engineStageBucketsNs, obs.Volatile()).Observe(ns)
	if cache != "" {
		e.Obs.Counter(obs.L("core_engine_cache_total", "stage", string(name), "outcome", cache),
			obs.Volatile()).Inc()
	}
}

// stageProfile is the engine's profiling stage (paper Fig. 1 step 2):
// fuzz the original app on a stock emulator, recording method
// invocation counts and observed field values. The profile VM is most
// of a cold run and runs on one goroutine, so the stage first starts
// the static analysis beside it (stageAnalyze joins it). The stage's
// body runs only when the profile artifact misses, so a run whose
// profile is cached never starts one.
func stageProfile(ctx context.Context, a *artifacts) error {
	a.early = startAnalysis(ctx, a.File)
	watch := a.Prof.Watch
	if len(watch) == 0 {
		for _, c := range a.File.Classes {
			for _, f := range c.Fields {
				watch = append(watch, c.Name+"."+f.Name)
			}
		}
	}
	profVM, err := newProfileVM(a.In, a.Prof.Seed)
	if err != nil {
		return fmt.Errorf("core: profile stage: %w", err)
	}
	a.Profile, a.FieldValues, err = fuzz.Profile(ctx, profVM, a.Prof.Domain, a.Prof.Events, watch, a.Prof.Seed)
	if err != nil {
		return fmt.Errorf("core: profile stage: %w", err)
	}
	return nil
}

// Run takes a signed package through the whole staged pipeline and
// returns the protected unsigned package plus the run record.
//
// Every run first checks the input's manifest digests against its
// content and returns an error wrapping apk.ErrDigestMismatch when
// they differ, cache or no cache: the artifact keys trust the
// manifest, so a package whose manifest lies must never reach them.
//
// Cache layering, checked in order:
//  1. the whole-result artifact (everything skipped, output copied
//     and its dex file decoded);
//  2. the unpack artifact, keyed by the input key (decoding skipped;
//     the decoded file is shared read-only);
//  3. the profile artifact (profiling skipped);
//  4. the analyze artifact (hot set and per-method analysis skipped);
//
// after which construct/stego/validate/repack always run. With
// Prof.Events 0 the profile stage is skipped and absent from
// Info.Stages.
func (e *Engine) Run(ctx context.Context, in *apk.Package) (*Protected, error) {
	if err := in.CheckDigests(); err != nil {
		return nil, fmt.Errorf("core: input package: %w", err)
	}
	opts := e.Opts.withDefaults()
	prof := e.Prof.withDefaults()
	a := &artifacts{In: in, Opts: opts, Prof: prof}
	// No return path may leave the profile stage's background analysis
	// running. It polls ctx, so a cancelled run waits for at most one
	// method's analysis; an unneeded one (an analyze hit, a profile
	// error) runs to its end, a few milliseconds.
	defer func() { a.early.wait() }()
	p := &Protected{}
	info := &p.Info
	info.Input = InputKey(in)
	info.ProfileKey = profileKey(info.Input, prof)
	info.AnalyzeKey = analyzeKey(info.ProfileKey, opts.HotFrac)
	info.ResultKey = resultKey(info.Input, info.ProfileKey, opts)

	// run executes one uncached stage with ctx + timing + metrics.
	run := func(st StageName, fn func(ctx context.Context, a *artifacts) error) error {
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("core: %s stage: %w", st, err)
		}
		t0 := time.Now()
		err := fn(ctx, a)
		ns := time.Since(t0).Nanoseconds()
		info.Stages = append(info.Stages, StageTiming{Stage: st, WallNs: ns})
		e.observe(st, ns, "")
		return err
	}
	// runCached executes one stage through the artifact store: on a
	// hit, load installs the cached artifact and the stage body never
	// runs; on a miss, the body runs and save extracts the artifact to
	// retain.
	runCached := func(st StageName, key artifact.Key,
		fn func(ctx context.Context, a *artifacts) error,
		save func() (any, int64), load func(v any)) error {
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("core: %s stage: %w", st, err)
		}
		t0 := time.Now()
		v, hit, err := e.Cache.Do(key, func() (any, int64, error) {
			if err := fn(ctx, a); err != nil {
				return nil, 0, err
			}
			art, size := save()
			return art, size, nil
		})
		ns := time.Since(t0).Nanoseconds()
		outcome := "miss"
		if hit {
			outcome = "hit"
			load(v)
			info.CacheHits++
		} else {
			info.CacheMisses++
		}
		if e.Cache == nil {
			outcome = ""
		}
		info.Stages = append(info.Stages, StageTiming{Stage: st, WallNs: ns, Cache: outcome})
		e.observe(st, ns, outcome)
		return err
	}

	// Layer 1: the whole protected build may already be cached.
	t0 := time.Now()
	if v, ok := e.Cache.Get(info.ResultKey); ok {
		ra := v.(*resultArtifact)
		var err error
		if p.Unsigned, p.Result, err = ra.open(); err != nil {
			return nil, err
		}
		p.Profile, p.FieldValues = ra.profile, ra.fieldVals
		ns := time.Since(t0).Nanoseconds()
		info.CacheHits++
		info.Stages = append(info.Stages, StageTiming{Stage: "result", WallNs: ns, Cache: "hit"})
		if e.Obs != nil {
			e.Obs.Counter(obs.L("core_engine_cache_total", "stage", "result", "outcome", "hit"),
				obs.Volatile()).Inc()
			e.Obs.Counter(obs.L("core_engine_runs_total", "path", "cached"), obs.Volatile()).Inc()
		}
		return p, nil
	}
	if e.Cache != nil {
		info.CacheMisses++
		if e.Obs != nil {
			e.Obs.Counter(obs.L("core_engine_cache_total", "stage", "result", "outcome", "miss"),
				obs.Volatile()).Inc()
		}
	}

	// Layers 2–4: unpack, profile and analyze artifacts,
	// content-addressed.
	err := runCached(StageUnpack, info.Input, stageUnpack,
		func() (any, int64) {
			ua := &unpackArtifact{file: a.File, ko: a.Ko, resourceCount: a.ResourceCount,
				iconDigest: a.IconDigest, authorDigest: a.AuthorDigest}
			return ua, fileBytes(ua.file) + int64(len(ua.ko)+len(ua.iconDigest)+len(ua.authorDigest))
		},
		func(v any) {
			ua := v.(*unpackArtifact)
			a.File, a.Ko, a.ResourceCount = ua.file, ua.ko, ua.resourceCount
			a.IconDigest, a.AuthorDigest = ua.iconDigest, ua.authorDigest
		})
	if err != nil {
		return nil, err
	}
	if prof.Events > 0 {
		err := runCached(StageProfile, info.ProfileKey, stageProfile,
			func() (any, int64) {
				pa := &profileArtifact{profile: a.Profile, fieldVals: a.FieldValues}
				return pa, mapBytes(pa.profile, pa.fieldVals)
			},
			func(v any) {
				pa := v.(*profileArtifact)
				a.Profile, a.FieldValues = pa.profile, pa.fieldVals
			})
		if err != nil {
			return nil, err
		}
	}
	err = runCached(StageAnalyze, info.AnalyzeKey, stageAnalyze,
		func() (any, int64) {
			size := analysisBytes(a.analyses)
			for m := range a.Hot {
				size += int64(len(m)) + 16
			}
			return &analyzeArtifact{hot: a.Hot, analyses: a.analyses}, size
		},
		func(v any) {
			aa := v.(*analyzeArtifact)
			a.Hot, a.analyses = aa.hot, aa.analyses
		})
	if err != nil {
		return nil, err
	}
	for _, st := range []struct {
		name StageName
		fn   func(ctx context.Context, a *artifacts) error
	}{
		{StageConstruct, stageConstruct},
		{StageStego, stageStego},
		{StageValidate, stageValidate},
		{StageRepack, stageRepack},
	} {
		if err := run(st.name, st.fn); err != nil {
			return nil, err
		}
	}

	p.Unsigned, p.Result = a.Unsigned, a.Result
	p.Profile, p.FieldValues = a.Profile, a.FieldValues
	if e.Cache != nil {
		// Cache a copy, not the live objects the caller gets — caller
		// mutations must never reach future cache hits.
		ra := &resultArtifact{profile: p.Profile, fieldVals: p.FieldValues}
		ra.unsigned, ra.result = copyBuild(p.Unsigned, p.Result)
		e.Cache.Put(info.ResultKey, ra, resultBytes(ra))
	}
	if e.Obs != nil {
		e.Obs.Counter(obs.L("core_engine_runs_total", "path", "built"), obs.Volatile()).Inc()
	}
	return p, nil
}

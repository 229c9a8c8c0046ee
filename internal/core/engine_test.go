package core

import (
	"bytes"
	"context"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"bombdroid/internal/apk"
	"bombdroid/internal/appgen"
	"bombdroid/internal/artifact"
	"bombdroid/internal/dex"
	"bombdroid/internal/lockbox"
	"bombdroid/internal/obs"
)

// signedApp builds and signs a generated app for engine tests.
func signedApp(t testing.TB, cfg appgen.Config) (*apk.Package, *apk.KeyPair, *appgen.App) {
	t.Helper()
	app, err := appgen.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	devKey, err := apk.NewKeyPair(11)
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := apk.Sign(apk.Build(app.Name, app.File, apk.Resources{
		Strings: []string{"Tap to start", "Score"}, Author: "honest dev", Icon: []byte{1, 2},
	}), devKey)
	if err != nil {
		t.Fatal(err)
	}
	return pkg, devKey, app
}

// TestEngineGoldenDigests pins the packed, developer-signed output of
// a profiled run and of runs without profiling. The digests were
// recorded before the engine became the only protection path: the
// profiled one from the engine itself, the unprofiled ones from the
// old uncached entry point (BuildProtected, with no profile), so a
// zero-Events engine is proven to reproduce that path byte for byte.
func TestEngineGoldenDigests(t *testing.T) {
	pkg, devKey, _ := signedApp(t, appgen.Config{Name: "eng", Seed: 5, TargetLOC: 1800})
	all := []DetectionMethod{DetectPublicKey, DetectDigest, DetectSnippet, DetectIcon}
	for _, tc := range []struct {
		name   string
		e      Engine
		stages []StageName
		want   string
	}{
		{"profiled", Engine{Opts: Options{Seed: 3}, Prof: ProfileConfig{Events: 800, Domain: 32, Seed: 7}},
			[]StageName{StageUnpack, StageProfile, StageAnalyze, StageConstruct, StageStego, StageValidate, StageRepack},
			"37975d9c4e7b8a840c3cbb76b79ea1845ad6cef31f7ab8f4108d3b56bb382a0d"},
		{"no-profile", Engine{Opts: Options{Seed: 3}},
			[]StageName{StageUnpack, StageAnalyze, StageConstruct, StageStego, StageValidate, StageRepack},
			"5cec5adc79518bc4d3ecb9c041af36e398c6553716ceecd49d8d0f7d27e98814"},
		{"no-profile-all-detections", Engine{Opts: Options{Seed: 3, Detections: all}},
			[]StageName{StageUnpack, StageAnalyze, StageConstruct, StageStego, StageValidate, StageRepack},
			"261b338dc32d46133bdea5843777b1e018d289bd57c1129cfaaaef83868ab837"},
	} {
		p, err := tc.e.Run(context.Background(), pkg)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		signed, err := apk.Sign(p.Unsigned, devKey)
		if err != nil {
			t.Fatal(err)
		}
		packed, err := apk.Pack(signed)
		if err != nil {
			t.Fatal(err)
		}
		if got := apk.DigestHex(packed); got != tc.want {
			t.Errorf("%s: protected digest drifted:\n got %s\nwant %s", tc.name, got, tc.want)
		}
		// An uncached engine reports every stage it ran, none cached.
		if p.Info.CacheHits != 0 {
			t.Errorf("%s: cache hits on a cacheless engine: %d", tc.name, p.Info.CacheHits)
		}
		if len(p.Info.Stages) != len(tc.stages) {
			t.Fatalf("%s: stage timings: %+v", tc.name, p.Info.Stages)
		}
		for i, st := range tc.stages {
			if p.Info.Stages[i].Stage != st {
				t.Errorf("%s: stage %d = %s, want %s", tc.name, i, p.Info.Stages[i].Stage, st)
			}
		}
	}
}

// TestEngineWarmCacheByteIdentical is the cache-correctness
// acceptance test: the same app with the same options must report a
// cache hit and return byte-identical protected output.
func TestEngineWarmCacheByteIdentical(t *testing.T) {
	pkg, _, _ := signedApp(t, appgen.Config{Name: "eng", Seed: 5, TargetLOC: 1800})
	reg := obs.NewRegistry()
	e := &Engine{
		Prof:  ProfileConfig{Events: 600, Domain: 32, Seed: 7},
		Opts:  Options{Seed: 3},
		Cache: artifact.NewStore(64 << 20),
		Obs:   reg,
	}
	cold, err := e.Run(context.Background(), pkg)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := e.Run(context.Background(), pkg)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(cold.Unsigned.Dex, warm.Unsigned.Dex) {
		t.Error("warm-cache dex differs from cold")
	}
	p1, _ := apk.Pack(mustSign(t, cold.Unsigned))
	p2, _ := apk.Pack(mustSign(t, warm.Unsigned))
	if !bytes.Equal(p1, p2) {
		t.Error("warm-cache packed output differs from cold")
	}
	if warm.Info.CacheHits == 0 {
		t.Error("warm run reported no cache hit")
	}
	if len(warm.Info.Stages) != 1 || warm.Info.Stages[0].Cache != "hit" {
		t.Errorf("warm run should be one result-cache hit, got %+v", warm.Info.Stages)
	}
	// The warm result is a clone: mutating it must not poison the
	// cache for a third caller.
	warm.Unsigned.Dex[0] ^= 0xFF
	warm.Result.File.Classes = nil
	again, err := e.Run(context.Background(), pkg)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(cold.Unsigned.Dex, again.Unsigned.Dex) {
		t.Error("caller mutation reached the cache")
	}
	if st := e.Cache.Stats(); st.Hits == 0 {
		t.Errorf("store stats recorded no hits: %+v", st)
	}
}

func mustSign(t *testing.T, u *apk.Unsigned) *apk.Package {
	t.Helper()
	key, err := apk.NewKeyPair(11)
	if err != nil {
		t.Fatal(err)
	}
	signed, err := apk.Sign(u, key)
	if err != nil {
		t.Fatal(err)
	}
	return signed
}

// TestEngineLateOptionChangeSkipsEarlyStages: changing only a
// late-stage option (the response set) invalidates the result
// artifact but reuses the profile and analyze artifacts.
func TestEngineLateOptionChangeSkipsEarlyStages(t *testing.T) {
	pkg, _, _ := signedApp(t, appgen.Config{Name: "eng", Seed: 5, TargetLOC: 1800})
	store := artifact.NewStore(64 << 20)
	prof := ProfileConfig{Events: 600, Domain: 32, Seed: 7}
	e1 := &Engine{Prof: prof, Opts: Options{Seed: 3}, Cache: store}
	if _, err := e1.Run(context.Background(), pkg); err != nil {
		t.Fatal(err)
	}
	e2 := &Engine{Prof: prof, Opts: Options{Seed: 3, DelayResponseMs: 9_000}, Cache: store}
	p, err := e2.Run(context.Background(), pkg)
	if err != nil {
		t.Fatal(err)
	}
	if p.Info.ResultKey == resultKeyOf(t, e1, pkg) {
		t.Fatal("changed option did not change the result key")
	}
	byStage := map[StageName]string{}
	for _, st := range p.Info.Stages {
		byStage[st.Stage] = st.Cache
	}
	if byStage[StageProfile] != "hit" {
		t.Errorf("profile stage = %q, want cache hit", byStage[StageProfile])
	}
	if byStage[StageAnalyze] != "hit" {
		t.Errorf("analyze stage = %q, want cache hit", byStage[StageAnalyze])
	}
	if byStage["result"] == "hit" {
		t.Error("result artifact hit despite changed options")
	}
}

func resultKeyOf(t *testing.T, e *Engine, pkg *apk.Package) artifact.Key {
	t.Helper()
	in := InputKey(pkg)
	return resultKey(in, profileKey(in, e.Prof.withDefaults()), e.Opts.withDefaults())
}

// TestInputKeyDiffersByOneMethod: two apps identical except for one
// method body must content-address differently; identical packages
// must key identically.
func TestInputKeyDiffersByOneMethod(t *testing.T) {
	pkg, devKey, app := signedApp(t, appgen.Config{Name: "eng", Seed: 5, TargetLOC: 1800})
	if InputKey(pkg) != InputKey(pkg) {
		t.Fatal("InputKey not deterministic")
	}

	twin := app.File.Clone()
	var tweaked bool
	for _, c := range twin.Classes {
		for _, m := range c.Methods {
			if len(m.Code) > 0 {
				m.Code[0].Imm++
				tweaked = true
				break
			}
		}
		if tweaked {
			break
		}
	}
	if !tweaked {
		t.Fatal("no method with code to tweak")
	}
	pkg2, err := apk.Sign(apk.Build(app.Name, twin, pkg.Res), devKey)
	if err != nil {
		t.Fatal(err)
	}
	if InputKey(pkg) == InputKey(pkg2) {
		t.Error("packages differing in one method share an artifact key")
	}
}

// TestEngineCancellation: a cancelled context aborts the run with the
// context's error instead of completing it.
func TestEngineCancellation(t *testing.T) {
	pkg, _, _ := signedApp(t, appgen.Config{Name: "eng", Seed: 5, TargetLOC: 1800})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	e := &Engine{Prof: ProfileConfig{Events: 600, Domain: 32, Seed: 7}}
	if _, err := e.Run(ctx, pkg); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled engine run: err = %v, want context.Canceled", err)
	}
	// So does a run without profiling.
	if _, err := (&Engine{Opts: Options{Seed: 1}}).Run(ctx, pkg); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled unprofiled run: err = %v, want context.Canceled", err)
	}
}

// TestStegoCoverWrapRoundTrips: with more reserved fragments than
// cover strings the cover list wraps (i % len(covers)); every stego
// string must still round-trip to the final classes.dex digest
// fragment.
func TestStegoCoverWrapRoundTrips(t *testing.T) {
	pkg, _, _ := signedApp(t, appgen.Config{Name: "st", Seed: 23, TargetLOC: 2600, QCPerMethod: 1.5})
	p, err := (&Engine{Opts: Options{
		Seed:       4,
		Detections: []DetectionMethod{DetectDigest},
		Alpha:      0.6,
	}}).Run(context.Background(), pkg)
	if err != nil {
		t.Fatal(err)
	}
	res := p.Result
	if len(res.StegoStrings) <= 5 {
		t.Fatalf("need more stego strings than covers to exercise wrapping, got %d", len(res.StegoStrings))
	}
	want := apk.DigestHex(dex.Encode(res.File))[:stegoFragLen]
	for i, s := range res.StegoStrings {
		if !apk.CarriesHidden(s) {
			t.Fatalf("stego string %d carries no payload", i)
		}
		if got := apk.ExtractFromString(s); got != want {
			t.Errorf("stego string %d extracts %q, want %q", i, got, want)
		}
	}
}

// TestEngineRejectsLyingManifest: a signed package whose dex was
// swapped for another app's fails Verify, and the engine refuses it
// with apk.ErrDigestMismatch whether or not the genuine package's
// build is cached. The input key hashes the manifest's claimed
// digests, so a warm engine that skipped the check would hand back
// the genuine app's build for the swapped one.
func TestEngineRejectsLyingManifest(t *testing.T) {
	pkg, _, _ := signedApp(t, appgen.Config{Name: "eng", Seed: 5, TargetLOC: 1800})
	other, _, _ := signedApp(t, appgen.Config{Name: "other", Seed: 6, TargetLOC: 1200})
	swapped := pkg.Clone()
	swapped.Dex = append([]byte(nil), other.Dex...)
	if err := swapped.Verify(); !errors.Is(err, apk.ErrDigestMismatch) {
		t.Fatalf("swapped package: Verify = %v, want ErrDigestMismatch", err)
	}
	if InputKey(swapped) != InputKey(pkg) {
		t.Fatal("the swapped package no longer shares the genuine one's input key")
	}

	t.Run("uncached", func(t *testing.T) {
		_, err := (&Engine{Opts: Options{Seed: 3}}).Run(context.Background(), swapped)
		if !errors.Is(err, apk.ErrDigestMismatch) {
			t.Fatalf("err = %v, want ErrDigestMismatch", err)
		}
	})
	t.Run("cached", func(t *testing.T) {
		e := &Engine{Opts: Options{Seed: 3}, Cache: artifact.NewStore(64 << 20)}
		if _, err := e.Run(context.Background(), pkg); err != nil {
			t.Fatal(err)
		}
		p, err := e.Run(context.Background(), swapped)
		if !errors.Is(err, apk.ErrDigestMismatch) {
			t.Fatalf("err = %v, want ErrDigestMismatch (served %v)", err, p != nil)
		}
		// A reseed would miss the result artifact but hit the unpack
		// artifact, which must be refused just the same.
		e.Opts.Seed = 4
		if _, err := e.Run(context.Background(), swapped); !errors.Is(err, apk.ErrDigestMismatch) {
			t.Fatalf("reseed: err = %v, want ErrDigestMismatch", err)
		}
	})
}

// TestEngineBytesIdenticalAcrossGOMAXPROCS: payloads are sealed on
// GOMAXPROCS goroutines, and the protected dex is the same at every
// setting.
func TestEngineBytesIdenticalAcrossGOMAXPROCS(t *testing.T) {
	pkg, _, _ := signedApp(t, appgen.Config{Name: "eng", Seed: 5, TargetLOC: 1800})
	e := &Engine{Opts: Options{Seed: 3, Alpha: 0.6,
		Detections: []DetectionMethod{DetectPublicKey, DetectDigest, DetectSnippet, DetectIcon}}}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	var want []byte
	for _, procs := range []int{1, 2, 3, 8} {
		runtime.GOMAXPROCS(procs)
		p, err := e.Run(context.Background(), pkg)
		if err != nil {
			t.Fatalf("GOMAXPROCS=%d: %v", procs, err)
		}
		if len(p.Result.Bombs) < 2*procs {
			t.Fatalf("GOMAXPROCS=%d: only %d bombs, too few to spread over the workers", procs, len(p.Result.Bombs))
		}
		if want == nil {
			want = p.Unsigned.Dex
		} else if !bytes.Equal(p.Unsigned.Dex, want) {
			t.Errorf("GOMAXPROCS=%d: protected dex differs from GOMAXPROCS=1", procs)
		}
	}
}

// errAfterCtx reports context.Canceled from the n-th call of Err on,
// so a test can cancel a run at an exact poll. The engine polls Err
// and never waits on Done.
type errAfterCtx struct {
	context.Context
	calls, n atomic.Int64
}

func (c *errAfterCtx) Err() error {
	if c.calls.Add(1) >= c.n.Load() {
		return context.Canceled
	}
	return nil
}

// TestEngineCancelMidConstruct: a context cancelled while construct
// is planning sites and sealing payloads ends the run with the
// context's error, and every sealing goroutine has stopped by the time
// Run returns.
func TestEngineCancelMidConstruct(t *testing.T) {
	pkg, _, _ := signedApp(t, appgen.Config{Name: "eng", Seed: 5, TargetLOC: 1800})
	e := &Engine{Opts: Options{Seed: 3, Alpha: 0.6}}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))

	// Count the polls of an uncancelled run. Construct polls once per
	// candidate method and once per payload it seals, and stego,
	// validate and repack poll once each after it. Cancelling with
	// half the payloads' polls still to come lands inside construct,
	// with sealing workers running.
	count := &errAfterCtx{Context: context.Background()}
	count.n.Store(math.MaxInt64)
	p, err := e.Run(count, pkg)
	if err != nil {
		t.Fatal(err)
	}
	jobs := int64(len(p.Result.Bombs))
	if jobs < 8 {
		t.Fatalf("only %d payloads to seal", jobs)
	}
	ctx := &errAfterCtx{Context: context.Background()}
	ctx.n.Store(count.calls.Load() - 3 - jobs/2)

	before := runtime.NumGoroutine()
	_, err = e.Run(ctx, pkg)
	if !errors.Is(err, context.Canceled) || !strings.Contains(err.Error(), "construct stage") {
		t.Fatalf("err = %v, want context.Canceled from the construct stage", err)
	}
	if !goroutinesSettle(before) {
		t.Errorf("%d goroutines before the run, %d after: a sealing worker outlived it", before, runtime.NumGoroutine())
	}
}

// TestEngineCancelMidProfile: a context cancelled while the profile VM
// runs ends the run with the context's error, and the analysis
// goroutine started beside the VM has stopped by the time Run returns.
// The goroutine's first poll cancels the run and then stays busy for
// longer than the rest of the run takes, so only a Run that joins the
// goroutine can return after it.
func TestEngineCancelMidProfile(t *testing.T) {
	pkg, _, _ := signedApp(t, appgen.Config{Name: "eng", Seed: 5, TargetLOC: 1800})
	e := &Engine{Opts: Options{Seed: 3}, Prof: ProfileConfig{Events: 300, Domain: 32, Seed: 7}}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var polls atomic.Int64
	var busy atomic.Bool
	testHookBackgroundPoll = func() {
		if polls.Add(1) == 1 {
			busy.Store(true)
			cancel()
			time.Sleep(300 * time.Millisecond)
			busy.Store(false)
		}
	}
	defer func() { testHookBackgroundPoll = nil }()

	before := runtime.NumGoroutine()
	_, err := e.Run(ctx, pkg)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if busy.Load() {
		t.Error("Run returned while the background analysis was still running")
	}
	if polls.Load() != 1 {
		t.Errorf("background analysis polled %d times, want 1: it must stop at the first cancelled poll", polls.Load())
	}
	if !goroutinesSettle(before) {
		t.Errorf("%d goroutines before the run, %d after: the analysis goroutine outlived it", before, runtime.NumGoroutine())
	}
}

// TestEngineCancelMidProfileStoresNoProfile: the profile VM polls ctx
// between events, so a run cancelled while it profiles returns long
// before the whole profile would finish, and stores no profile
// artifact. A later run on the same engine and store then profiles
// afresh and yields a fresh engine's bytes.
func TestEngineCancelMidProfileStoresNoProfile(t *testing.T) {
	pkg, _, _ := signedApp(t, appgen.Config{Name: "eng", Seed: 5, TargetLOC: 1800})
	prof := ProfileConfig{Events: 5_000, Domain: 32, Seed: 7}
	e := &Engine{Opts: Options{Seed: 3}, Prof: prof, Cache: artifact.NewStore(64 << 20)}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var polls atomic.Int64
	testHookBackgroundPoll = func() {
		if polls.Add(1) == 1 {
			cancel()
		}
	}
	start := time.Now()
	_, err := e.Run(ctx, pkg)
	cancelled := time.Since(start)
	testHookBackgroundPoll = nil
	if !errors.Is(err, context.Canceled) || !strings.Contains(err.Error(), "profile stage") {
		t.Fatalf("err = %v, want context.Canceled from the profile stage", err)
	}

	later, err := e.Run(context.Background(), pkg)
	if err != nil {
		t.Fatal(err)
	}
	var profileNs int64
	for _, st := range later.Info.Stages {
		if st.Stage == StageProfile {
			if st.Cache != "miss" {
				t.Errorf("later run's profile stage was a %q: the cancelled run stored a profile", st.Cache)
			}
			profileNs = st.WallNs
		}
	}
	if cancelled.Nanoseconds() > profileNs/4 {
		t.Errorf("cancelled run took %v, the whole profile %v: it did not stop between events",
			cancelled, time.Duration(profileNs))
	}
	fresh, err := (&Engine{Opts: Options{Seed: 3}, Prof: prof}).Run(context.Background(), pkg)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(later.Unsigned.Dex, fresh.Unsigned.Dex) {
		t.Error("the run after a cancelled profile differs from a fresh engine's")
	}
}

// TestEngineResultHitDecodesBuiltBytes: the result artifact keeps the
// built bytes and records, not a dex file, so a hit decodes its file.
// That file must encode to the built bytes, and mutating what the
// build or a hit returned must never reach a later hit.
func TestEngineResultHitDecodesBuiltBytes(t *testing.T) {
	pkg, _, _ := signedApp(t, appgen.Config{Name: "eng", Seed: 5, TargetLOC: 1800})
	e := &Engine{Opts: Options{Seed: 3, Detections: []DetectionMethod{DetectDigest}}, Cache: artifact.NewStore(64 << 20)}
	built, err := e.Run(context.Background(), pkg)
	if err != nil {
		t.Fatal(err)
	}
	wantDex := append([]byte(nil), built.Unsigned.Dex...)
	wantRes := *built.Result
	wantRes.File = nil
	wantRes.Bombs = append([]Bomb(nil), built.Result.Bombs...)
	wantRes.StegoStrings = append([]string(nil), built.Result.StegoStrings...)
	wantStrings := append([]string(nil), built.Unsigned.Res.Strings...)
	if len(wantRes.Bombs) == 0 || len(wantRes.StegoStrings) == 0 {
		t.Fatalf("%d bombs, %d stego strings: the mutations below would be vacuous", len(wantRes.Bombs), len(wantRes.StegoStrings))
	}
	mutate := func(p *Protected) {
		p.Unsigned.Dex[len(p.Unsigned.Dex)/2] ^= 0xFF
		p.Unsigned.Res.Strings[0] = "mutated"
		p.Result.Bombs[0].Salt = "mutated"
		p.Result.StegoStrings[0] = "mutated"
		p.Result.File.Classes[0].Name = "Mutated"
		p.Result.File.Strings[0] = "mutated"
	}
	mutate(built)
	for i := 0; i < 2; i++ {
		hit, err := e.Run(context.Background(), pkg)
		if err != nil {
			t.Fatal(err)
		}
		if len(hit.Info.Stages) != 1 || hit.Info.Stages[0].Cache != "hit" {
			t.Fatalf("run %d: %+v, want one result hit", i, hit.Info.Stages)
		}
		if !bytes.Equal(hit.Unsigned.Dex, wantDex) {
			t.Fatalf("run %d: hit dex differs from the built bytes", i)
		}
		if !bytes.Equal(dex.Encode(hit.Result.File), wantDex) {
			t.Fatalf("run %d: the hit's Result.File does not encode to the built bytes", i)
		}
		got := *hit.Result
		got.File = nil
		if !reflect.DeepEqual(&got, &wantRes) {
			t.Errorf("run %d: hit result records differ from the built ones", i)
		}
		if !reflect.DeepEqual(hit.Unsigned.Res.Strings, wantStrings) {
			t.Errorf("run %d: hit resource strings differ from the built ones", i)
		}
		mutate(hit)
	}
}

// goroutinesSettle reports whether the goroutine count falls to n
// within a second. A worker that has called WaitGroup.Done can still
// be counted for a moment before it exits; a leaked one never leaves.
func goroutinesSettle(n int) bool {
	for deadline := time.Now().Add(time.Second); runtime.NumGoroutine() > n; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			return false
		}
	}
	return true
}

// TestSealerFinishWaitsForWorkers: finish returns the context's error
// only once every worker is done with every job, including a worker
// caught in the middle of a seal when the context was cancelled. The
// payloads are large and incompressible so that a seal can still be
// running when finish is called.
func TestSealerFinishWaitsForWorkers(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	plain := make([]byte, 1<<20)
	rand.New(rand.NewSource(1)).Read(plain)
	key := lockbox.DeriveKey(dex.Int64(7), "salt")

	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	s := newSealer(ctx)
	blobs := make([][]byte, 8)
	for i := range blobs {
		s.add(&sealJob{blob: int64(i), plain: plain, key: key})
	}
	cancel()
	err := s.finish(blobs)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("finish = %v, want context.Canceled", err)
	}
	for i, j := range s.jobs {
		if j.err == nil && j.sealed == nil {
			t.Errorf("job %d was neither sealed nor failed when finish returned", i)
		}
	}
	if !goroutinesSettle(before) {
		t.Errorf("%d goroutines before sealing, %d after finish: a worker outlived it", before, runtime.NumGoroutine())
	}
}

package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"time"

	"bombdroid/internal/android"
	"bombdroid/internal/apk"
	"bombdroid/internal/appgen"
	"bombdroid/internal/artifact"
	"bombdroid/internal/core"
	"bombdroid/internal/vm"
)

const (
	// setupReps is how many times each workload builds its state, so
	// setup_s is a median.
	setupReps = 3
	// protectEvents is the profiling length for the protect workloads:
	// a quarter of the CLI's 10,000, so a run sees enough cold ops for
	// a p90 (the profile stage scales linearly with it).
	protectEvents = 2_500
	// protectCacheBytes bounds the artifact store; far above what a
	// run's profile and result artifacts occupy.
	protectCacheBytes = 512 << 20
	// protectApps is one pass of cold ops, under half the run length
	// on the reference box, so a run makes two passes: the same app's
	// cold op varied by ±15% between back-to-back runs, and two samples
	// per app steady the percentiles. 100 ops leave ten beyond the p90.
	protectApps = 50
	// reseedApps is smaller because set-up protects each app cold;
	// reseed ops are short enough for many passes.
	reseedApps = 25
)

// protectCorpus generates n apps of 1k–4k LOC for the protect
// workloads and signs them with the seed's developer key. The apps
// themselves are fixed: their cold protection times differ tenfold
// from app to app (the profile stage runs each app's own code), so a
// corpus drawn per seed would make op_p50_ms measure the draw. The
// seed draws the developer key, the icons, the instrumentation seed
// and the op order.
func protectCorpus(c *config, n int) (*apk.KeyPair, []*apk.Package, error) {
	if c.tiny {
		n = 2
	}
	key, err := apk.NewKeyPair(c.seed)
	if err != nil {
		return nil, nil, err
	}
	rng := rand.New(rand.NewSource(c.seed))
	pkgs := make([]*apk.Package, n)
	for i := range pkgs {
		app, err := appgen.Generate(appgen.Config{
			Name:      fmt.Sprintf("Bench%02d", i),
			Seed:      int64(7919 * (i + 1)),
			TargetLOC: 1000 + 3000*i/max(n-1, 1),
		})
		if err != nil {
			return nil, nil, err
		}
		icon := make([]byte, 4096)
		rng.Read(icon)
		res := apk.Resources{
			Strings: []string{app.Name, "Settings", "About", "Share"},
			Author:  app.Name + " devs",
			Icon:    icon,
		}
		if pkgs[i], err = apk.Sign(apk.Build(app.Name, app.File, res), key); err != nil {
			return nil, nil, err
		}
	}
	return key, pkgs, nil
}

// protectEngine is the engine the bombdroid CLI builds, with the
// given instrumentation seed and artifact store. Profiling keeps the
// CLI's default seed: an app's profiling cost moved by up to a third
// with the profiling seed, which is the draw again, not the code.
func protectEngine(store *artifact.Store, seed int64) *core.Engine {
	return &core.Engine{
		Opts:  core.Options{Seed: seed},
		Prof:  core.ProfileConfig{Events: protectEvents, Seed: 42},
		Cache: store,
	}
}

// protectOp protects one app as a developer would — the engine, then
// signing and packing its output — and returns the packed apk. A
// traced op records its stages as spans: the engine reports stage wall
// times, which are laid end to end from the engine's start, so the
// engine's own span keeps the gaps between them.
func protectOp(ctx context.Context, m *meter, eng *core.Engine, key *apk.KeyPair,
	pkg *apk.Package, traced bool) ([]byte, core.RunInfo, time.Duration, error) {
	t0 := time.Now()
	prot, err := eng.Run(ctx, pkg)
	if err != nil {
		return nil, core.RunInfo{}, 0, err
	}
	t1 := time.Now()
	signed, err := apk.Sign(prot.Unsigned, key)
	var packed []byte
	if err == nil {
		packed, err = apk.Pack(signed)
	}
	t2 := time.Now()
	if traced {
		tr := m.tr
		root, engine := tr.id(), tr.id()
		at := t0
		for _, st := range prot.Info.Stages {
			end := at.Add(time.Duration(st.WallNs))
			tr.add(engine, "core."+string(st.Stage), at, end)
			at = end
		}
		tr.record(engine, root, "core.engine", "", t0, t1)
		tr.add(root, "apk.sign_pack", t1, t2)
		tr.record(root, 0, "bench", "", t0, t2)
	}
	return packed, prot.Info, t2.Sub(t0), err
}

// verifyApk checks that a packed protected app installs on a user
// device: it unpacks and passes vm.New's signature verification.
func verifyApk(packed []byte) error {
	pkg, err := apk.Unpack(packed)
	if err != nil {
		return err
	}
	_, err = vm.New(pkg, android.EmulatorLab(1)[0], vm.Options{Seed: 1})
	return err
}

// protectPasses runs whole passes over the corpus in a seeded order,
// at least two and more while another fits in the run length; in the
// per-layer run two passes give every app a traced and an untraced op.
// op gets the pass number and the app index and returns the measured
// op's time, 0 when it failed; each pass's rate is its ops over their
// summed time.
func protectPasses(m *meter, n int, op func(pass, i int) time.Duration) {
	c := m.c
	rng := rand.New(rand.NewSource(c.seed))
	start := time.Now()
	var last time.Duration
	for pass := 0; pass < 2 || c.fits(time.Since(start), last); pass++ {
		p0 := time.Now()
		var busy time.Duration
		done := 0
		for _, i := range rng.Perm(n) {
			if d := op(pass, i); d > 0 {
				busy += d
				done++
			}
		}
		m.rate(float64(done), busy)
		last = time.Since(p0)
	}
}

// runProtect is the developer's cold wait: every op runs all seven
// stages against a fresh artifact store. Op: Engine.Run + Sign + Pack
// of one app. Throughput: apps protected per second.
func runProtect(ctx context.Context, m *meter) error {
	c := m.c
	var key *apk.KeyPair
	var apps []*apk.Package
	err := m.setup(setupReps, func(int) (err error) {
		key, apps, err = protectCorpus(c, protectApps)
		return err
	})
	if err != nil {
		return err
	}
	first := make([][]byte, len(apps))
	var hits, lookups int
	var eng *core.Engine
	enginePass := -1
	m.begin()
	protectPasses(m, len(apps), func(pass, i int) time.Duration {
		if pass != enginePass { // a fresh store per pass keeps every op cold
			eng, enginePass = protectEngine(artifact.NewStore(protectCacheBytes), c.seed), pass
		}
		traced := m.traced(pass + i)
		m.attempted++
		packed, info, d, err := protectOp(ctx, m, eng, key, apps[i], traced)
		if err != nil {
			m.failed++
			m.checkf(false, "protect %s: %v", apps[i].Name, err)
			return 0
		}
		ms := float64(d.Nanoseconds()) / 1e6
		m.lat = append(m.lat, ms)
		m.tag(apps[i].Name, traced, ms)
		hits += info.CacheHits
		lookups += info.CacheHits + info.CacheMisses
		if first[i] == nil {
			first[i] = packed
		} else {
			m.checkf(bytes.Equal(first[i], packed), "protect %s: pass %d output differs from pass 0", apps[i].Name, pass)
		}
		return d
	})
	m.end()
	m.layer["artifact.hit_pct"] = pct(hits, lookups)
	m.digest = digestApks(m, first)
	return nil
}

// runProtectReseed is the wait after changing an instrumentation
// option: set-up protects its corpus once (on nproc workers),
// then every op protects an app under a new Opts.Seed, so profile and
// analyze come from the artifact store and construct through repack
// run. Each reseed op is followed by a warm op with the same options,
// served whole from the result cache; its output must be
// byte-identical. Op: the reseed Engine.Run + Sign + Pack.
// Throughput: reseed ops per second.
func runProtectReseed(ctx context.Context, m *meter) error {
	c := m.c
	var key *apk.KeyPair
	var apps []*apk.Package
	var store *artifact.Store
	err := m.setup(setupReps, func(int) (err error) {
		if key, apps, err = protectCorpus(c, reseedApps); err != nil {
			return err
		}
		store = artifact.NewStore(protectCacheBytes)
		eng := protectEngine(store, c.seed)
		_, err = closedLoop(ctx, len(apps), c.workers, func(_, i int) error {
			_, err := eng.Run(ctx, apps[i])
			return err
		})
		return err
	})
	if err != nil {
		return err
	}
	first := make([][]byte, len(apps))
	var warm []float64
	var hits, lookups int
	m.begin()
	protectPasses(m, len(apps), func(pass, i int) time.Duration {
		eng := protectEngine(store, c.seed+1+int64(pass))
		traced := m.traced(pass + i)
		m.attempted += 2
		packed, info, d, err := protectOp(ctx, m, eng, key, apps[i], traced)
		if err != nil {
			m.failed += 2
			m.checkf(false, "reseed %s: %v", apps[i].Name, err)
			return 0
		}
		m.checkf(info.CacheHits >= 2, "reseed %s: profile or analyze missed the cache (%d hits)", apps[i].Name, info.CacheHits)
		wpacked, winfo, wd, err := protectOp(ctx, m, eng, key, apps[i], false)
		if err != nil {
			m.failed++
			m.checkf(false, "warm %s: %v", apps[i].Name, err)
			return 0
		}
		m.checkf(bytes.Equal(wpacked, packed), "warm %s: output differs from the reseed output", apps[i].Name)
		ms := float64(d.Nanoseconds()) / 1e6
		m.lat = append(m.lat, ms)
		m.tag(apps[i].Name, traced, ms)
		warm = append(warm, float64(wd.Nanoseconds())/1e6)
		hits += info.CacheHits + winfo.CacheHits
		lookups += info.CacheHits + info.CacheMisses + winfo.CacheHits + winfo.CacheMisses
		if pass == 0 {
			first[i] = packed
		}
		return d
	})
	m.end()
	m.layer["artifact.hit_pct"] = pct(hits, lookups)
	m.layer["protect.warm_speedup"] = median(m.lat) / median(warm)
	m.digest = digestApks(m, first)
	return nil
}

// digestApks checks that each first-pass output installs and hashes
// them in corpus order.
func digestApks(m *meter, outs [][]byte) string {
	h := sha256.New()
	for i, b := range outs {
		if b == nil {
			m.checkf(false, "app %d was never protected", i)
			continue
		}
		if err := verifyApk(b); err != nil {
			m.checkf(false, "app %d: protected output does not install: %v", i, err)
		}
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// pct is part/whole as a percentage, 0 for an empty whole.
func pct(part, whole int) float64 {
	if whole == 0 {
		return 0
	}
	return 100 * float64(part) / float64(whole)
}

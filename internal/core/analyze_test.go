package core

import (
	"bytes"
	"context"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"bombdroid/internal/appgen"
	"bombdroid/internal/artifact"
	"bombdroid/internal/cfg"
	"bombdroid/internal/dex"
)

// TestStageAnalyzeMatchesConstructClone pins what makes the analyze
// artifact valid: for every construct candidate, the graph, liveness
// and QCs stageAnalyze computed on the unmodified input equal a fresh
// analysis of the construct clone just before that method is
// instrumented, after every earlier method's edits. Two seeds run over
// the same analyses, so the second also proves the first left the
// shared artifact untouched.
func TestStageAnalyzeMatchesConstructClone(t *testing.T) {
	var apps []*appgen.App
	for _, name := range appgen.NamedApps {
		app, err := appgen.NamedApp(name)
		if err != nil {
			t.Fatal(err)
		}
		apps = append(apps, app)
	}
	for i, loc := range []int{1000, 2000, 3000, 4000} {
		app, err := appgen.Generate(appgen.Config{Name: fmt.Sprintf("eq%d", i), Seed: int64(31 + i), TargetLOC: loc})
		if err != nil {
			t.Fatal(err)
		}
		apps = append(apps, app)
	}
	for _, app := range apps {
		// A synthetic profile ranks methods by position, so the hot
		// set excludes some candidates and the zip must skip them.
		profile := map[string]int64{}
		for i, m := range app.File.Methods() {
			profile[m.FullName()] = int64(i)
		}
		a := &artifacts{File: app.File, Ko: "ko", ResourceCount: 2,
			Opts: Options{}.withDefaults(), Profile: profile}
		if err := stageAnalyze(context.Background(), a); err != nil {
			t.Fatal(err)
		}
		if len(a.Hot) == 0 {
			t.Fatalf("%s: empty hot set", app.Name)
		}
		for _, seed := range []int64{1, 2} {
			checked := 0
			a.Opts.Seed = seed
			a.beforeMethod = func(out *dex.File, m *dex.Method, ma *methodAnalysis) {
				checked++
				want := analyzeMethod(out, m)
				if !reflect.DeepEqual(ma.g, want.g) {
					t.Errorf("%s seed %d %s: graph differs from the clone's", app.Name, seed, m.FullName())
				}
				if !reflect.DeepEqual(ma.lv, want.lv) {
					t.Errorf("%s seed %d %s: liveness differs from the clone's", app.Name, seed, m.FullName())
				}
				if !qcsEqual(ma.qcs, want.qcs) {
					t.Errorf("%s seed %d %s: QCs differ from the clone's", app.Name, seed, m.FullName())
				}
			}
			if err := stageConstruct(context.Background(), a); err != nil {
				t.Fatal(err)
			}
			if checked != len(a.analyses) || checked == 0 {
				t.Fatalf("%s: checked %d of %d candidates", app.Name, checked, len(a.analyses))
			}
			if len(a.Result.Bombs) == 0 {
				t.Fatalf("%s seed %d: no bombs, so no earlier edits were checked against", app.Name, seed)
			}
		}
	}
}

// TestAnalyzeMethodDetaches: the analysis keeps no pointer into the
// file it was computed from, and matches the cfg functions otherwise.
func TestAnalyzeMethodDetaches(t *testing.T) {
	app, err := appgen.Generate(smallCfg(3))
	if err != nil {
		t.Fatal(err)
	}
	m := app.File.Methods()[0]
	ma := analyzeMethod(app.File, m)
	if ma.g.Method != nil || ma.g.File != nil {
		t.Error("graph still points into the input file")
	}
	g := cfg.Build(app.File, m)
	qcs := cfg.FindQCsWithGraph(app.File, m, g)
	if len(qcs) != len(ma.qcs) {
		t.Fatalf("QCs: %d, want %d", len(ma.qcs), len(qcs))
	}
	for i := range ma.qcs {
		if ma.qcs[i].Method != nil {
			t.Errorf("QC %d still points into the input file", i)
		}
		qcs[i].Method = nil
	}
	if !qcsEqual(ma.qcs, qcs) {
		t.Error("QCs differ from cfg.FindQCsWithGraph")
	}
}

// TestEngineConcurrentReseedsShareAnalysis: reseeds of one app run
// concurrently through one engine configuration and artifact store
// all read the one cached decoded input and the one cached analysis;
// each gives the output of a cold, uncached run with its seed. Run
// under -race.
func TestEngineConcurrentReseedsShareAnalysis(t *testing.T) {
	pkg, _, _ := signedApp(t, appgen.Config{Name: "eng", Seed: 5, TargetLOC: 1800})
	prof := ProfileConfig{Events: 600, Domain: 32, Seed: 7}
	base := Engine{Prof: prof, Opts: Options{Seed: 1}, Cache: artifact.NewStore(64 << 20)}
	if _, err := base.Run(context.Background(), pkg); err != nil {
		t.Fatal(err)
	}
	seeds := []int64{2, 3, 4}
	want := map[int64][]byte{}
	for _, s := range seeds {
		cold := Engine{Prof: prof, Opts: Options{Seed: s}}
		p, err := cold.Run(context.Background(), pkg)
		if err != nil {
			t.Fatal(err)
		}
		want[s] = p.Unsigned.Dex
	}

	// Two runs per seed, so same-seed runs also race each other.
	var wg sync.WaitGroup
	got := make([]*Protected, 2*len(seeds))
	errs := make([]error, len(got))
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			e := base
			e.Opts.Seed = seeds[i%len(seeds)]
			got[i], errs[i] = e.Run(context.Background(), pkg)
		}(i)
	}
	wg.Wait()
	for i, p := range got {
		s := seeds[i%len(seeds)]
		if errs[i] != nil {
			t.Fatalf("seed %d: %v", s, errs[i])
		}
		if !bytes.Equal(p.Unsigned.Dex, want[s]) {
			t.Errorf("seed %d run %d: output differs from the cold run", s, i)
		}
		for _, st := range p.Info.Stages {
			if (st.Stage == StageUnpack || st.Stage == StageAnalyze) && st.Cache != "hit" {
				t.Errorf("seed %d run %d: %s stage = %q, want cache hit", s, i, st.Stage, st.Cache)
			}
		}
	}
}

// TestOverlappedAnalysisMatchesInline: the analyses started beside the
// profile VM, before the hot set is known, and trimmed by stageAnalyze
// equal those stageAnalyze computes inline for the non-hot methods
// alone: same hot set, same candidates in the same order, equal
// graphs, liveness and QCs.
func TestOverlappedAnalysisMatchesInline(t *testing.T) {
	var apps []*appgen.App
	for _, name := range appgen.NamedApps[:2] {
		app, err := appgen.NamedApp(name)
		if err != nil {
			t.Fatal(err)
		}
		apps = append(apps, app)
	}
	for i, loc := range []int{1000, 3000} {
		app, err := appgen.Generate(appgen.Config{Name: fmt.Sprintf("ov%d", i), Seed: int64(41 + i), TargetLOC: loc})
		if err != nil {
			t.Fatal(err)
		}
		apps = append(apps, app)
	}
	ctx := context.Background()
	for _, app := range apps {
		profile := map[string]int64{}
		for i, m := range app.File.Methods() {
			profile[m.FullName()] = int64(i)
		}
		inline := &artifacts{File: app.File, Opts: Options{}.withDefaults(), Profile: profile}
		overlapped := &artifacts{File: app.File, Opts: Options{}.withDefaults(), Profile: profile,
			early: startAnalysis(ctx, app.File)}
		if err := stageAnalyze(ctx, inline); err != nil {
			t.Fatal(err)
		}
		if err := stageAnalyze(ctx, overlapped); err != nil {
			t.Fatal(err)
		}
		if len(inline.Hot) == 0 || !reflect.DeepEqual(inline.Hot, overlapped.Hot) {
			t.Fatalf("%s: hot sets %d and %d methods, want equal and non-empty", app.Name, len(inline.Hot), len(overlapped.Hot))
		}
		if len(inline.analyses) == 0 || len(inline.analyses) != len(overlapped.analyses) {
			t.Fatalf("%s: %d inline analyses, %d overlapped", app.Name, len(inline.analyses), len(overlapped.analyses))
		}
		for i, want := range inline.analyses {
			got := overlapped.analyses[i]
			if !reflect.DeepEqual(got.g, want.g) || !reflect.DeepEqual(got.lv, want.lv) || !qcsEqual(got.qcs, want.qcs) {
				t.Errorf("%s: candidate %d: overlapped analysis differs from inline", app.Name, i)
			}
		}
	}
}

// qcsEqual compares two QC lists field by field. reflect.DeepEqual
// would compare each constant's string data pointer, so it reads two
// equal string constants with different backing bytes as different;
// constants compare by sameValue instead.
func qcsEqual(a, b []cfg.QC) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		x, y := a[i], b[i]
		if !sameValue(x.Const, y.Const) {
			return false
		}
		x.Const, y.Const = dex.Value{}, dex.Value{}
		if !reflect.DeepEqual(x, y) {
			return false
		}
	}
	return true
}

// sameValue reports whether a and b hold the same kind, Int and string
// bytes, and arrays with sameValue elements.
func sameValue(a, b dex.Value) bool {
	if a.Kind != b.Kind || a.Int != b.Int || a.Str() != b.Str() {
		return false
	}
	x, y := a.Arr(), b.Arr()
	if x == nil || y == nil {
		return x == y
	}
	if len(*x) != len(*y) {
		return false
	}
	for i := range *x {
		if !sameValue((*x)[i], (*y)[i]) {
			return false
		}
	}
	return true
}

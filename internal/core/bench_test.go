package core

import (
	"context"
	"testing"

	"bombdroid/internal/appgen"
	"bombdroid/internal/artifact"
)

// BenchmarkEngineReseed re-protects one app after a late option
// change: every op runs under a new Opts.Seed against a store that
// already holds the app's unpack, profile and analyze artifacts, so
// construct through repack run. Per-stage wall time is reported the
// way the root package's BenchmarkEngineCold reports it.
func BenchmarkEngineReseed(b *testing.B) {
	pkg, _, _ := signedApp(b, appgen.Config{Name: "bench", Seed: 77, TargetLOC: 2000, QCPerMethod: 1.3})
	eng := Engine{
		Prof:  ProfileConfig{Events: 2500, Domain: 64, Seed: 7},
		Cache: artifact.NewStore(256 << 20),
	}
	if _, err := eng.Run(context.Background(), pkg); err != nil {
		b.Fatal(err)
	}
	stageNs := map[StageName]int64{}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.Opts.Seed = int64(i + 1)
		p, err := eng.Run(context.Background(), pkg)
		if err != nil {
			b.Fatal(err)
		}
		for _, st := range p.Info.Stages {
			switch st.Stage {
			case StageUnpack, StageProfile, StageAnalyze:
				if st.Cache != "hit" {
					b.Fatalf("op %d: %s stage = %q, want cache hit", i, st.Stage, st.Cache)
				}
			}
			stageNs[st.Stage] += st.WallNs
		}
	}
	b.StopTimer()
	for stage, total := range stageNs {
		b.ReportMetric(float64(total)/float64(b.N), string(stage)+"_ns_op")
	}
}

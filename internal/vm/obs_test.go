package vm

import (
	"testing"

	"bombdroid/internal/android"
	"bombdroid/internal/apk"
	"bombdroid/internal/appgen"
	"bombdroid/internal/dex"
	"bombdroid/internal/obs"
)

// installObsApp is installApp with a metrics registry attached.
func installObsApp(t *testing.T, f *dex.File, reg *obs.Registry) *VM {
	t.Helper()
	devKey, err := apk.NewKeyPair(101)
	if err != nil {
		t.Fatal(err)
	}
	patched := patchPayloadKey(t, f, devKey.PublicKeyHex())
	pkg, err := apk.Sign(apk.Build("test.app", patched, apk.Resources{
		Strings: []string{"Tap to start"}, Author: "dev", Icon: []byte{1},
	}), devKey)
	if err != nil {
		t.Fatal(err)
	}
	v, err := New(pkg, android.EmulatorLab(1)[0], Options{Seed: 7, Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// TestObsOpcodeCountsAndInvokeHistogram: the instrumented VM counts
// executed opcodes exactly and publishes them only on FlushObs, while
// the dispatch-step histogram records one observation per top-level
// Invoke.
func TestObsOpcodeCountsAndInvokeHistogram(t *testing.T) {
	f, _ := buildTestApp(t)
	reg := obs.NewRegistry()
	v := installObsApp(t, f, reg)

	// App.add executes exactly 2 instructions: OpAdd, OpReturn.
	mustInvoke(t, v, "App.add", dex.Int64(2), dex.Int64(3))

	addCtr := reg.Counter(obs.L("vm_op_total", "op", dex.OpAdd.String()))
	if addCtr.Value() != 0 {
		t.Fatal("opcode counts published before FlushObs")
	}
	v.FlushObs()
	if got := addCtr.Value(); got != 1 {
		t.Fatalf("add count = %d, want 1", got)
	}
	retCtr := reg.Counter(obs.L("vm_op_total", "op", dex.OpReturn.String()))
	if got := retCtr.Value(); got != 1 {
		t.Fatalf("return count = %d, want 1", got)
	}

	if got := reg.Counter("vm_invokes_total").Value(); got != 1 {
		t.Fatalf("vm_invokes_total = %d, want 1", got)
	}
	h := reg.Histogram("vm_invoke_steps", obs.TickBuckets)
	if h.Count() != 1 || h.Sum() != 2 {
		t.Fatalf("invoke-steps histogram count/sum = %d/%d, want 1/2", h.Count(), h.Sum())
	}

	// A second flush publishes nothing new.
	v.FlushObs()
	if got := addCtr.Value(); got != 1 {
		t.Fatalf("re-flush double-counted: %d", got)
	}
}

// TestObsResponseCounter: detection responses tally per kind.
func TestObsResponseCounter(t *testing.T) {
	f, _ := buildTestApp(t)
	reg := obs.NewRegistry()
	v := installObsApp(t, f, reg)
	// forceDecrypt detonates the crash bomb on a genuine app? No — on
	// the genuine app the payload sees the developer key and stays
	// silent. Fire a response directly through the delayed path.
	if err := v.fireResponse(RespWarn, "Bomb0", "w"); err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter(obs.L("vm_responses_total", "kind", "warn")).Value(); got != 1 {
		t.Fatalf("warn responses = %d, want 1", got)
	}
}

// TestObsOffLeavesNoTrace: without Options.Obs the VM allocates no
// metrics state, and FlushObs is a harmless no-op.
func TestObsOffLeavesNoTrace(t *testing.T) {
	f, _ := buildTestApp(t)
	v := installApp(t, f, false)
	if v.obsOps != nil || v.obsInvokes != nil {
		t.Fatal("metrics state allocated without Options.Obs")
	}
	v.FlushObs()
	mustInvoke(t, v, "App.add", dex.Int64(1), dex.Int64(2))
}

// TestObsDeterministicAcrossRuns: two identical sessions produce
// byte-identical deterministic snapshots — the per-VM property behind
// the campaign-level workers-1-vs-8 guarantee.
func TestObsDeterministicAcrossRuns(t *testing.T) {
	run := func() []byte {
		f, _ := buildTestApp(t)
		reg := obs.NewRegistry()
		v := installObsApp(t, f, reg)
		mustInvoke(t, v, "App.sum3")
		mustInvoke(t, v, "App.classify", dex.Int64(2))
		mustInvoke(t, v, "App.callAdd")
		v.FlushObs()
		b, err := reg.SnapshotDeterministic().JSON()
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	a, b := run(), run()
	if string(a) != string(b) {
		t.Fatalf("VM metrics not deterministic:\n%s\n---\n%s", a, b)
	}
}

// TestObsInvokeAllocFree pins where an obs VM runs: on the quickened
// loop, whose Invoke allocates nothing, and not on the reference
// interpreter, whose frames allocate their fault closures. The app and
// handler are BenchmarkInvokeObs's.
func TestObsInvokeAllocFree(t *testing.T) {
	app, err := appgen.Generate(appgen.Config{Name: "bench", Seed: 77, TargetLOC: 2000, QCPerMethod: 1.3})
	if err != nil {
		t.Fatal(err)
	}
	pkg := signApp(t, "bench", app.File)
	allocs := func(ref bool) float64 {
		v, err := New(pkg, android.EmulatorLab(1)[0], Options{Seed: 1, Obs: obs.NewRegistry(), Reference: ref})
		if err != nil {
			t.Fatal(err)
		}
		h := v.Handlers()[0]
		x, y := dex.Int64(3), dex.Int64(app.Config.ParamDomain/2)
		return testing.AllocsPerRun(50, func() {
			if _, err := v.Invoke(h, x, y); err != nil {
				t.Fatal(err)
			}
		})
	}
	if n := allocs(false); n != 0 {
		t.Errorf("obs VM Invoke: %v allocs, want 0", n)
	}
	if n := allocs(true); n == 0 {
		t.Errorf("reference obs VM Invoke: 0 allocs; the check cannot tell the interpreters apart")
	}
}

package attack

import (
	"testing"

	"bombdroid/internal/android"
	"bombdroid/internal/apk"
	"bombdroid/internal/fuzz"
	"bombdroid/internal/vm"
)

// The debugger locates only bombs that fire — a small minority — and
// attributes each to its true host method.
func TestDebuggerLocatesOnlyFiredBombs(t *testing.T) {
	fx := build(t, 149)
	attacker, err := apk.NewKeyPair(4000)
	if err != nil {
		t.Fatal(err)
	}
	pirated, err := apk.Repackage(fx.prot, attacker, apk.RepackOptions{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Debugger(pirated, fx.app.Config.ParamDomain, 30*60_000, 9)
	if err != nil {
		t.Fatal(err)
	}
	total := len(fx.protRes.RealBombs())
	t.Logf("debugger: %d symptoms, located %d/%d bombs", res.Symptoms, len(res.LocatedBombs), total)
	if len(res.LocatedBombs) >= total/2 {
		t.Errorf("debugging located %d/%d bombs — dormancy broken", len(res.LocatedBombs), total)
	}
	// Every located bomb's attribution must match ground truth.
	hostOf := map[string]string{}
	for _, b := range fx.protRes.Bombs {
		hostOf[b.ID] = b.Method
	}
	for bomb, host := range res.LocatedBombs {
		want, ok := hostOf[bomb]
		if !ok {
			t.Errorf("located unknown bomb %q", bomb)
			continue
		}
		if host != want {
			t.Errorf("bomb %s attributed to %s, truth %s", bomb, host, want)
		}
	}
}

// A traced VM runs on the reference interpreter; its trace at every
// symptom of the debugger's session, and at the end, must equal that of
// a VM built with Options.Reference.
func TestDebuggerTraceMatchesReference(t *testing.T) {
	fx := build(t, 149)
	attacker, err := apk.NewKeyPair(4000)
	if err != nil {
		t.Fatal(err)
	}
	pirated, err := apk.Repackage(fx.prot, attacker, apk.RepackOptions{})
	if err != nil {
		t.Fatal(err)
	}
	session := func(ref bool) (traces [][]vm.TraceEntry, ticks int64) {
		v, err := vm.NewUnverified(pirated, android.EmulatorLab(1)[0], vm.Options{
			Seed: 9, TraceDepth: 4096, Reference: ref,
		})
		if err != nil {
			t.Fatal(err)
		}
		v.Observe(func(call vm.APICall) {
			if symptom(call) {
				traces = append(traces, v.Trace())
			}
		})
		fuzz.Run(v, fuzz.NewDynodroid(), fx.app.Config.ParamDomain, fuzz.Options{DurationMs: 30 * 60_000, Seed: 9})
		return append(traces, v.Trace()), v.NowTicks()
	}
	q, qTicks := session(false)
	r, rTicks := session(true)
	if qTicks != rTicks {
		t.Fatalf("clocks diverge: traced %d, reference %d", qTicks, rTicks)
	}
	if len(q) != len(r) {
		t.Fatalf("symptom counts diverge: traced %d, reference %d", len(q)-1, len(r)-1)
	}
	inPayload := 0
	for i := range q {
		if len(q[i]) != len(r[i]) {
			t.Fatalf("trace %d lengths diverge: %d vs %d", i, len(q[i]), len(r[i]))
		}
		for k := range q[i] {
			if q[i][k] != r[i][k] {
				t.Fatalf("trace %d entry %d diverges:\n  traced:    %+v\n  reference: %+v", i, k, q[i][k], r[i][k])
			}
			if q[i][k].InPayload != "" {
				inPayload++
			}
		}
	}
	if len(q) < 2 || inPayload == 0 {
		t.Fatalf("%d symptoms, %d payload trace entries: the session never reached a bomb", len(q)-1, inPayload)
	}
}

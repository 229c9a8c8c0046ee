package attack

import (
	"bombdroid/internal/android"
	"bombdroid/internal/apk"
	"bombdroid/internal/dex"
	"bombdroid/internal/fuzz"
	"bombdroid/internal/vm"
)

// DebuggerResult reports a §2.1 "Debugging" campaign: run the
// repackaged app under a debugger, and whenever suspicious symptoms
// arise (a response fires) trace back through the instruction history
// to the detection and response code.
type DebuggerResult struct {
	FuzzedMinutes int64
	Symptoms      int // responses observed
	// LocatedBombs maps payload class -> host method the trace led to.
	// Only bombs that actually fired can be located — dormant bombs
	// leave no trace, which is the defence's point.
	LocatedBombs map[string]string
}

// Debugger fuzzes the app with tracing enabled and, on each symptom,
// walks the trace backwards to the decryptLoad site that launched the
// offending payload.
func Debugger(pkg *apk.Package, domain int64, durationMs int64, seed int64) (DebuggerResult, error) {
	v, err := vm.NewUnverified(pkg, android.EmulatorLab(1)[0], vm.Options{
		Seed: seed, TraceDepth: 4096,
	})
	if err != nil {
		return DebuggerResult{}, err
	}
	res := DebuggerResult{LocatedBombs: map[string]string{}}

	locate := func() {
		trace := v.Trace()
		// Walk backwards: the most recent payload-context entry names
		// the bomb; the decryptLoad call before it names the host.
		for i := len(trace) - 1; i >= 0; i-- {
			e := trace[i]
			if e.InPayload == "" {
				continue
			}
			bomb := e.InPayload
			host := "?"
			for j := i; j >= 0; j-- {
				if trace[j].InPayload == "" {
					host = trace[j].Method
					break
				}
			}
			res.LocatedBombs[bomb] = host
			return
		}
	}
	v.Observe(func(call vm.APICall) {
		if symptom(call) {
			res.Symptoms++
			locate()
		}
	})

	r := fuzz.Run(v, fuzz.NewDynodroid(), domain, fuzz.Options{
		DurationMs: durationMs, Seed: seed,
	})
	res.FuzzedMinutes = r.VirtualMillis / 60_000
	return res, nil
}

// symptom reports whether call is a detection response made by payload
// code: what the debugger stops on.
func symptom(call vm.APICall) bool {
	switch call.API {
	case dex.APICrash, dex.APIWarnUser, dex.APILeakMemory,
		dex.APISpinLoop, dex.APIReportPiracy, dex.APIDelayBomb:
		return call.InPayload != ""
	}
	return false
}

package attack

import (
	"fmt"
	"math/rand"

	"bombdroid/internal/android"
	"bombdroid/internal/apk"
	"bombdroid/internal/dex"
	"bombdroid/internal/fuzz"
	"bombdroid/internal/vm"
)

// lab installs a (possibly invalid-signature) dex file on an attacker
// emulator: attackers "are allowed to hack and modify their own
// Android systems arbitrarily" (§2.2), so verification is skipped.
func lab(file *dex.File, res apk.Resources, seed int64) (*vm.VM, error) {
	attacker, err := apk.NewKeyPair(0xA77AC4 + seed)
	if err != nil {
		return nil, err
	}
	pkg, err := apk.Sign(apk.Build("victim", file, res), attacker)
	if err != nil {
		return nil, err
	}
	return vm.NewUnverified(pkg, android.EmulatorLab(1)[0], vm.Options{Seed: seed})
}

// ForcedExecutionResult reports a forced-sampled-execution attack.
type ForcedExecutionResult struct {
	BranchesForced  int
	PayloadRevealed int // detection code executed during forced runs
	// ForcedOnlyReveals counts reveals that did NOT also occur in the
	// unmutated control run with the same inputs — i.e. what the
	// *forcing itself* bought the attacker. Bombs whose trigger value
	// the inputs happened to satisfy legitimately (weak c=0 bombs,
	// mostly) fire either way and are excluded here.
	ForcedOnlyReveals int
	Corrupted         int // runs dying in decrypt failures / faults
	CleanRuns         int
	// RevealedIDs names the payload classes that executed during
	// forced runs — necessarily via their true keys (decryption admits
	// no other way), so every entry was naturally triggerable with the
	// attacker's inputs. Cross-reference with bomb strength to see
	// that only weak triggers appear here.
	RevealedIDs map[string]bool
}

// ForcedExecution circumvents trigger conditions (§2.1): for every
// conditional branch near a suspicious call it rewrites the branch to
// unconditionally take / skip, then runs the containing method with
// arbitrary arguments on a lab emulator. Against cleartext bombs this
// walks straight into the detection code; against BombDroid the
// forced path reaches decryptLoad with a wrong key and the app
// corrupts instead of revealing anything.
func ForcedExecution(file *dex.File, res apk.Resources, seed int64) (ForcedExecutionResult, error) {
	out := ForcedExecutionResult{RevealedIDs: map[string]bool{}}
	suspicious := map[dex.API]bool{
		dex.APIDecryptLoad: true, dex.APIGetPublicKey: true,
		dex.APIGetManifestDigest: true, dex.APICodeDigest: true,
		dex.APIReflectCall: true,
	}
	const window = 24 // branch-to-call distance the attacker considers

	for _, m := range file.Methods() {
		if m.IsSynthetic() {
			continue
		}
		// Candidate branches: conditionals within `window` pcs before a
		// suspicious call.
		var branchPCs []int
		for pc, in := range m.Code {
			if !in.Op.IsCondBranch() {
				continue
			}
			for look := pc + 1; look < len(m.Code) && look <= pc+window; look++ {
				li := m.Code[look]
				if li.Op == dex.OpCallAPI && suspicious[dex.API(li.Imm)] {
					branchPCs = append(branchPCs, pc)
					break
				}
			}
		}
		// Control: the same method, same inputs, no forcing.
		controlRevealed := false
		if len(branchPCs) > 0 {
			v, err := lab(file, res, seed)
			if err != nil {
				return out, fmt.Errorf("attack: lab install: %w", err)
			}
			v.Observe(func(call vm.APICall) {
				if call.API.DetectionCheck() {
					controlRevealed = true
				}
			})
			args := make([]dex.Value, m.NumArgs)
			for i := range args {
				args[i] = dex.Int64(int64(i))
			}
			v.Invoke(m.FullName(), args...)
		}
		for _, pc := range branchPCs {
			for _, force := range []bool{true, false} {
				mut := file.Clone()
				mm := mut.Method(m.FullName())
				if force {
					// Take the branch unconditionally.
					mm.Code[pc] = dex.Instr{Op: dex.OpGoto, A: -1, B: -1, C: mm.Code[pc].C}
				} else {
					// Never take it.
					mm.Code[pc] = dex.Instr{Op: dex.OpNop, A: -1, B: -1, C: -1}
				}
				out.BranchesForced++
				v, err := lab(mut, res, seed)
				if err != nil {
					return out, fmt.Errorf("attack: lab install: %w", err)
				}
				// Detection code executing at all counts as revealed —
				// app code never touches these APIs itself, whether the
				// detection sits in cleartext (naive, SSN via
				// reflection) or inside a decrypted payload.
				revealed := false
				v.Observe(func(call vm.APICall) {
					if call.API.DetectionCheck() {
						revealed = true
						if call.InPayload != "" {
							out.RevealedIDs[call.InPayload] = true
						}
					}
				})
				args := make([]dex.Value, m.NumArgs)
				for i := range args {
					args[i] = dex.Int64(int64(i))
				}
				_, runErr := v.Invoke(m.FullName(), args...)
				switch {
				case revealed:
					out.PayloadRevealed++
					if !controlRevealed {
						out.ForcedOnlyReveals++
					}
				case vm.IsDecryptFailure(runErr) || vm.IsRuntimeFault(runErr):
					out.Corrupted++
				default:
					out.CleanRuns++
				}
			}
		}
	}
	return out, nil
}

// SliceExecutionResult reports the HARVESTER attack.
type SliceExecutionResult struct {
	Slices       int
	Executed     int
	Revealed     int // payload behaviour uncovered
	Corrupted    int // decrypt failures
	OtherFailure int
}

// ExecuteSlices extracts and runs every backward slice ending at a
// decryptLoad. The slice carries the hash plumbing but not the true
// trigger value, so execution yields decrypt failures, not payload
// code (the paper: "As BombDroid applies encryption on payloads, it
// is infeasible to directly execute payload without discovering the
// key").
func ExecuteSlices(file *dex.File, res apk.Resources, seed int64) (SliceExecutionResult, error) {
	var out SliceExecutionResult
	slices := BackwardSlices(file, dex.APIDecryptLoad)
	out.Slices = len(slices)
	for _, sl := range slices {
		harness, err := ExtractSliceMethod(file, sl)
		if err != nil {
			out.OtherFailure++
			continue
		}
		v, err := lab(harness, res, seed)
		if err != nil {
			return out, err
		}
		revealed := false
		v.Observe(func(call vm.APICall) {
			if call.InPayload != "" {
				revealed = true
			}
		})
		_, runErr := v.Invoke("SliceHarness.slice")
		out.Executed++
		switch {
		case revealed:
			out.Revealed++
		case vm.IsDecryptFailure(runErr):
			out.Corrupted++
		case runErr != nil:
			out.OtherFailure++
		}
	}
	return out, nil
}

// HookResult reports a debugger/hooking campaign.
type HookResult struct {
	FuzzedMinutes  int64
	BombsTriggered int // payloads located because they fired
	Suppressed     int // detections neutralized by the hook
}

// HookCampaign runs a fuzzing campaign with getPublicKey hooked to
// return a fake original key (the vtable-hijack of §4.1). Only bombs
// that actually fire are located; dormant bombs stay invisible, which
// is why the paper pairs hooking with (ineffective) fuzzing.
func HookCampaign(pkg *apk.Package, domain int64, durationMs int64, fakeKey string, seed int64) (HookResult, error) {
	v, err := vm.NewUnverified(pkg, android.EmulatorLab(1)[0], vm.Options{Seed: seed})
	if err != nil {
		return HookResult{}, err
	}
	suppressed := 0
	v.Hook(dex.APIGetPublicKey, func(call vm.APICall) (dex.Value, bool, error) {
		if call.InPayload != "" {
			suppressed++
		}
		return dex.Str(fakeKey), true, nil
	})
	r := fuzz.Run(v, fuzz.NewDynodroid(), domain, fuzz.Options{
		DurationMs: durationMs, Seed: seed,
	})
	return HookResult{
		FuzzedMinutes:  r.VirtualMillis / 60_000,
		BombsTriggered: len(r.DetectionRuns),
		Suppressed:     suppressed,
	}, nil
}

// AnalystResult reports the §8.3.2 human-analyst experiment.
type AnalystResult struct {
	Sessions       int
	HoursSpent     int64
	BombsTriggered int
	TotalBombs     int
}

// HumanAnalyst models the paper's skilled analysts: hours of guided
// fuzzing split across sessions, mutating environment variable values
// between sessions ("allowed to apply any tools … and mutate
// environment variables' values"). triggerable counts against the
// total bombs given.
func HumanAnalyst(pkg *apk.Package, domain int64, totalBombs int, hours int, handlerScreens map[string]int64, screenField string, seed int64) (AnalystResult, error) {
	rng := rand.New(rand.NewSource(seed))
	triggered := map[string]bool{}
	sessions := hours * 2 // half-hour sessions
	names := android.Names()
	for s := 0; s < sessions; s++ {
		labDevices := android.EmulatorLab(5)
		v, err := vm.NewUnverified(pkg, labDevices[s%len(labDevices)].Clone(), vm.Options{Seed: seed + int64(s)})
		if err != nil {
			return AnalystResult{}, err
		}
		// Mutate a handful of environment variables per session.
		for k := 0; k < 6; k++ {
			name := names[rng.Intn(len(names))]
			spec := android.Spec(name)
			if spec == nil {
				continue
			}
			if spec.Kind == android.VarStr {
				v.Device().MutateEnv(name, 0, spec.StrVals[rng.Intn(len(spec.StrVals))].Val)
			} else {
				lo, hi := spec.Lo, spec.Hi
				if len(spec.IntWeights) > 0 {
					lo, hi = spec.IntWeights[0].Val, spec.IntWeights[len(spec.IntWeights)-1].Val
				}
				span := hi - lo + 1
				if span < 1 {
					span = 1
				}
				v.Device().MutateEnv(name, lo+rng.Int63n(span), "")
			}
		}
		v.SetClockMillis(rng.Int63n(7 * 86_400_000))
		r := fuzz.Run(v, fuzz.NewDynodroid(), domain, fuzz.Options{
			DurationMs:     30 * 60_000,
			Seed:           seed + int64(s)*31,
			HandlerScreens: handlerScreens,
			ScreenField:    screenField,
		})
		for id := range r.DetectionRuns {
			triggered[id] = true
		}
	}
	return AnalystResult{
		Sessions:       sessions,
		HoursSpent:     int64(hours),
		BombsTriggered: len(triggered),
		TotalBombs:     totalBombs,
	}, nil
}

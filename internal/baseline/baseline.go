// Package baseline implements the two defenses the paper positions
// BombDroid against:
//
//   - SSN (Luo et al., DSN'16 — paper Listing 1): repackaging
//     detection invoked with low probability, the getPublicKey call
//     hidden behind string obfuscation + reflection, and the response
//     delayed. §2.1 shows it falls to code instrumentation (force
//     rand() to 0), reflection-destination checks, and symbolic
//     execution.
//
//   - Naive logic bombs (paper Listing 2): plain "if (X == c) {
//     detect }" with the payload in cleartext. Text search, forced
//     execution, and symbolic execution all defeat it.
//
// The resilience evaluation runs every attack against all three
// protections; these two must fall exactly where the paper says they
// do.
package baseline

import (
	"encoding/hex"
	"fmt"
	"math/rand"

	"bombdroid/internal/cfg"
	"bombdroid/internal/dex"
	"bombdroid/internal/instrument"
	"bombdroid/internal/vm"
)

// ObfKey is the XOR key SSN obfuscates API names with.
const ObfKey = 0x5A

// Obfuscate XOR-masks a name into the hex form APIDeobfuscate expects.
func Obfuscate(name string) string {
	raw := []byte(name)
	for i := range raw {
		raw[i] ^= ObfKey
	}
	return hex.EncodeToString(raw)
}

// SSNOptions tunes the SSN baseline.
type SSNOptions struct {
	Seed int64
	// InvokeProb is the detection probability per site visit
	// (paper Listing 1: rand() < 0.01).
	InvokeProb float64
	// SiteFrac is the fraction of methods receiving a detection site.
	SiteFrac float64
	// DelayMs postpones the response (SSN delays to confuse analysts).
	DelayMs int64
	// Response fired after the delay.
	Response vm.ResponseKind
}

func (o SSNOptions) withDefaults() SSNOptions {
	if o.InvokeProb == 0 {
		o.InvokeProb = 0.01
	}
	if o.SiteFrac == 0 {
		o.SiteFrac = 0.25
	}
	if o.DelayMs == 0 {
		o.DelayMs = 120_000
	}
	return o
}

// SSNSite records one inserted SSN detection site.
type SSNSite struct {
	Method string
	PC     int
}

// SSNResult reports an SSN protection run.
type SSNResult struct {
	File  *dex.File
	Sites []SSNSite
}

// ProtectSSN inserts Listing-1 detection sites: probabilistic gate,
// obfuscated reflected getPublicKey, delayed response.
func ProtectSSN(file *dex.File, ko string, opts SSNOptions) (*SSNResult, error) {
	opts = opts.withDefaults()
	rng := rand.New(rand.NewSource(opts.Seed))
	out := file.Clone()
	res := &SSNResult{File: out}
	threshold := int64(opts.InvokeProb * 10_000)
	obf := Obfuscate(dex.APIGetPublicKey.Name())

	for _, m := range out.Methods() {
		if m.IsSynthetic() || rng.Float64() >= opts.SiteFrac {
			continue
		}
		g := cfg.Build(out, m)
		var locs []int
		for _, b := range g.Blocks {
			if !g.InLoop(b.Start) {
				locs = append(locs, b.Start)
			}
		}
		if len(locs) == 0 {
			continue
		}
		loc := locs[rng.Intn(len(locs))]
		base := int32(m.NumRegs)
		m.NumRegs += 10
		seq := ssnSite(out, base, threshold, obf, ko, opts.DelayMs, opts.Response)
		if err := instrument.InsertAt(m, loc, seq); err != nil {
			return nil, fmt.Errorf("baseline: ssn site in %s: %w", m.FullName(), err)
		}
		res.Sites = append(res.Sites, SSNSite{Method: m.FullName(), PC: loc})
	}
	if err := dex.ValidateLinked(out); err != nil {
		return nil, fmt.Errorf("baseline: ssn output invalid: %w", err)
	}
	return res, nil
}

// ssnSite emits Listing 1 in relative-branch form:
//
//	if (rand() < 0.01) {
//	    funName = recoverFunName(obfuscatedStr);
//	    currKey = reflectionCall(funName);
//	    if (currKey != PUBKEY) { /* delayed response */ }
//	}
func ssnSite(f *dex.File, base int32, threshold int64, obf, ko string, delayMs int64, resp vm.ResponseKind) []dex.Instr {
	s := &relSeq{}
	r0 := base // rand
	s.callAPI(r0, dex.APIRandPercent, 0, 0)
	r1 := base + 1
	s.constInt(r1, threshold)
	s.branchEnd(dex.OpIfGe, r0, r1)
	// Deobfuscate the name: args (hexStr, key) in r2,r3.
	r2, r3 := base+2, base+3
	s.constStr(f, r2, obf)
	s.constInt(r3, ObfKey)
	r4 := base + 4
	s.callAPI(r4, dex.APIDeobfuscate, r2, 2)
	// Reflected call.
	r5 := base + 5
	s.callAPI(r5, dex.APIReflectCall, r4, 1)
	// Compare against the embedded PUBKEY.
	r6 := base + 6
	s.constStr(f, r6, ko)
	r7 := base + 7
	s.callAPI(r7, dex.APIStrEquals, r5, 2)
	s.branchEnd(dex.OpIfNez, r7, -1)
	// Delayed response.
	r8, r9 := base+8, base+9
	s.constInt(r8, delayMs)
	s.constInt(r9, int64(resp))
	s.callAPI(-1, dex.APIDelayBomb, r8, 2)
	return s.finish()
}

// NaiveOptions tunes the naive-bomb baseline.
type NaiveOptions struct {
	Seed              int64
	MaxBombsPerMethod int
	Response          vm.ResponseKind
}

// NaiveBomb records one Listing-2 bomb.
type NaiveBomb struct {
	Method string
	PC     int
	Const  dex.Value
}

// NaiveResult reports a naive protection run.
type NaiveResult struct {
	File  *dex.File
	Bombs []NaiveBomb
}

// ProtectNaive builds Listing-2 bombs: at existing qualified
// conditions it inserts "if (X == c) { if key != Ko: respond }" with
// everything in cleartext — the strawman BombDroid's encryption
// replaces.
func ProtectNaive(file *dex.File, ko string, opts NaiveOptions) (*NaiveResult, error) {
	if opts.MaxBombsPerMethod == 0 {
		opts.MaxBombsPerMethod = 2
	}
	rng := rand.New(rand.NewSource(opts.Seed))
	out := file.Clone()
	res := &NaiveResult{File: out}

	for _, m := range out.Methods() {
		if m.IsSynthetic() {
			continue
		}
		qcs := cfg.FindQCs(out, m)
		rng.Shuffle(len(qcs), func(i, j int) { qcs[i], qcs[j] = qcs[j], qcs[i] })
		quota := opts.MaxBombsPerMethod
		var sites []cfg.QC
		for _, q := range qcs {
			if q.InLoop || quota == 0 {
				continue
			}
			// One site per pc; keep the highest pcs first for stable
			// insertion.
			dup := false
			for _, s := range sites {
				if s.CondPC == q.CondPC {
					dup = true
				}
			}
			if dup {
				continue
			}
			sites = append(sites, q)
			quota--
		}
		if len(sites) == 0 {
			continue
		}
		base := int32(m.NumRegs)
		m.NumRegs += 8
		// Apply in descending pc order.
		for i := 0; i < len(sites); i++ {
			for j := i + 1; j < len(sites); j++ {
				if sites[j].CondPC > sites[i].CondPC {
					sites[i], sites[j] = sites[j], sites[i]
				}
			}
		}
		for _, q := range sites {
			seq := naiveSite(out, base, q.Reg, q.Const, ko, opts.Response)
			if err := instrument.InsertAt(m, q.CondPC, seq); err != nil {
				return nil, fmt.Errorf("baseline: naive site in %s: %w", m.FullName(), err)
			}
			res.Bombs = append(res.Bombs, NaiveBomb{Method: m.FullName(), PC: q.CondPC, Const: q.Const})
		}
	}
	if err := dex.ValidateLinked(out); err != nil {
		return nil, fmt.Errorf("baseline: naive output invalid: %w", err)
	}
	return res, nil
}

// naiveSite emits Listing 2 in relative form: the trigger constant and
// the detection call are both in the clear.
func naiveSite(f *dex.File, base, xReg int32, c dex.Value, ko string, resp vm.ResponseKind) []dex.Instr {
	s := &relSeq{}
	r0 := base
	switch c.Kind {
	case dex.KindStr:
		s.constStr(f, r0, c.Str())
		r1 := base + 1
		s.move(r1, xReg)
		s.move(base+2, r0)
		r3 := base + 3
		s.callAPI(r3, dex.APIStrEquals, r1, 2)
		s.branchEnd(dex.OpIfEqz, r3, -1)
	default:
		s.constInt(r0, c.Int)
		s.branchEnd(dex.OpIfNe, xReg, r0)
	}
	r4 := base + 4
	s.callAPI(r4, dex.APIGetPublicKey, 0, 0)
	r5 := base + 5
	s.constStr(f, r5, ko)
	r6 := base + 6
	s.callAPI(r6, dex.APIStrEquals, r4, 2)
	s.branchEnd(dex.OpIfNez, r6, -1)
	switch resp {
	case vm.RespWarn:
		r7 := base + 7
		s.constStr(f, r7, "repackaged")
		s.callAPI(-1, dex.APIWarnUser, r7, 1)
	default:
		s.callAPI(-1, dex.APICrash, 0, 0)
	}
	return s.finish()
}

// relSeq mirrors core's relative-sequence helper (duplicated rather
// than exported: the two packages evolve independently and the helper
// is ten lines).
type relSeq struct {
	ins    []dex.Instr
	endFix []int
}

func (s *relSeq) emit(in dex.Instr) { s.ins = append(s.ins, in) }

func (s *relSeq) constInt(dst int32, v int64) {
	s.emit(dex.Instr{Op: dex.OpConstInt, A: dst, B: -1, C: -1, Imm: v})
}

func (s *relSeq) constStr(f *dex.File, dst int32, str string) {
	s.emit(dex.Instr{Op: dex.OpConstStr, A: dst, B: -1, C: -1, Imm: f.Intern(str)})
}

func (s *relSeq) move(dst, src int32) {
	s.emit(dex.Instr{Op: dex.OpMove, A: dst, B: src, C: -1})
}

func (s *relSeq) callAPI(dst int32, api dex.API, base, argc int32) {
	s.emit(dex.Instr{Op: dex.OpCallAPI, A: dst, B: base, C: argc, Imm: int64(api)})
}

func (s *relSeq) branchEnd(op dex.Op, a, b int32) {
	s.endFix = append(s.endFix, len(s.ins))
	s.emit(dex.Instr{Op: op, A: a, B: b, C: -1})
}

func (s *relSeq) finish() []dex.Instr {
	for _, pc := range s.endFix {
		s.ins[pc].C = int32(len(s.ins))
	}
	return s.ins
}

// Package vm is the ART-stand-in runtime: a register-machine
// interpreter over dex bytecode with the Android framework surface the
// paper's apps, bombs, and attacks need — certificate and manifest
// access, environment and sensor reads, dynamic loading of decrypted
// payload dex blobs, API hooking (for instrumentation attacks), a
// Traceview-style method profiler, and a virtual clock that prices
// instructions and framework calls so the overhead evaluation has a
// realistic cost model.
package vm

import (
	"fmt"
	"math/rand"
	"sort"

	"bombdroid/internal/android"
	"bombdroid/internal/apk"
	"bombdroid/internal/dex"
	"bombdroid/internal/obs"
)

// TicksPerMilli converts virtual-clock ticks to milliseconds. One
// instruction costs one tick (~0.5 µs, interpreter-grade dispatch).
const TicksPerMilli = 2000

// Defaults for execution limits.
const (
	DefaultMaxSteps = 4_000_000
	DefaultMaxDepth = 128
)

// ResponseKind classifies a detection response (paper §4.2).
type ResponseKind uint8

// Response kinds.
const (
	RespCrash ResponseKind = iota
	RespFreeze
	RespLeak
	RespWarn
	RespReport
)

// String returns the kind name.
func (k ResponseKind) String() string {
	switch k {
	case RespCrash:
		return "crash"
	case RespFreeze:
		return "freeze"
	case RespLeak:
		return "leak"
	case RespWarn:
		return "warn"
	case RespReport:
		return "report"
	}
	return "?"
}

// ResponseEvent records one fired response.
type ResponseEvent struct {
	TimeMillis int64
	BombID     string // payload class that fired ("" outside payloads)
	Kind       ResponseKind
	Info       string
}

// APICall describes one framework call, as seen by hooks and
// observers.
type APICall struct {
	API  dex.API
	Args []dex.Value
	// InPayload names the executing payload class, or "" in app code.
	InPayload string
	Method    string // full name of the calling method
}

// Hook intercepts a framework call. Returning handled=true substitutes
// result (and err) for the real implementation — the vehicle for the
// paper's code-instrumentation attacks (forcing rand() to 0, faking
// getPublicKey, vtable hijacking).
type Hook func(call APICall) (result dex.Value, handled bool, err error)

// Observer watches every framework call without altering it (the
// debugger / call-tracing attacks).
type Observer func(call APICall)

// unit is one loaded dex file (the app, or a decrypted payload).
type unit struct {
	file    *dex.File
	methods map[string]*dex.Method
	// resolved is the precomputed invoke-target table: the unit's own
	// methods shadowing the app's (payload-local helpers win). Built
	// once at load time so the interpreter's OpInvoke path is a single
	// map hit instead of two lookups per call.
	resolved map[string]resolvedMethod
	// q is the quickened program (quicken.go), built after resolved.
	q *qprog
}

// resolvedMethod is one precomputed invoke target.
type resolvedMethod struct {
	m *dex.Method
	u *unit
}

func newUnit(f *dex.File) *unit {
	u := &unit{file: f, methods: make(map[string]*dex.Method)}
	for _, m := range f.Methods() {
		u.methods[m.FullName()] = m
	}
	return u
}

// buildResolved fills the unit's invoke-target table. app is the host
// application unit (the fallback namespace); for the app unit itself
// pass the unit as its own host.
func (u *unit) buildResolved(app *unit) {
	u.resolved = make(map[string]resolvedMethod, len(u.methods)+len(app.methods))
	for name, m := range app.methods {
		u.resolved[name] = resolvedMethod{m: m, u: app}
	}
	for name, m := range u.methods {
		u.resolved[name] = resolvedMethod{m: m, u: u}
	}
}

type delayedResponse struct {
	dueTicks int64
	kind     ResponseKind
	bombID   string
	info     string
}

// Options configures a VM.
type Options struct {
	MaxSteps int64 // per top-level Invoke; DefaultMaxSteps if 0
	MaxDepth int   // call depth; DefaultMaxDepth if 0
	Seed     int64 // runtime RNG seed (rand(), UI jitter)
	Profile  bool  // count method invocations (Traceview)
	// TraceDepth enables a ring buffer of the last N executed
	// instructions — the debugger's view when tracing back from a
	// suspicious symptom (paper §2.1, "Debugging"). A traced VM runs
	// every frame on the reference interpreter, which records each
	// instruction; only the debugger attack and tests trace.
	TraceDepth int
	// FailClosed enables graceful degradation of the bomb lifecycle:
	// a fault while decrypting or executing a payload (corrupted
	// ciphertext, undecodable blob, runtime fault inside the bomb) is
	// recorded in the fault ledger and the app continues with its
	// normal semantics instead of aborting. Deliberate detection
	// responses (crash bombs) are NOT suppressed — they are behaviour,
	// not faults. Chaos campaigns run with this set; the default
	// preserves the paper's semantics where a mutilated bomb corrupts
	// the app.
	FailClosed bool
	// BlobFault, when set, intercepts every sealed-payload read —
	// the storage-fault seam chaos injection uses to corrupt or
	// truncate ciphertexts after install (Android verifies signatures
	// at install time only; later flash corruption is the app's
	// problem).
	BlobFault func(blob int64, sealed []byte) []byte
	// Reference selects the retained reference interpreter (exec.go)
	// instead of the quickened one (qexec.go). The two are
	// observationally byte-identical — results, traces, fault ledgers,
	// obs opcode counts — a contract the differential harness enforces;
	// the reference path exists as that harness's oracle and costs one
	// branch per top-level Invoke otherwise.
	Reference bool
	// Obs, when set, collects VM execution metrics into the registry:
	// per-opcode execution counts (vm_op_total{op=...}), a per-Invoke
	// dispatch-step histogram (vm_invoke_steps, virtual ticks), and
	// response/fault counters. Opcode counts accumulate in a plain
	// per-VM array on the hot path and publish only on FlushObs, so
	// the instrumented interpreter loop stays allocation- and
	// atomic-free; with Obs nil the loop pays a single predictable
	// branch. All quantities are virtual-time, so campaign metrics are
	// deterministic at any worker count.
	Obs *obs.Registry
}

// FaultEvent is one fail-closed degradation the VM absorbed.
type FaultEvent struct {
	TimeMillis int64
	Blob       int64  // blob index for decrypt faults, -1 otherwise
	Bomb       string // payload class for execution faults ("" if unknown)
	Kind       string // "decrypt" or "payload-exec"
	Err        string
}

// TraceEntry is one executed instruction in the debugger's ring
// buffer.
type TraceEntry struct {
	Method    string
	PC        int
	Op        dex.Op
	InPayload string
}

// VM executes one installed app on one device.
type VM struct {
	app  *unit
	pkg  *apk.Package
	dev  *android.Device
	opts Options

	// Statics live in a slot array: staticIdx (shared with the image,
	// read-only) maps names assigned at load time; staticExtra (lazy,
	// per-VM) covers names first seen at runtime — SetStatic from
	// attack drivers, payload fields loaded by decryptLoad. staticSet
	// tracks which slots were ever written (or declared), standing in
	// for the old map's key-existence semantics.
	staticIdx   map[string]int32
	staticExtra map[string]int32
	staticVals  []dex.Value
	staticSet   []bool

	clock int64 // ticks
	rng   *rand.Rand

	hooks     map[dex.API]Hook
	observers []Observer

	// Method invocation counts: app-image methods in profDense, by
	// qmethod.idx (quickened path only); payload methods and every
	// reference-path call in profile, by name.
	profile   map[string]int64
	profDense []int64

	payloads     map[int64]*payloadUnit // handle -> unit
	decryptCache map[int64]int64        // blob index -> handle
	nextHandle   int64
	outerFired   map[int64]bool // blob index -> authenticated decrypt seen

	bombChecks map[string]int64 // payload class -> detection checks run
	faults     []FaultEvent     // fail-closed degradations absorbed
	responses  []ResponseEvent
	reports    []string
	warnings   []string
	logs       []string
	leakKB     int64
	delayed    []delayedResponse

	// The first detection check any payload made: virtual ms after its
	// cost was charged, and the payload class ("" = none yet).
	firstCheckMs    int64
	firstCheckClass string

	steps int64 // consumed within current top-level Invoke

	// runLimit is the step count past which the quickened loop's run
	// head leaves its one-compare fast path: MaxSteps when obs is off,
	// and -1 (every run) when obs must tally each run's opcodes.
	runLimit int64

	// freeRegs is a free-list of frame register slices reused across
	// call() frames. A VM is single-goroutine by contract (campaigns
	// parallelize by building one VM per session), so no locking.
	freeRegs [][]dex.Value

	// arena hands out qcall frames (qexec.go); same single-goroutine
	// contract as freeRegs.
	arena frameArena

	trace     []TraceEntry // ring buffer when TraceDepth > 0
	traceNext int
	traceFull bool

	// Metrics plumbing (nil unless Options.Obs was set). obsOps is the
	// hot-path accumulator — a plain array indexed by opcode, flushed
	// to the pre-resolved registry counters in obsOpCtrs by FlushObs.
	obsOps         []int64
	obsOpCtrs      []*obs.Counter
	obsInvokes     *obs.Counter
	obsInvokesBuf  int64 // buffered vm_invokes_total, published by FlushObs
	obsInvokeSteps *obs.HistogramAccum
	obsResponses   []*obs.Counter // indexed by ResponseKind
	obsFaults      *obs.Counter
}

type payloadUnit struct {
	u          *unit
	entryClass string
}

// New installs a verified package on a device. Installation fails if
// the package does not verify (the system rejects it) or its dex does
// not decode and link.
func New(p *apk.Package, dev *android.Device, opts Options) (*VM, error) {
	if err := p.Verify(); err != nil {
		return nil, fmt.Errorf("vm: install rejected: %w", err)
	}
	return NewUnverified(p, dev, opts)
}

// NewUnverified installs without signature verification — what a
// developer-mode attacker does with a locally modified build that was
// never re-signed. User-side installs go through New.
//
// Loading goes through the process-global image cache: decoding,
// validation, linking, and quickening run once per distinct dex blob;
// every further install of the same bytes (a campaign installing one
// app on hundreds of devices) shares the immutable image and copies
// only the mutable static slots.
func NewUnverified(p *apk.Package, dev *android.Device, opts Options) (*VM, error) {
	img, err := loadImage(p.Dex)
	if err != nil {
		return nil, err
	}
	return newVM(img, p, dev, opts), nil
}

// newVM assembles a VM over a prebuilt image. The fuzz harness calls
// it directly with unvalidated images; user code goes through New /
// NewUnverified.
func newVM(img *image, p *apk.Package, dev *android.Device, opts Options) *VM {
	if opts.MaxSteps == 0 {
		opts.MaxSteps = DefaultMaxSteps
	}
	if opts.MaxDepth == 0 {
		opts.MaxDepth = DefaultMaxDepth
	}
	v := &VM{
		app:          img.unit,
		pkg:          p,
		dev:          dev,
		opts:         opts,
		staticIdx:    img.staticIdx,
		staticVals:   append([]dex.Value(nil), img.staticInit...),
		staticSet:    append([]bool(nil), img.staticSet...),
		rng:          rand.New(rand.NewSource(opts.Seed)),
		hooks:        make(map[dex.API]Hook),
		profile:      make(map[string]int64),
		payloads:     make(map[int64]*payloadUnit),
		decryptCache: make(map[int64]int64),
		outerFired:   make(map[int64]bool),
		bombChecks:   make(map[string]int64),
	}
	if opts.Profile {
		v.profDense = make([]int64, len(img.unit.q.byName))
	}
	if opts.TraceDepth > 0 {
		v.trace = make([]TraceEntry, opts.TraceDepth)
	}
	v.runLimit = opts.MaxSteps
	if opts.Obs != nil {
		v.runLimit = -1
		v.obsOps = make([]int64, dex.NumOps)
		v.obsOpCtrs = make([]*obs.Counter, dex.NumOps)
		for op := 0; op < dex.NumOps; op++ {
			v.obsOpCtrs[op] = opts.Obs.Counter(obs.L("vm_op_total", "op", dex.Op(op).String()))
		}
		v.obsInvokes = opts.Obs.Counter("vm_invokes_total")
		v.obsInvokeSteps = opts.Obs.Histogram("vm_invoke_steps", obs.TickBuckets).Accum()
		v.obsResponses = make([]*obs.Counter, RespReport+1)
		for k := RespCrash; k <= RespReport; k++ {
			v.obsResponses[k] = opts.Obs.Counter(obs.L("vm_responses_total", "kind", k.String()))
		}
		v.obsFaults = opts.Obs.Counter("vm_faults_total")
	}
	return v
}

// FlushObs publishes the VM's locally accumulated metrics — opcode
// counts, the invoke counter, the dispatch-steps histogram — to the
// Options.Obs registry and clears the accumulators. Drivers call it
// at session end; it is a no-op without Obs. Everything published
// commutes (counter/bucket adds), so flush order across parallel
// sessions cannot change final totals.
func (v *VM) FlushObs() {
	if v.obsOps == nil {
		return
	}
	for op, n := range v.obsOps {
		if n != 0 {
			v.obsOpCtrs[op].Add(n)
			v.obsOps[op] = 0
		}
	}
	if v.obsInvokesBuf != 0 {
		v.obsInvokes.Add(v.obsInvokesBuf)
		v.obsInvokesBuf = 0
	}
	v.obsInvokeSteps.Flush()
}

// maxFreeFrames bounds the register free-list; deeper recursion just
// allocates as before.
const maxFreeFrames = DefaultMaxDepth

// getRegs returns a zeroed register file of length n, reusing a
// retired frame when one fits.
func (v *VM) getRegs(n int) []dex.Value {
	if k := len(v.freeRegs); k > 0 {
		s := v.freeRegs[k-1]
		v.freeRegs = v.freeRegs[:k-1]
		if cap(s) >= n {
			s = s[:n]
			for i := range s {
				s[i] = dex.Value{}
			}
			return s
		}
	}
	return make([]dex.Value, n)
}

// putRegs retires a frame's register file for reuse.
func (v *VM) putRegs(s []dex.Value) {
	if len(v.freeRegs) < maxFreeFrames {
		v.freeRegs = append(v.freeRegs, s)
	}
}

// Trace returns the ring buffer contents, oldest first. Empty unless
// Options.TraceDepth was set.
func (v *VM) Trace() []TraceEntry {
	if v.trace == nil {
		return nil
	}
	if !v.traceFull {
		return append([]TraceEntry(nil), v.trace[:v.traceNext]...)
	}
	out := make([]TraceEntry, 0, len(v.trace))
	out = append(out, v.trace[v.traceNext:]...)
	out = append(out, v.trace[:v.traceNext]...)
	return out
}

// recordTrace appends to the ring buffer.
func (v *VM) recordTrace(method string, pc int, op dex.Op, inPayload string) {
	v.trace[v.traceNext] = TraceEntry{Method: method, PC: pc, Op: op, InPayload: inPayload}
	v.traceNext++
	if v.traceNext == len(v.trace) {
		v.traceNext = 0
		v.traceFull = true
	}
}

// Device returns the device the app runs on.
func (v *VM) Device() *android.Device { return v.dev }

// Package returns the installed package.
func (v *VM) Package() *apk.Package { return v.pkg }

// File returns the app's loaded dex file (the attacker reads it; user
// code does not).
func (v *VM) File() *dex.File { return v.app.file }

// NowMillis returns the virtual wall clock.
func (v *VM) NowMillis() int64 { return v.clock / TicksPerMilli }

// NowTicks returns the raw virtual clock.
func (v *VM) NowTicks() int64 { return v.clock }

// SetClockMillis positions the virtual clock (sessions start at
// arbitrary times of day).
func (v *VM) SetClockMillis(ms int64) { v.clock = ms * TicksPerMilli }

// Hook installs an API hook, replacing any previous hook for that API.
func (v *VM) Hook(api dex.API, h Hook) { v.hooks[api] = h }

// Unhook removes an API hook.
func (v *VM) Unhook(api dex.API) { delete(v.hooks, api) }

// Observe registers a call observer.
func (v *VM) Observe(o Observer) { v.observers = append(v.observers, o) }

// Handlers lists the app's event handler methods in deterministic
// order — the surface fuzzers and users drive.
func (v *VM) Handlers() []string {
	var out []string
	for name, m := range v.app.methods {
		if m.IsHandler() {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

// InitMethods lists FlagInit entry points in deterministic order.
func (v *VM) InitMethods() []string {
	var out []string
	for name, m := range v.app.methods {
		if m.Flags&dex.FlagInit != 0 {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

// staticSlot looks up the slot for a static name: load-assigned slots
// first (shared, read-only), then this VM's runtime extensions.
func (v *VM) staticSlot(name string) (int32, bool) {
	if idx, ok := v.staticIdx[name]; ok {
		return idx, true
	}
	idx, ok := v.staticExtra[name]
	return idx, ok
}

// ensureStatic returns the slot for name, extending this VM's static
// table if the name was never seen at load time.
func (v *VM) ensureStatic(name string) int32 {
	if idx, ok := v.staticSlot(name); ok {
		return idx
	}
	idx := int32(len(v.staticVals))
	if v.staticExtra == nil {
		v.staticExtra = make(map[string]int32)
	}
	v.staticExtra[name] = idx
	v.staticVals = append(v.staticVals, dex.Value{})
	v.staticSet = append(v.staticSet, false)
	return idx
}

// Static reads a static field value ("Class.Field").
func (v *VM) Static(ref string) dex.Value {
	if idx, ok := v.staticSlot(ref); ok {
		return v.staticVals[idx]
	}
	return dex.Nil()
}

// StaticSlot resolves a static field name to the slot StaticAt reads
// it from. A slot never moves for the VM's life. A name unknown at
// load time has no slot until something writes it (SetStatic, a
// decrypted payload's fields), and each such new slot grows
// NumStatics, so a caller holding unresolved names need only retry
// when that count changes.
func (v *VM) StaticSlot(ref string) (int, bool) {
	idx, ok := v.staticSlot(ref)
	return int(idx), ok
}

// StaticAt reads a static field by the slot StaticSlot returned.
func (v *VM) StaticAt(slot int) dex.Value { return v.staticVals[slot] }

// NumStatics returns the number of static slots.
func (v *VM) NumStatics() int { return len(v.staticVals) }

// SetStatic writes a static field (used by forced-execution attacks
// that prepare program state).
func (v *VM) SetStatic(ref string, val dex.Value) {
	idx := v.ensureStatic(ref)
	v.staticVals[idx] = val
	v.staticSet[idx] = true
}

// Profile returns a copy of the method invocation counts.
func (v *VM) Profile() map[string]int64 {
	out := make(map[string]int64, len(v.profile))
	for k, c := range v.profile {
		out[k] = c
	}
	if v.profDense != nil {
		for name, qm := range v.app.q.byName {
			if c := v.profDense[qm.idx]; c != 0 {
				out[name] += c // a payload method may shadow the name
			}
		}
	}
	return out
}

// ResetProfile clears invocation counts.
func (v *VM) ResetProfile() {
	v.profile = make(map[string]int64)
	clear(v.profDense)
}

// OuterTriggered returns the blob indices whose sealed payloads were
// successfully authenticated — exactly the bombs whose outer trigger
// condition was satisfied with the true constant (Table 4's metric).
func (v *VM) OuterTriggered() []int64 {
	out := make([]int64, 0, len(v.outerFired))
	for idx := range v.outerFired {
		out = append(out, idx)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// DetectionRuns returns, per payload class, how many times its
// repackaging check executed (both triggers satisfied — Figure 5's
// metric). On a non-repackaged app these checks run and stay silent.
func (v *VM) DetectionRuns() map[string]int64 {
	out := make(map[string]int64, len(v.bombChecks))
	for k, c := range v.bombChecks {
		out[k] = c
	}
	return out
}

// FirstBombCheck reports the first detection check (getPublicKey,
// getManifestDigest or codeDigest) payload code ran on this VM: the
// virtual clock in ms just after the call's cost was charged, and the
// payload class. ok is false until one runs. It is recorded before
// hooks and observers, so a session driver reads the moment a bomb
// triggered without installing an observer — which would send every
// cost-only call down the full callAPI path.
func (v *VM) FirstBombCheck() (ms int64, class string, ok bool) {
	return v.firstCheckMs, v.firstCheckClass, v.firstCheckClass != ""
}

// Faults returns the fail-closed degradations absorbed so far (empty
// unless Options.FailClosed is set).
func (v *VM) Faults() []FaultEvent {
	return append([]FaultEvent(nil), v.faults...)
}

// recordFault appends to the fault ledger.
func (v *VM) recordFault(blob int64, bomb, kind string, err error) {
	if v.obsFaults != nil {
		v.obsFaults.Inc()
	}
	v.faults = append(v.faults, FaultEvent{
		TimeMillis: v.NowMillis(), Blob: blob, Bomb: bomb, Kind: kind, Err: err.Error(),
	})
}

// Responses returns fired responses in order.
func (v *VM) Responses() []ResponseEvent {
	return append([]ResponseEvent(nil), v.responses...)
}

// PiracyReports returns the reports sent to the developer.
func (v *VM) PiracyReports() []string {
	return append([]string(nil), v.reports...)
}

// Warnings returns user-facing warnings shown so far.
func (v *VM) Warnings() []string {
	return append([]string(nil), v.warnings...)
}

// Logs returns the app log.
func (v *VM) Logs() []string { return append([]string(nil), v.logs...) }

// LeakKB returns accumulated leaked memory.
func (v *VM) LeakKB() int64 { return v.leakKB }

// AdvanceIdle advances the clock by idle milliseconds (between UI
// events) and fires any due delayed responses. A due crash response
// returns a CrashError.
func (v *VM) AdvanceIdle(ms int64) error {
	v.clock += ms * TicksPerMilli
	var remaining []delayedResponse
	var crash error
	for _, d := range v.delayed {
		if d.dueTicks > v.clock {
			remaining = append(remaining, d)
			continue
		}
		if err := v.fireResponse(d.kind, d.bombID, d.info); err != nil && crash == nil {
			crash = err
		}
	}
	v.delayed = remaining
	return crash
}

// PendingDelayed reports how many delayed responses are armed.
func (v *VM) PendingDelayed() int { return len(v.delayed) }

// fireResponse records a response and applies its effect.
func (v *VM) fireResponse(kind ResponseKind, bombID, info string) error {
	if v.obsResponses != nil && int(kind) < len(v.obsResponses) {
		v.obsResponses[kind].Inc()
	}
	v.responses = append(v.responses, ResponseEvent{
		TimeMillis: v.NowMillis(), BombID: bombID, Kind: kind, Info: info,
	})
	switch kind {
	case RespCrash:
		return &CrashError{BombID: bombID, Reason: "detection response"}
	case RespFreeze:
		v.clock += 30_000 * TicksPerMilli // half-minute UI freeze
	case RespLeak:
		v.leakKB += 4096
	case RespWarn:
		v.warnings = append(v.warnings, info)
	case RespReport:
		v.reports = append(v.reports, info)
	}
	return nil
}

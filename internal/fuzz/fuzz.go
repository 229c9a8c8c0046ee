// Package fuzz implements the four blackbox input generators the
// paper evaluates attackers with (Table 4): Monkey (uniform random,
// domain-oblivious), PUMA (UI-model aware: valid events only),
// AndroidHooker (valid events plus recorded-sequence replay), and
// Dynodroid (observation-guided: biases toward handlers that keep
// producing new program states). It also provides the shared driver
// that paces events on the virtual clock and the profiling run
// BombDroid's candidate selection uses (10,000 Dynodroid events +
// Traceview, paper §7.1).
//
// Concurrency: a Fuzzer is single-goroutine state, like the VM it
// drives. Monkey and PUMA are stateless, but AndroidHooker (replay
// history) and Dynodroid (novelty scores) mutate themselves on every
// Next/Observe, so parallel campaigns must give each goroutine its
// own instance — exp's Table 4 grid constructs a fresh fuzzer per
// cell rather than sharing one across runs.
package fuzz

import (
	"context"
	"math/rand"
	"sort"

	"bombdroid/internal/dex"
	"bombdroid/internal/obs"
	"bombdroid/internal/vm"
)

// Event is one UI event: a handler invocation with two int params.
type Event struct {
	Handler string
	A, B    int64
}

// Context gives fuzzers the app's event surface. Handlers is the
// full widget set; Active is the subset enabled on the current UI
// screen. UI-model-aware fuzzers (PUMA, AndroidHooker, Dynodroid)
// draw from Active; Monkey taps blindly from Handlers.
type Context struct {
	Handlers []string
	Active   []string
	Domain   int64 // valid params are [0, Domain)
	Rng      *rand.Rand
}

// active returns the UI-enabled handlers (all handlers if no UI model
// was supplied).
func (c *Context) active() []string {
	if len(c.Active) > 0 {
		return c.Active
	}
	return c.Handlers
}

// Fuzzer generates an event stream. Implementations may carry
// per-campaign mutable state and are not safe for concurrent use;
// use one instance per goroutine.
type Fuzzer interface {
	Name() string
	Next(ctx *Context) Event
	// Observe receives post-event feedback: novelty is the number of
	// watched program variables that took never-seen values.
	Observe(ev Event, novelty int, abnormal bool)
}

// Monkey sends uniformly random events, including out-of-domain
// parameters and no notion of app state — the weakest generator.
type Monkey struct{}

// Name implements Fuzzer.
func (Monkey) Name() string { return "Monkey" }

// Next implements Fuzzer.
func (Monkey) Next(ctx *Context) Event {
	// Monkey taps random screen coordinates: over half its events land
	// on no widget at all (Handler == "" — the driver burns the time
	// without dispatching), and parameter values ignore the app's
	// meaningful domain.
	if ctx.Rng.Intn(100) < 55 {
		return Event{}
	}
	span := ctx.Domain * 4
	return Event{
		Handler: ctx.Handlers[ctx.Rng.Intn(len(ctx.Handlers))],
		A:       ctx.Rng.Int63n(span),
		B:       ctx.Rng.Int63n(span),
	}
}

// Observe implements Fuzzer.
func (Monkey) Observe(Event, int, bool) {}

// PUMA drives the UI model: valid handlers with in-domain parameters,
// uniformly.
type PUMA struct{}

// Name implements Fuzzer.
func (PUMA) Name() string { return "PUMA" }

// Next implements Fuzzer.
func (PUMA) Next(ctx *Context) Event {
	act := ctx.active()
	return Event{
		Handler: act[ctx.Rng.Intn(len(act))],
		A:       ctx.Rng.Int63n(ctx.Domain),
		B:       ctx.Rng.Int63n(ctx.Domain),
	}
}

// Observe implements Fuzzer.
func (PUMA) Observe(Event, int, bool) {}

// AndroidHooker sends valid events and replays short recorded
// sequences, re-exercising state-dependent paths.
type AndroidHooker struct {
	history []Event
	replay  []Event
}

// Name implements Fuzzer.
func (h *AndroidHooker) Name() string { return "AndroidHooker" }

// Next implements Fuzzer.
func (h *AndroidHooker) Next(ctx *Context) Event {
	if len(h.replay) > 0 {
		ev := h.replay[0]
		h.replay = h.replay[1:]
		return ev
	}
	if len(h.history) > 8 && ctx.Rng.Intn(5) == 0 {
		// Replay a recorded burst.
		start := ctx.Rng.Intn(len(h.history) - 4)
		h.replay = append(h.replay, h.history[start:start+4]...)
		return h.Next(ctx)
	}
	act := ctx.active()
	ev := Event{
		Handler: act[ctx.Rng.Intn(len(act))],
		A:       ctx.Rng.Int63n(ctx.Domain),
		B:       ctx.Rng.Int63n(ctx.Domain),
	}
	if len(h.history) < 4096 {
		h.history = append(h.history, ev)
	}
	return ev
}

// Observe implements Fuzzer.
func (h *AndroidHooker) Observe(Event, int, bool) {}

// Dynodroid is observation-guided: handlers that recently produced
// novel program states are favoured, and parameters sweep the domain
// systematically instead of sampling it, so equality guards on event
// parameters are eventually covered.
type Dynodroid struct {
	scores  map[string]float64
	sweep   int64
	weights []float64 // Next's per-handler scores, reused
}

// NewDynodroid returns a fresh guided fuzzer.
func NewDynodroid() *Dynodroid {
	return &Dynodroid{scores: make(map[string]float64)}
}

// Name implements Fuzzer.
func (d *Dynodroid) Name() string { return "Dynodroid" }

// Next implements Fuzzer.
func (d *Dynodroid) Next(ctx *Context) Event {
	act := ctx.active()
	d.weights = d.weights[:0]
	total := 0.0
	for _, h := range act {
		s := d.score(h)
		d.weights = append(d.weights, s)
		total += s
	}
	x := ctx.Rng.Float64() * total
	handler := act[len(act)-1]
	for i, s := range d.weights {
		x -= s
		if x <= 0 {
			handler = act[i]
			break
		}
	}
	d.sweep++
	a := d.sweep % ctx.Domain
	b := (d.sweep / ctx.Domain) % ctx.Domain
	if ctx.Rng.Intn(3) == 0 {
		a = ctx.Rng.Int63n(ctx.Domain)
		b = ctx.Rng.Int63n(ctx.Domain)
	}
	return Event{Handler: handler, A: a, B: b}
}

func (d *Dynodroid) score(h string) float64 {
	s, ok := d.scores[h]
	if !ok {
		return 4.0 // unexplored handlers are attractive
	}
	return 0.25 + s
}

// Observe implements Fuzzer.
func (d *Dynodroid) Observe(ev Event, novelty int, abnormal bool) {
	s := d.scores[ev.Handler]
	d.scores[ev.Handler] = s*0.95 + float64(novelty)*0.5
}

// Result aggregates one fuzzing run.
type Result struct {
	Fuzzer        string
	Events        int
	VirtualMillis int64
	// OuterSatisfied lists blob indices whose outer trigger fired.
	OuterSatisfied []int64
	// DetectionRuns maps payload class -> detection executions (both
	// triggers satisfied).
	DetectionRuns map[string]int64
	Responses     []vm.ResponseEvent
	AbnormalExits int
}

// Options paces a run.
type Options struct {
	DurationMs  int64 // virtual run length
	EventGapMs  int64 // idle between events (default 250 ms)
	MaxEvents   int   // optional hard cap
	Seed        int64
	WatchFields []string // program variables used for novelty feedback

	// UI model (appgen exposes both): handlers gated per screen and
	// the static field holding the current screen. When set, the
	// driver recomputes the active handler set before every event.
	HandlerScreens map[string]int64
	ScreenField    string

	// Obs, when set, receives per-run counters (events, abnormal
	// exits, labeled by fuzzer), a virtual-time "fuzz" span, and the
	// VM's buffered opcode counts at the end of the run. All writes
	// are commutative, so a registry shared across a parallel fuzzer
	// grid aggregates deterministically.
	Obs *obs.Registry
}

// Run drives the app under the fuzzer for the configured virtual
// duration. Crashes and faults are recorded and the session continues
// (the attacker relaunches the app), preserving accumulated trigger
// state in the VM.
func Run(v *vm.VM, fz Fuzzer, domain int64, opts Options) Result {
	if opts.EventGapMs == 0 {
		opts.EventGapMs = 250
	}
	ctx := &Context{
		Handlers: v.Handlers(),
		Domain:   domain,
		Rng:      rand.New(rand.NewSource(opts.Seed)),
	}
	res := Result{Fuzzer: fz.Name()}
	if len(ctx.Handlers) == 0 {
		return res
	}
	for _, init := range v.InitMethods() {
		if _, err := v.Invoke(init); err != nil && vm.AbnormalExit(err) {
			res.AbnormalExits++
		}
	}
	seen := newWatchSet(opts.WatchFields)
	start := v.NowMillis()
	for {
		if opts.MaxEvents > 0 && res.Events >= opts.MaxEvents {
			break
		}
		if v.NowMillis()-start >= opts.DurationMs {
			break
		}
		if len(opts.HandlerScreens) > 0 && opts.ScreenField != "" {
			cur := v.Static(opts.ScreenField).Int
			ctx.Active = ctx.Active[:0]
			for _, h := range ctx.Handlers {
				if scr, ok := opts.HandlerScreens[h]; ok && scr != -1 && scr != cur {
					continue
				}
				ctx.Active = append(ctx.Active, h)
			}
		}
		ev := fz.Next(ctx)
		if ev.Handler == "" {
			// The event hit no widget (Monkey-style miss).
			res.Events++
			if err := v.AdvanceIdle(opts.EventGapMs); err != nil {
				res.AbnormalExits++
			}
			continue
		}
		_, err := v.Invoke(ev.Handler, dex.Int64(ev.A), dex.Int64(ev.B))
		abnormal := vm.AbnormalExit(err)
		if abnormal {
			res.AbnormalExits++
		}
		fz.Observe(ev, seen.observe(v), abnormal)
		res.Events++
		if err := v.AdvanceIdle(opts.EventGapMs); err != nil {
			res.AbnormalExits++
		}
	}
	res.VirtualMillis = v.NowMillis() - start
	res.OuterSatisfied = v.OuterTriggered()
	res.DetectionRuns = v.DetectionRuns()
	res.Responses = v.Responses()
	if reg := opts.Obs; reg != nil {
		reg.Counter(obs.L("fuzz_events_total", "fuzzer", res.Fuzzer)).Add(int64(res.Events))
		reg.Counter(obs.L("fuzz_abnormal_exits_total", "fuzzer", res.Fuzzer)).Add(int64(res.AbnormalExits))
		reg.StartSpan("fuzz", start).End(v.NowMillis())
		v.FlushObs()
	}
	return res
}

// Profile runs the paper's §7.1 profiling pass: a Dynodroid stream of
// the given length with method counting on, returning the Traceview
// profile and the observed value sets of the watched fields — the
// inputs BombDroid's candidate selection and artificial-QC
// construction need. ctx is polled between events; a cancelled run
// returns ctx.Err() and no profile.
func Profile(ctx context.Context, v *vm.VM, domain int64, events int, watch []string, seed int64) (map[string]int64, map[string][]dex.Value, error) {
	vals := newWatchSet(watch)
	fc := &Context{Handlers: v.Handlers(), Domain: domain, Rng: rand.New(rand.NewSource(seed))}
	fz := NewDynodroid()
	for _, init := range v.InitMethods() {
		v.Invoke(init) // profiling tolerates failures
	}
	for i := 0; i < events && len(fc.Handlers) > 0; i++ {
		if err := ctx.Err(); err != nil {
			return nil, nil, err
		}
		ev := fz.Next(fc)
		v.Invoke(ev.Handler, dex.Int64(ev.A), dex.Int64(ev.B))
		fz.Observe(ev, vals.observe(v), false)
		v.AdvanceIdle(40)
	}
	return v.Profile(), vals.values(), nil
}

// watchSet records the distinct values each watched field has taken:
// the novelty signal Dynodroid steers by and the value sets Profile
// returns. Each distinct value keeps the first instance seen. A field
// listed twice is watched once, so a new value counts once.
//
// observe runs after every event, so each field is resolved to its VM
// static slot once, and a field's set is probed only when its value
// key differs from the last one observed: sets only grow, so the last
// value can never be novel again. A field with no slot reads as nil,
// as VM.Static reads it, until the VM's static table grows.
type watchSet struct {
	fields  []watchField
	statics int // VM.NumStatics when unresolved fields were last looked up
}

type watchField struct {
	name   string
	slot   int // -1 while the VM has no slot for name
	last   valueKey
	primed bool // last holds an observed key
	seen   map[valueKey]dex.Value
}

func newWatchSet(names []string) *watchSet {
	w := &watchSet{statics: -1}
	dup := make(map[string]bool, len(names))
	for _, n := range names {
		if !dup[n] {
			dup[n] = true
			w.fields = append(w.fields, watchField{name: n, slot: -1, seen: map[valueKey]dex.Value{}})
		}
	}
	return w
}

// observe reads the watched fields and returns how many hold a value
// never seen before.
func (w *watchSet) observe(v *vm.VM) int {
	if n := v.NumStatics(); n != w.statics {
		for i := range w.fields {
			if f := &w.fields[i]; f.slot < 0 {
				if s, ok := v.StaticSlot(f.name); ok {
					f.slot = s
				}
			}
		}
		w.statics = n
	}
	novelty := 0
	for i := range w.fields {
		f := &w.fields[i]
		val := dex.Nil()
		if f.slot >= 0 {
			val = v.StaticAt(f.slot)
		}
		key := keyOf(val)
		if f.primed && key == f.last {
			continue
		}
		f.last, f.primed = key, true
		if _, ok := f.seen[key]; !ok {
			f.seen[key] = val
			novelty++
		}
	}
	return novelty
}

// values flattens each field's set, ordered by the values' String
// forms: map iteration order would otherwise leak into the slice, and
// the protector's artificial-QC constant selection reads these slices —
// protected output must not vary from process to process.
func (w *watchSet) values() map[string][]dex.Value {
	out := make(map[string][]dex.Value, len(w.fields))
	for _, f := range w.fields {
		type entry struct {
			s string
			v dex.Value
		}
		es := make([]entry, 0, len(f.seen))
		for _, val := range f.seen {
			es = append(es, entry{val.String(), val})
		}
		sort.Slice(es, func(i, j int) bool { return es[i].s < es[j].s })
		vs := make([]dex.Value, len(es))
		for i, e := range es {
			vs[i] = e.v
		}
		out[f.name] = vs
	}
	return out
}

// valueKey identifies a watched value for novelty: two values share a
// key exactly when their String forms are equal, without formatting
// one per event. Blobs and arrays render by length only ("bytes[3]",
// "arr[3]"), so they key by length; a nil array ("arr(nil)") keys
// apart from every length, and all unknown kinds render as "?".
type valueKey struct {
	kind dex.ValueKind
	i    int64
	s    string
}

func keyOf(v dex.Value) valueKey {
	switch v.Kind {
	case dex.KindNil:
		return valueKey{kind: v.Kind}
	case dex.KindInt, dex.KindHandle:
		return valueKey{kind: v.Kind, i: v.Int}
	case dex.KindStr:
		return valueKey{kind: v.Kind, s: v.Str()}
	case dex.KindBytes:
		return valueKey{kind: v.Kind, i: int64(len(v.Str()))}
	case dex.KindArr:
		if v.Arr() == nil {
			return valueKey{kind: v.Kind, i: -1}
		}
		return valueKey{kind: v.Kind, i: int64(len(*v.Arr()))}
	}
	return valueKey{kind: 255}
}

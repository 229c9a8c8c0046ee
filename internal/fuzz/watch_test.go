package fuzz

import (
	"math/rand"
	"sort"
	"testing"

	"bombdroid/internal/android"
	"bombdroid/internal/apk"
	"bombdroid/internal/appgen"
	"bombdroid/internal/dex"
	"bombdroid/internal/vm"
)

// Property: two values share a valueKey exactly when their String forms
// are equal, over values of every kind — including the length-only
// renderings of blobs and arrays, nil versus empty arrays, and kinds
// the renderer does not know.
func TestValueKeyMatchesString(t *testing.T) {
	arr0a, arr0b := dex.NewArr(0), dex.NewArr(0)
	vals := []dex.Value{
		dex.Nil(), {Kind: dex.KindNil, Int: 3},
		dex.Int64(0), dex.Int64(1), dex.Int64(-1), dex.Int64(1 << 40),
		dex.Handle(0), dex.Handle(1),
		dex.Str(""), dex.Str("0"), dex.Str("1"), dex.Str("nil"), dex.Str("arr[0]"), dex.Str(`"x"`),
		dex.Bytes(nil), dex.Bytes([]byte{}), dex.Bytes([]byte{1}), dex.Bytes([]byte{2}), dex.Bytes([]byte("abc")),
		{Kind: dex.KindArr}, arr0a, arr0b, dex.NewArr(3),
		{Kind: 9}, {Kind: 200, Int: 5},
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 300; i++ {
		switch k := dex.ValueKind(rng.Intn(8)); k {
		case dex.KindInt, dex.KindHandle:
			vals = append(vals, dex.Value{Kind: k, Int: rng.Int63n(5) - 2})
		case dex.KindStr:
			vals = append(vals, dex.Str(string(rune('a'+rng.Intn(3)))))
		case dex.KindBytes:
			b := make([]byte, rng.Intn(4))
			rng.Read(b)
			vals = append(vals, dex.Bytes(b))
		case dex.KindArr:
			if rng.Intn(4) == 0 {
				vals = append(vals, dex.Value{Kind: dex.KindArr})
			} else {
				vals = append(vals, dex.NewArr(rng.Intn(4)))
			}
		default:
			vals = append(vals, dex.Value{Kind: k, Int: rng.Int63n(3)})
		}
	}
	for _, a := range vals {
		for _, b := range vals {
			if (keyOf(a) == keyOf(b)) != (a.String() == b.String()) {
				t.Fatalf("key equality (%v) disagrees with String equality for %s / %s",
					keyOf(a) == keyOf(b), a, b)
			}
		}
	}
}

// stringWatch is the String-keyed novelty tracker watchSet replaced:
// the oracle for its novelty stream and flattened value sets.
type stringWatch map[string]map[string]dex.Value

func (w stringWatch) observe(v *vm.VM, fields []string) int {
	novelty := 0
	for _, f := range fields {
		if w[f] == nil {
			w[f] = map[string]dex.Value{}
		}
		val := v.Static(f)
		if _, ok := w[f][val.String()]; !ok {
			w[f][val.String()] = val
			novelty++
		}
	}
	return novelty
}

func (w stringWatch) values() map[string][]dex.Value {
	out := map[string][]dex.Value{}
	for f, m := range w {
		keys := make([]string, 0, len(m))
		for k := range m {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			out[f] = append(out[f], m[k])
		}
		if out[f] == nil {
			out[f] = []dex.Value{}
		}
	}
	return out
}

// nameWatch is the name-keyed tracker watchSet replaced, which looked
// every field up by name and probed its set on every event: the oracle
// for the slot-indexed one.
type nameWatch map[string]map[valueKey]dex.Value

func newNameWatch(fields []string) nameWatch {
	w := make(nameWatch, len(fields))
	for _, f := range fields {
		w[f] = map[valueKey]dex.Value{}
	}
	return w
}

func (w nameWatch) observe(v *vm.VM, fields []string) int {
	novelty := 0
	for _, f := range fields {
		val := v.Static(f)
		key := keyOf(val)
		if _, ok := w[f][key]; !ok {
			w[f][key] = val
			novelty++
		}
	}
	return novelty
}

// watchApp signs a generated app and installs it with profiling on.
func watchApp(t *testing.T) (*appgen.App, *vm.VM) {
	t.Helper()
	app, err := appgen.Generate(appgen.Config{Name: "watch", Seed: 17, TargetLOC: 1500, QCPerMethod: 1.3})
	if err != nil {
		t.Fatal(err)
	}
	key, err := apk.NewKeyPair(21)
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := apk.Sign(apk.Build("watch", app.File, apk.Resources{Strings: []string{"x"}}), key)
	if err != nil {
		t.Fatal(err)
	}
	v, err := vm.New(pkg, android.EmulatorLab(1)[0], vm.Options{Seed: 5, Profile: true})
	if err != nil {
		t.Fatal(err)
	}
	return app, v
}

// TestWatchSetMatchesStringKeys drives a Dynodroid profiling stream
// over a generated app with a watch list that names one field twice,
// names a field that never exists, and includes a field that does not
// exist at install time until SetStatic creates it mid-run, then
// cycles it through every kind. Per event, the novelty counts must
// match both the String-keyed and the name-keyed tracker's, and the
// final flattened value sets must match the String-keyed ones element
// for element.
func TestWatchSetMatchesStringKeys(t *testing.T) {
	app, v := watchApp(t)
	const mixed, never = "Test.mixed", "Test.never"
	if _, ok := v.StaticSlot(mixed); ok {
		t.Fatalf("%s exists at install time; it must be created mid-run", mixed)
	}
	watch := append([]string{mixed, never}, app.IntFieldRefs...)
	watch = append(watch, app.StrFieldRefs...)
	watch = append(watch, app.IntFieldRefs[0]) // named twice
	kinds := []dex.Value{
		dex.Nil(), dex.Int64(4), dex.Handle(4), dex.Str("4"), dex.Bytes([]byte{4}), dex.Bytes([]byte{5}),
		{Kind: dex.KindArr}, dex.NewArr(0), dex.NewArr(0), dex.NewArr(2), {Kind: 12},
	}

	ws, old, byName := newWatchSet(watch), stringWatch{}, newNameWatch(watch)
	ctx := &Context{Handlers: v.Handlers(), Domain: app.Config.ParamDomain, Rng: rand.New(rand.NewSource(42))}
	fz := NewDynodroid()
	rng := rand.New(rand.NewSource(3))
	total := 0
	for i := 0; i < 600; i++ {
		ev := fz.Next(ctx)
		v.Invoke(ev.Handler, dex.Int64(ev.A), dex.Int64(ev.B))
		if i > 50 && rng.Intn(3) == 0 {
			v.SetStatic(mixed, kinds[rng.Intn(len(kinds))])
		}
		got, want, wantByName := ws.observe(v), old.observe(v, watch), byName.observe(v, watch)
		if got != want || got != wantByName {
			t.Fatalf("event %d: novelty %d, String-keyed tracker says %d, name-keyed %d", i, got, want, wantByName)
		}
		total += got
		fz.Observe(ev, got, false)
		v.AdvanceIdle(40)
	}
	if total == 0 {
		t.Fatal("stream produced no novelty; the comparison is vacuous")
	}
	gotVals, wantVals := ws.values(), old.values()
	if len(gotVals) != len(wantVals) {
		t.Fatalf("%d fields, want %d", len(gotVals), len(wantVals))
	}
	for f, want := range wantVals {
		got := gotVals[f]
		if len(got) != len(want) {
			t.Fatalf("%s: %d values, want %d", f, len(got), len(want))
		}
		for i := range want {
			if !sameInstance(got[i], want[i]) {
				t.Fatalf("%s[%d] = %s, want %s", f, i, got[i], want[i])
			}
		}
	}
	if len(gotVals[mixed]) < 5 {
		t.Errorf("mixed field took only %d distinct values", len(gotVals[mixed]))
	}
	if vs := gotVals[never]; len(vs) != 1 || !vs[0].IsNil() {
		t.Errorf("%s = %v, want the single nil a missing field reads as", never, vs)
	}
}

// refDynodroid is Dynodroid as it was before Next scored each handler
// once: the oracle for its event stream.
type refDynodroid struct {
	scores map[string]float64
	sweep  int64
}

func (d *refDynodroid) Next(ctx *Context) Event {
	act := ctx.active()
	total := 0.0
	for _, h := range act {
		total += d.score(h)
	}
	x := ctx.Rng.Float64() * total
	handler := act[len(act)-1]
	for _, h := range act {
		x -= d.score(h)
		if x <= 0 {
			handler = h
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

func (d *refDynodroid) score(h string) float64 {
	s, ok := d.scores[h]
	if !ok {
		return 4.0
	}
	return 0.25 + s
}

func (d *refDynodroid) Observe(ev Event, novelty int, abnormal bool) {
	s := d.scores[ev.Handler]
	d.scores[ev.Handler] = s*0.95 + float64(novelty)*0.5
}

// shadowed is the Dynodroid a fuzz.Run drives, checked event by event
// against the reference Dynodroid on a context with the same handlers,
// active set and RNG seed, and against the name-keyed tracker for the
// novelty the run's watch set reports.
type shadowed struct {
	t      *testing.T
	v      *vm.VM
	watch  []string
	fz     *Dynodroid
	ref    *refDynodroid
	refCtx *Context
	oracle nameWatch
	events int
	// active records how many distinct UI-model active sets the run
	// drew from, so the test can tell the model was in play.
	active map[int]bool
}

func (s *shadowed) Name() string { return s.fz.Name() }

func (s *shadowed) Next(ctx *Context) Event {
	s.refCtx.Handlers, s.refCtx.Active, s.refCtx.Domain = ctx.Handlers, ctx.Active, ctx.Domain
	s.active[len(ctx.active())] = true
	ev, want := s.fz.Next(ctx), s.ref.Next(s.refCtx)
	if ev != want {
		s.t.Fatalf("event %d: %+v, reference Dynodroid sends %+v", s.events, ev, want)
	}
	s.events++
	return ev
}

func (s *shadowed) Observe(ev Event, novelty int, abnormal bool) {
	if want := s.oracle.observe(s.v, s.watch); novelty != want {
		s.t.Fatalf("event %d: novelty %d, name-keyed tracker says %d", s.events, novelty, want)
	}
	s.fz.Observe(ev, novelty, abnormal)
	s.ref.Observe(ev, novelty, abnormal)
}

// TestRunMatchesReference: a UI-model fuzz.Run with a duplicated and a
// missing watch field gives the reference Dynodroid's event stream
// and the name-keyed tracker's novelty on every event.
func TestRunMatchesReference(t *testing.T) {
	app, v := watchApp(t)
	watch := append([]string{"Test.never"}, app.IntFieldRefs...)
	watch = append(watch, app.ScreenField, app.IntFieldRefs[0])
	const seed = 9
	s := &shadowed{
		t: t, v: v, watch: watch,
		fz:     NewDynodroid(),
		ref:    &refDynodroid{scores: map[string]float64{}},
		refCtx: &Context{Rng: rand.New(rand.NewSource(seed))},
		oracle: newNameWatch(watch),
		active: map[int]bool{},
	}
	res := Run(v, s, app.Config.ParamDomain, Options{
		DurationMs: 600_000, Seed: seed, WatchFields: watch,
		HandlerScreens: app.HandlerScreens, ScreenField: app.ScreenField,
	})
	if res.Events != s.events || s.events < 1000 {
		t.Fatalf("run sent %d events, %d checked", res.Events, s.events)
	}
	if len(s.active) < 2 {
		t.Errorf("every event drew from %d active set size(s); the UI model never switched screens", len(s.active))
	}
}

// TestDynodroidMatchesReference: with a random novelty feed and an
// active set that changes between events, Dynodroid's event stream
// equals the reference's.
func TestDynodroidMatchesReference(t *testing.T) {
	handlers := []string{"a", "b", "c", "d", "e", "f", "g"}
	ctx := &Context{Handlers: handlers, Domain: 16, Rng: rand.New(rand.NewSource(8))}
	refCtx := &Context{Handlers: handlers, Domain: 16, Rng: rand.New(rand.NewSource(8))}
	fz, ref := NewDynodroid(), &refDynodroid{scores: map[string]float64{}}
	feed := rand.New(rand.NewSource(2))
	for i := 0; i < 5000; i++ {
		lo := feed.Intn(len(handlers))
		ctx.Active = handlers[lo : lo+1+feed.Intn(len(handlers)-lo)]
		refCtx.Active = ctx.Active
		ev, want := fz.Next(ctx), ref.Next(refCtx)
		if ev != want {
			t.Fatalf("event %d: %+v, reference sends %+v", i, ev, want)
		}
		novelty := feed.Intn(4)
		fz.Observe(ev, novelty, false)
		ref.Observe(ev, novelty, false)
	}
}

// sameInstance reports whether a and b are the same first-seen value:
// same kind, Int and string bytes, and arrays by pointer.
func sameInstance(a, b dex.Value) bool {
	return a.Kind == b.Kind && a.Int == b.Int && a.Str() == b.Str() && a.Arr() == b.Arr()
}

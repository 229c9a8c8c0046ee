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

// TestWatchSetMatchesStringKeys drives a Dynodroid profiling stream
// over a generated app with a watch list that names one field twice
// and includes a field cycling through every kind. Per event, the
// novelty counts must match the String-keyed tracker's, and the final
// flattened value sets must match element for element.
func TestWatchSetMatchesStringKeys(t *testing.T) {
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
	v, err := vm.New(pkg, android.EmulatorLab(1)[0], vm.Options{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	const mixed = "Test.mixed"
	watch := append([]string{mixed}, app.IntFieldRefs...)
	watch = append(watch, app.StrFieldRefs...)
	watch = append(watch, app.IntFieldRefs[0]) // named twice
	kinds := []dex.Value{
		dex.Nil(), dex.Int64(4), dex.Handle(4), dex.Str("4"), dex.Bytes([]byte{4}), dex.Bytes([]byte{5}),
		{Kind: dex.KindArr}, dex.NewArr(0), dex.NewArr(0), dex.NewArr(2), {Kind: 12},
	}

	ws, old := newWatchSet(watch), stringWatch{}
	ctx := &Context{Handlers: v.Handlers(), Domain: app.Config.ParamDomain, Rng: rand.New(rand.NewSource(42))}
	fz := NewDynodroid()
	rng := rand.New(rand.NewSource(3))
	total := 0
	for i := 0; i < 600; i++ {
		ev := fz.Next(ctx)
		v.Invoke(ev.Handler, dex.Int64(ev.A), dex.Int64(ev.B))
		if rng.Intn(3) == 0 {
			v.SetStatic(mixed, kinds[rng.Intn(len(kinds))])
		}
		got, want := ws.observe(v, watch), old.observe(v, watch)
		if got != want {
			t.Fatalf("event %d: novelty %d, String-keyed tracker says %d", i, got, want)
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
}

// sameInstance reports whether a and b are the same first-seen value:
// same kind, Int and string bytes, and arrays by pointer.
func sameInstance(a, b dex.Value) bool {
	return a.Kind == b.Kind && a.Int == b.Int && a.Str() == b.Str() && a.Arr() == b.Arr()
}

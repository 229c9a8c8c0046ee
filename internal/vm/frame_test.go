package vm

import (
	"strings"
	"testing"

	"bombdroid/internal/dex"
)

// buildFrameApp is a tiny app for frame-recycling tests: fresh()
// returns a register that is never written, dirty() scribbles over a
// wide register file, and chain() stacks frames via nested invokes.
func buildFrameApp(t *testing.T) *dex.File {
	t.Helper()
	f := dex.NewFile()
	app := &dex.Class{Name: "App"}

	// fresh() returns an untouched register: must always be Nil, even
	// when the frame rides a recycled register slice.
	b := dex.NewBuilder(f, "fresh", 0)
	r := b.Reg()
	b.Return(r)
	app.AddMethod(b.MustFinish())

	// dirty() fills a wide register file with non-zero values.
	b = dex.NewBuilder(f, "dirty", 0)
	for i := int64(0); i < 24; i++ {
		b.ConstInt(b.Reg(), 1000+i)
	}
	out := b.Reg()
	b.ConstInt(out, 1)
	b.Return(out)
	app.AddMethod(b.MustFinish())

	// add(a, b) and chain() = add(add(1,2), 4) exercise nested frames
	// so caller and callee recycle through the same free list.
	b = dex.NewBuilder(f, "add", 2)
	r = b.Reg()
	b.Arith(dex.OpAdd, r, 0, 1)
	b.Return(r)
	app.AddMethod(b.MustFinish())

	b = dex.NewBuilder(f, "chain", 0)
	a := b.Regs(2)
	b.ConstInt(a, 1)
	b.ConstInt(a+1, 2)
	inner := b.Reg()
	b.Invoke(inner, "App.add", a, a+1)
	four := b.Reg()
	b.ConstInt(four, 4)
	res := b.Reg()
	b.Invoke(res, "App.add", inner, four)
	b.Return(res)
	app.AddMethod(b.MustFinish())

	if err := f.AddClass(app); err != nil {
		t.Fatal(err)
	}
	return f
}

// TestFrameReuseZeroesRegisters pins the frame free-list contract: a
// recycled register slice must be indistinguishable from a fresh one.
// dirty() retires a slice full of stale ints; fresh() then picks it up
// and must still observe Nil in its unwritten register.
func TestFrameReuseZeroesRegisters(t *testing.T) {
	v := installApp(t, buildFrameApp(t), false)
	if got := mustInvoke(t, v, "App.fresh"); got.Kind != dex.KindNil {
		t.Fatalf("fresh frame register = %v, want Nil", got)
	}
	if got := mustInvoke(t, v, "App.dirty"); got.Int != 1 {
		t.Fatalf("dirty = %v, want 1", got)
	}
	if got := mustInvoke(t, v, "App.fresh"); got.Kind != dex.KindNil {
		t.Fatalf("recycled frame register = %v, want Nil (stale value leaked)", got)
	}
}

// TestFrameReuseNestedCalls runs a nested-invoke chain repeatedly so
// frames cycle through the free list at several depths; results must
// stay stable across reuse.
func TestFrameReuseNestedCalls(t *testing.T) {
	v := installApp(t, buildFrameApp(t), false)
	for i := 0; i < 50; i++ {
		if got := mustInvoke(t, v, "App.chain"); got.Int != 7 {
			t.Fatalf("iteration %d: chain = %v, want 7", i, got)
		}
	}
}

// TestArenaRewindsAfterContainedPanic pins the arena contract without
// a per-frame defer: a hook panics three frames deep (outer → mid →
// inner → log), Invoke contains it, and the next Invoke must start
// from the same arena mark. Each frame takes 100 registers, so frames
// left unreleased would add a chunk per Invoke.
func TestArenaRewindsAfterContainedPanic(t *testing.T) {
	f := dex.NewFile()
	app := &dex.Class{Name: "App"}
	b := dex.NewBuilder(f, "inner", 0)
	r := b.Regs(100)
	b.ConstInt(r, 1)
	b.CallAPI(-1, dex.APILog, r)
	b.Return(r)
	app.AddMethod(b.MustFinish())
	for _, m := range []struct{ name, callee string }{{"mid", "App.inner"}, {"outer", "App.mid"}} {
		b = dex.NewBuilder(f, m.name, 0)
		r = b.Regs(100)
		b.Invoke(r, m.callee)
		b.Return(r)
		app.AddMethod(b.MustFinish())
	}
	if err := f.AddClass(app); err != nil {
		t.Fatal(err)
	}
	v := installApp(t, f, false)
	v.Hook(dex.APILog, func(APICall) (dex.Value, bool, error) { panic("hook blew up") })

	start := v.arena.mark()
	for i := 0; i < 10_000; i++ {
		if _, err := v.Invoke("App.outer"); err == nil || !strings.Contains(err.Error(), "contained panic: hook blew up") {
			t.Fatalf("invoke %d: err = %v, want the contained hook panic", i, err)
		}
		if got := v.arena.mark(); got != start {
			t.Fatalf("invoke %d: arena mark %+v after the panic, want %+v", i, got, start)
		}
	}
	if n := len(v.arena.chunks); n > 2 {
		t.Fatalf("arena grew to %d chunks over 10k contained panics", n)
	}
	v.Unhook(dex.APILog)
	if got := mustInvoke(t, v, "App.outer"); got.Int != 1 {
		t.Fatalf("outer after the panics = %v, want 1", got)
	}
	if got := v.arena.mark(); got != start {
		t.Fatalf("arena mark %+v after a clean Invoke, want %+v", got, start)
	}
}

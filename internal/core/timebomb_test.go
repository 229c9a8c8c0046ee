package core

import (
	"math/rand"
	"testing"

	"bombdroid/internal/android"
	"bombdroid/internal/apk"
	"bombdroid/internal/dex"
	"bombdroid/internal/instrument"
	"bombdroid/internal/lockbox"
	"bombdroid/internal/vm"
)

// TestTimeTriggeredBomb reproduces the paper's §6 example: "a bomb can
// be constructed such that it sets off only if the app is played at
// some specific time. Thus, running an app for a longer time does not
// necessarily trigger it." The bomb's inner condition is an evening
// time window; the same trigger input detonates at 20:00 and stays
// dormant at 03:00.
func TestTimeTriggeredBomb(t *testing.T) {
	f := dex.NewFile()
	cls := &dex.Class{Name: "App"}
	b := dex.NewBuilder(f, "onTap", 1)
	b.ReturnVoid()
	cls.AddMethod(b.MustFinish())
	if err := f.AddClass(cls); err != nil {
		t.Fatal(err)
	}

	// Hand-build the double-trigger bomb: outer "x == 99", inner
	// "19 <= time_hour <= 22", detection vs a deliberately wrong Ko.
	const salt = "time-salt"
	cval := dex.Int64(99)
	pf, err := buildPayload(payloadSpec{
		id: "TimeBomb",
		inner: android.InnerCond{Constraints: []android.Constraint{
			{Var: "time_hour", Op: android.OpIn, Lo: 19, Hi: 22},
		}},
		detect:   DetectPublicKey,
		response: vm.RespWarn,
		ko:       "not-the-real-key",
	})
	if err != nil {
		t.Fatal(err)
	}
	sealed, err := lockbox.SealValue(dex.Encode(pf), cval, salt)
	if err != nil {
		t.Fatal(err)
	}
	blob := f.AddBlob(sealed)
	m := f.Method("App.onTap")
	base := int32(m.NumRegs)
	m.NumRegs += siteRegs
	seq := outerTriggerSeq(f, triggerSpec{xReg: 0, c: cval, salt: salt, blobIdx: blob}, base)
	if err := instrument.InsertAt(m, 0, seq); err != nil {
		t.Fatal(err)
	}

	key, err := apk.NewKeyPair(61)
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := apk.Sign(apk.Build("t", f, apk.Resources{}), key)
	if err != nil {
		t.Fatal(err)
	}
	dev := android.EmulatorLab(1)[0]
	dev.MutateEnv("timezone_off", 0, "")

	runAt := func(hour int64, x int64) []vm.ResponseEvent {
		v, err := vm.New(pkg, dev.Clone(), vm.Options{Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		v.SetClockMillis(hour * 3_600_000)
		if _, err := v.Invoke("App.onTap", dex.Int64(x)); err != nil {
			t.Fatal(err)
		}
		return v.Responses()
	}

	// 03:00, correct trigger value: outer fires, inner gate holds it.
	if resp := runAt(3, 99); len(resp) != 0 {
		t.Errorf("bomb fired outside its time window: %+v", resp)
	}
	// 20:00, wrong trigger value: nothing decrypts.
	if resp := runAt(20, 7); len(resp) != 0 {
		t.Errorf("bomb fired without its trigger value: %+v", resp)
	}
	// 20:00, correct value: detonation.
	resp := runAt(20, 99)
	if len(resp) != 1 || resp[0].Kind != vm.RespWarn || resp[0].BombID != "TimeBomb" {
		t.Fatalf("expected a warn at 20:00, got %+v", resp)
	}
}

// TestDelayedResponseBomb covers Options.DelayResponseMs: the payload
// schedules its response instead of firing inline, echoing SSN's
// delay-to-confuse tactic as an optional BombDroid behaviour.
func TestDelayedResponseBomb(t *testing.T) {
	h := protectApp(t, smallCfg(601), Options{
		Seed:            13,
		DelayResponseMs: 90_000,
		Responses:       []vm.ResponseKind{vm.RespWarn},
		SingleTrigger:   true, // make triggering easy for the test
	})
	rng := rand.New(rand.NewSource(5))
	dev := android.SamplePopulation("u", rng)
	v := newVM(t, h.pirated, dev)
	if err := drive(v, 3, 1500, h.app.Config.ParamDomain); err != nil && vm.AbnormalExit(err) {
		t.Fatalf("unexpected abort: %v", err)
	}
	if v.PendingDelayed() == 0 && len(v.Responses()) == 0 {
		t.Skip("no bomb triggered in this stream")
	}
	// Responses at trigger time are only the delayed kind (armed, not
	// yet visible warnings).
	if len(v.Warnings()) != 0 && v.PendingDelayed() > 0 {
		t.Log("some warnings already due — acceptable, drive advanced the clock")
	}
	if err := v.AdvanceIdle(120_000); err != nil {
		t.Fatal(err)
	}
	if len(v.Warnings()) == 0 {
		t.Error("delayed warning never fired")
	}
}

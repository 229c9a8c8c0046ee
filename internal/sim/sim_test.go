package sim

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"bombdroid/internal/android"
	"bombdroid/internal/apk"
	"bombdroid/internal/appgen"
	"bombdroid/internal/core"
	"bombdroid/internal/vm"
)

func prepared(t *testing.T, seed int64) (*apk.Package, *apk.Package, Surface, *core.Result) {
	t.Helper()
	app, err := appgen.Generate(appgen.Config{Name: "sim", Seed: seed, TargetLOC: 1500})
	if err != nil {
		t.Fatal(err)
	}
	key, err := apk.NewKeyPair(61)
	if err != nil {
		t.Fatal(err)
	}
	orig, err := apk.Sign(apk.Build("sim", app.File, apk.Resources{Strings: []string{"a"}}), key)
	if err != nil {
		t.Fatal(err)
	}
	built, err := (&core.Engine{Opts: core.Options{Seed: seed}}).Run(context.Background(), orig)
	if err != nil {
		t.Fatal(err)
	}
	prot, err := apk.Sign(built.Unsigned, key)
	if err != nil {
		t.Fatal(err)
	}
	res := built.Result
	attacker, err := apk.NewKeyPair(909)
	if err != nil {
		t.Fatal(err)
	}
	pirated, err := apk.Repackage(prot, attacker, apk.RepackOptions{NewAuthor: "pirate"})
	if err != nil {
		t.Fatal(err)
	}
	return prot, pirated, SurfaceOf(app), res
}

func TestUserSessionTriggersOnPirated(t *testing.T) {
	_, pirated, surf, _ := prepared(t, 201)
	rng := rand.New(rand.NewSource(7))
	triggered := 0
	var firstTimes []int64
	for i := 0; i < 12; i++ {
		dev := android.SamplePopulation("u", rng)
		sr, err := RunUserSession(context.Background(), pirated, surf, dev, SessionOptions{
			Seed: int64(i) * 13, StartClockMs: -1,
		})
		if err != nil {
			t.Fatal(err)
		}
		if sr.Triggered {
			triggered++
			firstTimes = append(firstTimes, sr.TimeToFirstMs)
			if sr.TimeToFirstMs <= 0 || sr.TimeToFirstMs > 60*60_000 {
				t.Errorf("time to first bomb %dms out of range", sr.TimeToFirstMs)
			}
		}
		if sr.EventsPlayed == 0 {
			t.Error("session played no events")
		}
	}
	if triggered == 0 {
		t.Fatal("no user session triggered any bomb on the pirated app")
	}
	t.Logf("triggered %d/12 sessions; first-bomb times: %v", triggered, firstTimes)
}

func TestUserSessionSilentOnGenuine(t *testing.T) {
	prot, _, surf, _ := prepared(t, 203)
	rng := rand.New(rand.NewSource(8))
	for i := 0; i < 5; i++ {
		dev := android.SamplePopulation("u", rng)
		sr, err := RunUserSession(context.Background(), prot, surf, dev, SessionOptions{
			CapMs: 10 * 60_000, Seed: int64(i) * 17, StartClockMs: -1,
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(sr.Responses) != 0 {
			t.Fatalf("false positive response on genuine app: %+v", sr.Responses)
		}
		if sr.AbnormalExit {
			t.Fatal("genuine app crashed during normal use")
		}
		// Detection may well have run (that is Triggered); it must
		// simply produce no response.
	}
}

func TestCampaignAggregation(t *testing.T) {
	_, pirated, surf, _ := prepared(t, 207)
	cr, err := Run(context.Background(), pirated, surf, CampaignOptions{N: 15, CapMs: 45 * 60_000, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if cr.Sessions != 15 {
		t.Errorf("sessions = %d", cr.Sessions)
	}
	if cr.Successes == 0 {
		t.Fatal("campaign found nothing")
	}
	if cr.MinMs > cr.MaxMs || cr.AvgMs < cr.MinMs || cr.AvgMs > cr.MaxMs {
		t.Errorf("stats inconsistent: min=%d avg=%d max=%d", cr.MinMs, cr.AvgMs, cr.MaxMs)
	}
	t.Logf("campaign: %d/%d sessions, min=%.1fs avg=%.1fs max=%.1fs, %d reports, %d complaints",
		cr.Successes, cr.Sessions,
		float64(cr.MinMs)/1000, float64(cr.AvgMs)/1000, float64(cr.MaxMs)/1000,
		cr.Reports, cr.Complaints)
}

func TestCampaignOnGenuineAppHasNoComplaints(t *testing.T) {
	prot, _, surf, _ := prepared(t, 211)
	cr, err := Run(context.Background(), prot, surf, CampaignOptions{N: 6, CapMs: 8 * 60_000, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if cr.Complaints != 0 || cr.Reports != 0 {
		t.Errorf("genuine app produced %d complaints, %d reports", cr.Complaints, cr.Reports)
	}
}

// TestCampaignCancellation: a cancelled context aborts the campaign
// promptly at any worker count — no goroutine leaks, and the error is
// the context's, whether the cancel lands before the pool starts or
// mid-flight.
func TestCampaignCancellation(t *testing.T) {
	_, pirated, surf, _ := prepared(t, 213)
	for _, workers := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		_, err := Run(ctx, pirated, surf, CampaignOptions{N: 8, CapMs: 45 * 60_000, Seed: 3, Workers: workers})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
	}
	// Mid-flight cancellation: fire after the campaign is under way.
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := Run(ctx, pirated, surf, CampaignOptions{N: 64, CapMs: 45 * 60_000, Seed: 3, Workers: 4})
		done <- err
	}()
	time.Sleep(5 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		// Either the campaign finished before the cancel (nil) or it
		// reports the cancellation; both are prompt returns.
		if err != nil && !errors.Is(err, context.Canceled) {
			t.Fatalf("mid-flight cancel: err = %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("campaign did not return after cancellation")
	}
}

// TestChaosCampaignCancellation pins the same contract for the
// fault-injected campaign runner, and that a result cancelled before
// any success keeps the zero-successes invariant Run keeps.
func TestChaosCampaignCancellation(t *testing.T) {
	_, pirated, surf, _ := prepared(t, 217)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := RunChaos(ctx, pirated, surf, ChaosOptions{Sessions: 6, Seed: 9})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res.Successes != 0 || res.MinMs != 0 || res.MaxMs != 0 || res.AvgMs != 0 {
		t.Errorf("cancelled before any session: successes=%d min/max/avg = %d/%d/%d, want all 0",
			res.Successes, res.MinMs, res.MaxMs, res.AvgMs)
	}
}

// TestFirstBombCheckMatchesObserver: the VM's own record of the first
// detection check is exactly what a call observer sees, and a session
// without any observer (cost-only calls on their fast path) plays out
// identically to one with an observer installed.
func TestFirstBombCheckMatchesObserver(t *testing.T) {
	_, pirated, surf, _ := prepared(t, 201)
	triggered := 0
	for i := 0; i < 8; i++ {
		// A session mutates its device, so each run gets its own copy.
		dev := func() *android.Device { return android.SamplePopulation("u", rand.New(rand.NewSource(int64(i)))) }
		opts := SessionOptions{Seed: int64(i) * 13, StartClockMs: -1}.withDefaults()
		plain, err := RunUserSession(context.Background(), pirated, surf, dev(), opts)
		if err != nil {
			t.Fatal(err)
		}

		v, err := vm.New(pirated, dev(), vm.Options{Seed: opts.Seed})
		if err != nil {
			t.Fatal(err)
		}
		seenMs, seenClass := int64(-1), ""
		v.Observe(func(call vm.APICall) {
			if call.InPayload != "" && seenClass == "" && call.API.DetectionCheck() {
				seenMs, seenClass = v.NowMillis(), call.InPayload
			}
		})
		observed, err := driveSession(context.Background(), v, surf, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(plain, observed) {
			t.Fatalf("session %d: without observer %+v, with observer %+v", i, plain, observed)
		}
		ms, class, ok := v.FirstBombCheck()
		if ok != (seenClass != "") || ms != seenMs && ok || class != seenClass {
			t.Fatalf("session %d: FirstBombCheck = (%d, %q, %v), observer saw (%d, %q)", i, ms, class, ok, seenMs, seenClass)
		}
		if ok {
			triggered++
			if observed.FirstBomb != class || observed.TimeToFirstMs != ms-observed.StartClockMs {
				t.Fatalf("session %d: result names %q at %dms, check was %q at %dms",
					i, observed.FirstBomb, observed.TimeToFirstMs, class, ms-observed.StartClockMs)
			}
		}
	}
	if triggered == 0 {
		t.Fatal("no session ran a detection check")
	}
}

package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"strings"
	"time"

	"bombdroid/internal/appgen"
	"bombdroid/internal/exp"
	"bombdroid/internal/obs"
	"bombdroid/internal/sim"
)

// sessionCapMs is Table 3's per-session cap: 60 virtual minutes.
const sessionCapMs = 60 * 60_000

// table3Scale is the paper's Table 3: its eight apps profiled with
// 10,000 events, 50 user sessions each.
func table3Scale(c *config) (apps []string, events, sessions int) {
	if c.tiny {
		return []string{"AndroFish", "Hash Droid"}, protectEvents, 10
	}
	return appgen.NamedApps, 10_000, 50
}

// runTable3 is the paper's Table 3 detection campaign: every app's
// pirated build played by a sampled user population until its bombs
// detonate, with sessions spread over nproc workers. Op: one round —
// a sim.Run per app. Throughput: sessions per second.
//
// Every round replays the campaign with seed 1, whatever the run's
// seed, which only orders the apps within each round. A campaign's
// cost is mostly its sessions that never detonate and so play the full
// hour; their number is binomial in the campaign seed, and it moved
// round times by a sixth from seed to seed — the draw, not the code.
// Replaying one campaign also makes every round's rows a check on the
// first's.
func runTable3(ctx context.Context, m *meter) error {
	c := m.c
	names, events, n := table3Scale(c)
	var apps []*exp.PreparedApp
	// exp caches prepared apps per process, keyed by content and
	// profile length, so each repetition profiles with one more event
	// to redo the work; the timed part uses repetition 0's apps.
	err := m.setup(setupReps, func(rep int) error {
		ps := make([]*exp.PreparedApp, len(names))
		_, err := closedLoop(ctx, len(names), c.workers, func(_, i int) (err error) {
			ps[i], err = exp.PrepareCtx(ctx, names[i], events+rep)
			return err
		})
		if rep == 0 {
			apps = ps
		}
		return err
	})
	if err != nil {
		return err
	}

	reg := obs.NewRegistry() // the traced rounds' campaign counters
	var tracedWall time.Duration
	rows := make([]sim.CampaignResult, len(apps))
	campaign := func(i, workers int, traced bool) (sim.CampaignResult, error) {
		opts := sim.CampaignOptions{N: n, CapMs: sessionCapMs, Seed: 1, Workers: workers}
		if traced {
			opts.Reg = reg
		}
		return sim.Run(ctx, apps[i].Pirated, apps[i].Surface, opts)
	}
	rng := rand.New(rand.NewSource(c.seed))
	start := time.Now()
	var last time.Duration
	m.begin()
	for round := 0; round < 2 || c.fits(time.Since(start), last); round++ {
		traced := m.traced(round)
		root := m.tr.id()
		r0 := time.Now()
		for _, i := range rng.Perm(len(apps)) {
			m.attempted++
			t0 := time.Now()
			res, err := campaign(i, c.workers, traced)
			t1 := time.Now()
			if err != nil {
				m.failed++
				m.checkf(false, "%s round %d: %v", names[i], round, err)
				continue
			}
			m.tag(names[i], traced, msBetween(t0, t1))
			if traced {
				tracedWall += t1.Sub(t0)
				m.tr.add(root, "sim.run", t0, t1)
			}
			if round == 0 {
				rows[i] = res
				m.checkf(res.Successes*5 >= res.Sessions*4, "%s: only %d of %d sessions detonated",
					names[i], res.Successes, res.Sessions)
			} else {
				m.checkf(res == rows[i], "%s round %d: %+v differs from round 0 %+v", names[i], round, res, rows[i])
			}
		}
		r1 := time.Now()
		last = r1.Sub(r0)
		if traced {
			m.tr.record(root, 0, "bench", "", r0, r1)
		}
		m.lat = append(m.lat, msBetween(r0, r1))
		m.rate(float64(n*len(apps)), r1.Sub(r0))
	}
	m.end()

	// Outside the timed part: the campaign is identical on one worker,
	// and a genuine copy never responds. Both use the first app,
	// AndroFish, whose genuine sessions (which always play the whole
	// hour) cost least.
	serial, err := campaign(0, 1, false)
	m.checkf(err == nil && serial == rows[0], "%s: Workers=1 campaign %+v differs from Workers=%d %+v (%v)",
		names[0], serial, c.workers, rows[0], err)
	genuine, err := sim.Run(ctx, apps[0].Original, apps[0].Surface,
		sim.CampaignOptions{N: n, CapMs: sessionCapMs, Seed: c.seed, Workers: c.workers})
	m.checkf(err == nil && genuine.Reports == 0 && genuine.Complaints == 0,
		"%s: genuine copy drew %d reports and %d complaints (%v)", names[0], genuine.Reports, genuine.Complaints, err)

	snap := reg.Snapshot()
	sessions := float64(counterSum(snap, "sim_sessions_total"))
	instr := float64(counterSum(snap, "vm_op_total"))
	if sessions > 0 {
		m.layer["vm.instructions_per_session"] = instr / sessions
		m.layer["vm.invokes_per_session"] = float64(counterSum(snap, "vm_invokes_total")) / sessions
		m.layer["sim.events_per_session"] = float64(counterSum(snap, "sim_events_total")) / sessions
		m.layer["sim.triggered_pct"] = 100 * float64(counterSum(snap, "sim_sessions_triggered_total")) / sessions
	}
	if tracedWall > 0 {
		m.layer["vm.minstr_per_s"] = instr / tracedWall.Seconds() / 1e6
	}

	h := sha256.New()
	for i, r := range rows {
		fmt.Fprintf(h, "%s %+v\n", names[i], r)
	}
	m.digest = hex.EncodeToString(h.Sum(nil))
	return nil
}

// counterSum adds up a counter over all its label sets.
func counterSum(s obs.Snapshot, name string) int64 {
	var n int64
	for k, v := range s.Counters {
		if k == name || strings.HasPrefix(k, name+"{") {
			n += v
		}
	}
	return n
}

package android

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"testing"
)

// twinDevices returns pairs of identical devices (same assignment,
// same jitter state): sampled population devices and the whole
// emulator lab.
func twinDevices() [][2]*Device {
	var out [][2]*Device
	for seed := int64(1); seed <= 6; seed++ {
		a := SamplePopulation("u", rand.New(rand.NewSource(seed)))
		b := SamplePopulation("u", rand.New(rand.NewSource(seed)))
		out = append(out, [2]*Device{a, b})
	}
	as, bs := EmulatorLab(8), EmulatorLab(8)
	for i := range as {
		out = append(out, [2]*Device{as[i], bs[i]})
	}
	return out
}

// requireIndexReadsMatch reads every catalog variable from a by name
// and from b by index, in lockstep at several clocks. Equal results
// for the jittered sensors mean both read paths draw the same jitter.
func requireIndexReadsMatch(t *testing.T, what string, a, b *Device) {
	t.Helper()
	for _, clock := range []int64{0, 3_600_000 * 9, 86_400_000*3 + 1_234_567} {
		for _, s := range Catalog() {
			if x, y := a.GetInt(s.Name, clock), b.GetIntAt(s.Index, clock); x != y {
				t.Fatalf("%s %s: GetInt(%q) = %d, GetIntAt(%d) = %d", what, a.ID, s.Name, x, s.Index, y)
			}
			if x, y := a.GetStr(s.Name), b.GetStrAt(s.Index); x != y {
				t.Fatalf("%s %s: GetStr(%q) = %q, GetStrAt(%d) = %q", what, a.ID, s.Name, x, s.Index, y)
			}
		}
	}
}

// TestDenseReadsMatchNames pins the VM's index reads to reads by name
// on fresh devices, after MutateEnv and after Clone.
func TestDenseReadsMatchNames(t *testing.T) {
	for i, s := range Catalog() {
		if s.Index != i || Spec(s.Name).Index != i {
			t.Fatalf("%s: Index %d, want %d", s.Name, s.Index, i)
		}
	}
	for _, tw := range twinDevices() {
		a, b := tw[0], tw[1]
		requireIndexReadsMatch(t, "fresh", a, b)
		for _, d := range []*Device{a, b} {
			for _, m := range []struct {
				name string
				iv   int64
				sv   string
			}{{"cpu_abi", 0, "mips"}, {"api_level", 31, ""}, {"timezone_off", -7, ""}, {"battery_pct", 12, ""}} {
				if err := d.MutateEnv(m.name, m.iv, m.sv); err != nil {
					t.Fatal(err)
				}
			}
		}
		requireIndexReadsMatch(t, "mutated", a, b)
		requireIndexReadsMatch(t, "cloned", a.Clone(), b.Clone())
	}
}

// TestDeviceReadsGolden pins what devices hold and read, including the
// jittered sensors, to digests taken before devices moved from
// name-keyed maps to catalog-indexed slices.
func TestDeviceReadsGolden(t *testing.T) {
	digest := func(devs []*Device) string {
		h := sha256.New()
		for _, d := range devs {
			fmt.Fprintf(h, "%s|%s|", d, d.Fingerprint())
			for _, clock := range []int64{0, 3_600_000 * 9, 86_400_000*3 + 1_234_567} {
				for _, name := range append(Names(), "no_such_var") {
					fmt.Fprintf(h, "%d,%q,%v;", d.GetInt(name, clock), d.GetStr(name), d.Has(name))
				}
			}
		}
		return hex.EncodeToString(h.Sum(nil))
	}
	rng := rand.New(rand.NewSource(42))
	var pop []*Device
	for i := 0; i < 20; i++ {
		d := SamplePopulation(fmt.Sprintf("u%d", i), rng)
		pop = append(pop, d, d.Clone())
	}
	lab := EmulatorLab(8)
	if err := lab[0].MutateEnv("manufacturer", 0, "samsung"); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		devs []*Device
		want string
	}{
		{"population", pop, "a5955a8987697c546f4ee5d39d9c039169dca254cc2c894f65bf197747784afe"},
		{"emulator lab", lab, "0675e22a74327f44e211a32f04ccc241571c280fa28f797c3975db7858dcbceb"},
	} {
		if got := digest(c.devs); got != c.want {
			t.Errorf("%s: digest %s, want %s", c.name, got, c.want)
		}
	}
}

package android

import (
	"fmt"
	"math/rand"
)

// Device is one concrete Android device: a fixed assignment to every
// static environment variable plus per-device dynamics (sensors, time
// offsets) that vary between reads. Devices come from two sources:
// draws from the user population (SamplePopulation) and the attacker's
// small emulator lab (EmulatorLab).
//
// Values live in slices indexed by EnvSpec.Index, so a read whose
// catalog index is known (GetIntAt, GetStrAt: the VM resolves constant
// names once, at load) costs one slice index and no map probe. has
// marks the assigned variables; an unassigned one reads 0 or "".
type Device struct {
	ID     string
	ints   []int64  // integer variables; 0 at string variables
	strs   []string // string variables; "" at integer variables
	has    uint64   // bit i: catalog variable i is assigned
	tzOff  int64    // hours, cached from timezone_off
	jitter *rand.Rand
}

func newDevice(id string, jitter *rand.Rand) *Device {
	return &Device{
		ID:     id,
		ints:   make([]int64, len(catalog)),
		strs:   make([]string, len(catalog)),
		jitter: jitter,
	}
}

// set assigns variable s. The caller passes the value of s's kind.
func (d *Device) set(s *EnvSpec, iv int64, sv string) {
	if s.Kind == VarStr {
		d.strs[s.Index] = sv
	} else {
		d.ints[s.Index] = iv
	}
	d.has |= 1 << s.Index
}

// setInt and setStr assign a catalog variable by name.
func (d *Device) setInt(name string, v int64)  { d.set(catalogIndex[name], v, "") }
func (d *Device) setStr(name string, v string) { d.set(catalogIndex[name], 0, v) }

// SamplePopulation draws a device from the population distributions.
// Deterministic given rng state.
func SamplePopulation(id string, rng *rand.Rand) *Device {
	d := newDevice(id, rand.New(rand.NewSource(rng.Int63())))
	for _, s := range catalog {
		iv, sv := s.sample(rng)
		d.set(s, iv, sv)
	}
	d.tzOff = d.ints[catalogIndex["timezone_off"].Index]
	return d
}

// Emulator describes one attacker lab configuration: the fields the
// paper's testers vary between runs (device type, SDK version,
// CPU/ABI, §8.2) with everything else at emulator defaults.
type Emulator struct {
	Name         string
	Manufacturer string
	CPUABI       string
	APILevel     int64
	ScreenW      int64
	ScreenH      int64
}

// NewEmulator materializes an emulator configuration as a Device.
// Emulator defaults are conspicuous: generic board, x86 ABI unless
// overridden, IP in the 10.0.2.x NAT range, null-island GPS — the
// homogeneity that keeps inner triggers dormant in the attacker lab.
func NewEmulator(cfg Emulator, seed int64) *Device {
	d := newDevice("emulator-"+cfg.Name, rand.New(rand.NewSource(seed)))
	d.setStr("manufacturer", cfg.Manufacturer)
	d.setStr("brand", "generic")
	d.setStr("board", "goldfish")
	d.setStr("bootloader", "unknown")
	d.setStr("cpu_abi", cfg.CPUABI)
	d.setStr("locale", "en_US")
	d.setInt("screen_w", cfg.ScreenW)
	d.setInt("screen_h", cfg.ScreenH)
	d.setInt("density_dpi", 320)
	d.setInt("flash_gb", 32)
	d.setInt("mac_hash", 0x5254_00) // QEMU OUI prefix
	d.setInt("serial_hash", seed&0xFFFFFF)
	d.setInt("battery_pct", 100)
	d.setInt("os_version", cfg.APILevel)
	d.setInt("api_level", cfg.APILevel)
	d.setInt("patch_level", 12)
	d.setInt("ip_a", 10)
	d.setInt("ip_b", 0)
	d.setInt("ip_c", 2)
	d.setInt("ip_d", 15)
	d.setInt("timezone_off", 0)
	d.setInt("gps_lat_e6", 0)
	d.setInt("gps_lon_e6", 0)
	return d
}

// EmulatorLab returns the attacker's emulator fleet: n configurations
// drawn from the handful of distinct setups an attacker can afford to
// maintain (paper observation D1). n is capped at the lab catalog size.
func EmulatorLab(n int) []*Device {
	cfgs := []Emulator{
		{"nexus5-api23", "lge", "armeabi-v7a", 23, 1080, 1920},
		{"pixel-api25", "google", "arm64-v8a", 25, 1080, 1920},
		{"generic-api19", "unknown", "x86", 19, 720, 1280},
		{"nexus7-api22", "asus", "armeabi-v7a", 22, 1200, 1920},
		{"pixel2-api26", "google", "arm64-v8a", 26, 1080, 1920},
		{"galaxy-api24", "samsung", "arm64-v8a", 24, 1440, 2560},
		{"generic-api21", "unknown", "x86", 21, 768, 1280},
		{"oneplus-api25", "oneplus", "arm64-v8a", 25, 1080, 1920},
	}
	if n > len(cfgs) {
		n = len(cfgs)
	}
	out := make([]*Device, n)
	for i := 0; i < n; i++ {
		out[i] = NewEmulator(cfgs[i], int64(i+1))
	}
	return out
}

// GetInt reads an integer environment variable. Dynamic variables
// (time, sensors) are derived from the supplied virtual clock and the
// device's jitter stream; static ones return the fixed assignment.
// Unknown names return 0, matching a framework default.
func (d *Device) GetInt(name string, clockMillis int64) int64 {
	spec := Spec(name)
	if spec == nil {
		return 0
	}
	return d.GetIntAt(spec.Index, clockMillis)
}

// GetIntAt is GetInt for the catalog variable at index i: string
// variables read 0, and a dynamic variable draws the same jitter as a
// read by name.
func (d *Device) GetIntAt(i int, clockMillis int64) int64 {
	spec := catalog[i]
	if spec.Kind != VarInt {
		return 0
	}
	if !spec.Dynamic {
		return d.ints[i]
	}
	switch spec.Name {
	case "time_hour":
		return ((clockMillis/3_600_000)%24 + d.tzOff + 24) % 24
	case "time_min":
		return (clockMillis / 60_000) % 60
	case "time_dow":
		return (clockMillis / 86_400_000) % 7
	case "battery_pct":
		base := d.ints[i]
		drain := (clockMillis / 600_000) % 40 // ~1%/10min cycle
		v := base - drain
		if v < 5 {
			v = 5
		}
		return v
	case "light_lux":
		// Diurnal curve plus per-read jitter.
		h := ((clockMillis/3_600_000)%24 + d.tzOff + 24) % 24
		base := int64(0)
		if h >= 7 && h <= 19 {
			base = 4000
		} else {
			base = 40
		}
		return base + d.jitter.Int63n(500)
	case "temp_c":
		return 15 + d.jitter.Int63n(15)
	default:
		return d.ints[i]
	}
}

// GetStr reads a string environment variable; unknown names return "".
func (d *Device) GetStr(name string) string {
	spec := Spec(name)
	if spec == nil {
		return ""
	}
	return d.strs[spec.Index]
}

// GetStrAt is GetStr for the catalog variable at index i.
func (d *Device) GetStrAt(i int) string { return d.strs[i] }

// Has reports whether the device carries the named variable.
func (d *Device) Has(name string) bool {
	spec := Spec(name)
	return spec != nil && d.has&(1<<spec.Index) != 0
}

// MutateEnv overrides one variable, modelling the paper's human
// analysts who "mutate environment variables' values" (§8.3.2) on a
// hacked attacker device. Integer variables parse from val's int
// field; string variables from its str field.
func (d *Device) MutateEnv(name string, intVal int64, strVal string) error {
	spec := Spec(name)
	if spec == nil {
		return fmt.Errorf("android: unknown env var %q", name)
	}
	d.set(spec, intVal, strVal)
	if name == "timezone_off" {
		d.tzOff = intVal
	}
	return nil
}

// Clone returns an independent copy (same static assignment, forked
// jitter stream).
func (d *Device) Clone() *Device {
	n := newDevice(d.ID, rand.New(rand.NewSource(d.jitter.Int63())))
	copy(n.ints, d.ints)
	copy(n.strs, d.strs)
	n.has = d.has
	n.tzOff = d.tzOff
	return n
}

// String summarizes the device's distinguishing fields.
func (d *Device) String() string {
	return fmt.Sprintf("%s(%s/%s api%d)", d.ID, d.GetStr("manufacturer"), d.GetStr("cpu_abi"),
		d.ints[catalogIndex["api_level"].Index])
}

// Fingerprint returns a deterministic summary of all static fields,
// useful in tests asserting device diversity.
func (d *Device) Fingerprint() string {
	out := ""
	for _, name := range Names() {
		s := catalogIndex[name]
		switch {
		case d.has&(1<<s.Index) == 0:
		case s.Kind == VarStr:
			out += name + "=" + d.strs[s.Index] + ";"
		default:
			out += fmt.Sprintf("%s=%d;", name, d.ints[s.Index])
		}
	}
	return out
}

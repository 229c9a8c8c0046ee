// Package android models the device side of the paper's setting: the
// environment variables inner trigger conditions read (hardware,
// software, time, sensors — §6), their population-wide distributions
// (the Dashboards/AppBrain statistics BombDroid consults when it
// builds inner conditions with a target satisfaction probability), and
// concrete devices sampled from those distributions. Attackers run a
// handful of emulator profiles; users are draws from the population —
// that asymmetry (difference D1 in the paper) is what the package
// exists to reproduce.
package android

import (
	"fmt"
	"math/rand"
	"sort"
)

// VarKind is the type of an environment variable's value.
type VarKind uint8

// Variable kinds.
const (
	VarInt VarKind = iota
	VarStr
)

// WeightedStr is one possible string value with its population share.
type WeightedStr struct {
	Val    string
	Weight float64
}

// EnvSpec describes one environment variable: its name (the string
// apps pass to getEnvString/getEnvInt), its kind, and its population
// distribution. Integer variables are uniform over [Lo, Hi] unless
// IntWeights is set; string variables are drawn from StrVals.
type EnvSpec struct {
	Name       string
	Index      int // position in Catalog(); Device.GetIntAt/GetStrAt read by it
	Kind       VarKind
	Lo, Hi     int64         // VarInt: inclusive range
	IntWeights []WeightedInt // VarInt: optional non-uniform support
	StrVals    []WeightedStr // VarStr: weighted support
	Dynamic    bool          // re-sampled per read (time, sensors)
}

// WeightedInt is one possible integer value with its population share.
type WeightedInt struct {
	Val    int64
	Weight float64
}

// Domain returns the number of distinct values the variable can take —
// the |dom(X)| a brute-force key attack must search (paper §5.1).
func (s *EnvSpec) Domain() int64 {
	switch s.Kind {
	case VarStr:
		return int64(len(s.StrVals))
	default:
		if len(s.IntWeights) > 0 {
			return int64(len(s.IntWeights))
		}
		return s.Hi - s.Lo + 1
	}
}

// sample draws a value according to the distribution.
func (s *EnvSpec) sample(rng *rand.Rand) (int64, string) {
	switch s.Kind {
	case VarStr:
		return 0, pickStr(rng, s.StrVals)
	default:
		if len(s.IntWeights) > 0 {
			return pickInt(rng, s.IntWeights), ""
		}
		return s.Lo + rng.Int63n(s.Hi-s.Lo+1), ""
	}
}

func pickStr(rng *rand.Rand, vals []WeightedStr) string {
	total := 0.0
	for _, v := range vals {
		total += v.Weight
	}
	x := rng.Float64() * total
	for _, v := range vals {
		x -= v.Weight
		if x <= 0 {
			return v.Val
		}
	}
	return vals[len(vals)-1].Val
}

func pickInt(rng *rand.Rand, vals []WeightedInt) int64 {
	total := 0.0
	for _, v := range vals {
		total += v.Weight
	}
	x := rng.Float64() * total
	for _, v := range vals {
		x -= v.Weight
		if x <= 0 {
			return v.Val
		}
	}
	return vals[len(vals)-1].Val
}

// Catalog returns the environment-variable catalog, mirroring the
// paper's §6 list: hardware environment and status, software
// environment, and time/sensor values. The distributions are
// plausible 2017-era Android population shares.
func Catalog() []*EnvSpec {
	return catalog
}

// Spec returns the catalog entry for name, or nil.
func Spec(name string) *EnvSpec { return catalogIndex[name] }

// Names returns all catalog variable names, sorted.
func Names() []string {
	out := make([]string, 0, len(catalog))
	for _, s := range catalog {
		out = append(out, s.Name)
	}
	sort.Strings(out)
	return out
}

var catalog = []*EnvSpec{
	// Hardware environment and status.
	{Name: "manufacturer", Kind: VarStr, StrVals: []WeightedStr{
		{"samsung", 0.29}, {"xiaomi", 0.13}, {"huawei", 0.12}, {"oppo", 0.09},
		{"vivo", 0.08}, {"motorola", 0.06}, {"lge", 0.05}, {"google", 0.03},
		{"oneplus", 0.03}, {"sony", 0.02}, {"htc", 0.02}, {"asus", 0.02},
		{"lenovo", 0.02}, {"zte", 0.02}, {"tcl", 0.02},
	}},
	{Name: "brand", Kind: VarStr, StrVals: []WeightedStr{
		{"galaxy", 0.29}, {"redmi", 0.13}, {"honor", 0.12}, {"reno", 0.09},
		{"iqoo", 0.08}, {"moto", 0.06}, {"velvet", 0.05}, {"pixel", 0.03},
		{"nord", 0.03}, {"xperia", 0.02}, {"desire", 0.02}, {"zenfone", 0.02},
		{"other", 0.06},
	}},
	{Name: "board", Kind: VarStr, StrVals: []WeightedStr{
		{"msm8998", 0.18}, {"exynos8895", 0.16}, {"sdm845", 0.15},
		{"kirin960", 0.12}, {"mt6757", 0.11}, {"msm8953", 0.10},
		{"sdm660", 0.09}, {"universal", 0.09},
	}},
	{Name: "bootloader", Kind: VarStr, StrVals: []WeightedStr{
		{"u-boot-1", 0.25}, {"u-boot-2", 0.25}, {"aboot-17", 0.20},
		{"aboot-18", 0.15}, {"lk-3", 0.15},
	}},
	{Name: "cpu_abi", Kind: VarStr, StrVals: []WeightedStr{
		{"arm64-v8a", 0.74}, {"armeabi-v7a", 0.22}, {"x86_64", 0.03}, {"x86", 0.01},
	}},
	{Name: "screen_w", Kind: VarInt, IntWeights: []WeightedInt{
		{720, 0.35}, {1080, 0.45}, {1440, 0.12}, {480, 0.08},
	}},
	{Name: "screen_h", Kind: VarInt, IntWeights: []WeightedInt{
		{1280, 0.35}, {1920, 0.40}, {2560, 0.12}, {2160, 0.08}, {854, 0.05},
	}},
	{Name: "density_dpi", Kind: VarInt, IntWeights: []WeightedInt{
		{240, 0.20}, {320, 0.35}, {480, 0.30}, {640, 0.15},
	}},
	{Name: "flash_gb", Kind: VarInt, IntWeights: []WeightedInt{
		{16, 0.15}, {32, 0.30}, {64, 0.30}, {128, 0.18}, {256, 0.07},
	}},
	{Name: "mac_hash", Kind: VarInt, Lo: 0, Hi: 1<<24 - 1},
	{Name: "serial_hash", Kind: VarInt, Lo: 0, Hi: 1<<24 - 1},
	{Name: "battery_pct", Kind: VarInt, Lo: 1, Hi: 100, Dynamic: true},

	// Software environment.
	{Name: "os_version", Kind: VarInt, IntWeights: []WeightedInt{
		{19, 0.08}, {21, 0.10}, {22, 0.12}, {23, 0.22}, {24, 0.20},
		{25, 0.14}, {26, 0.10}, {27, 0.04},
	}},
	{Name: "api_level", Kind: VarInt, IntWeights: []WeightedInt{
		{19, 0.08}, {21, 0.10}, {22, 0.12}, {23, 0.22}, {24, 0.20},
		{25, 0.14}, {26, 0.10}, {27, 0.04},
	}},
	{Name: "patch_level", Kind: VarInt, Lo: 0, Hi: 35},
	{Name: "locale", Kind: VarStr, StrVals: []WeightedStr{
		{"en_US", 0.22}, {"zh_CN", 0.16}, {"es_ES", 0.09}, {"pt_BR", 0.08},
		{"hi_IN", 0.08}, {"ru_RU", 0.06}, {"ja_JP", 0.05}, {"de_DE", 0.05},
		{"fr_FR", 0.05}, {"ko_KR", 0.04}, {"it_IT", 0.03}, {"tr_TR", 0.03},
		{"id_ID", 0.03}, {"ar_SA", 0.03}, {"other", 0.10},
	}},
	{Name: "ip_a", Kind: VarInt, Lo: 1, Hi: 223},
	{Name: "ip_b", Kind: VarInt, Lo: 0, Hi: 255},
	{Name: "ip_c", Kind: VarInt, Lo: 0, Hi: 255},
	{Name: "ip_d", Kind: VarInt, Lo: 1, Hi: 254},
	{Name: "timezone_off", Kind: VarInt, Lo: -11, Hi: 14},

	// Time and sensors (dynamic).
	{Name: "time_hour", Kind: VarInt, Lo: 0, Hi: 23, Dynamic: true},
	{Name: "time_dow", Kind: VarInt, Lo: 0, Hi: 6, Dynamic: true},
	{Name: "time_min", Kind: VarInt, Lo: 0, Hi: 59, Dynamic: true},
	{Name: "gps_lat_e6", Kind: VarInt, Lo: -60_000_000, Hi: 70_000_000},
	{Name: "gps_lon_e6", Kind: VarInt, Lo: -180_000_000, Hi: 180_000_000},
	{Name: "light_lux", Kind: VarInt, Lo: 0, Hi: 10_000, Dynamic: true},
	{Name: "temp_c", Kind: VarInt, Lo: -10, Hi: 40, Dynamic: true},
}

var catalogIndex = func() map[string]*EnvSpec {
	if len(catalog) > 64 {
		panic("android: catalog outgrows Device.has")
	}
	m := make(map[string]*EnvSpec, len(catalog))
	for i, s := range catalog {
		if _, dup := m[s.Name]; dup {
			panic(fmt.Sprintf("android: duplicate env var %q", s.Name))
		}
		s.Index = i
		m[s.Name] = s
	}
	return m
}()

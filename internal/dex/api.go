package dex

import "fmt"

// API identifies an Android-framework / runtime intrinsic invoked by
// OpCallAPI. The set mirrors what the paper's apps, bombs, and the SSN
// baseline need from the platform: certificate and manifest access,
// environment/sensor reads, string methods, the bomb runtime
// (hash / decrypt-and-load / invoke-payload), detection responses, and
// the reflection entry point SSN hides behind.
type API uint16

// Framework and intrinsic API identifiers.
const (
	APIInvalid API = iota

	// Package/certificate access (repackaging detection sources).
	APIGetPublicKey      // () -> Str: hex public key of the installed certificate
	APIGetManifestDigest // (name Str) -> Str: per-file digest from MANIFEST.MF
	APIGetResourceString // (idx Int) -> Str: entry from strings.xml
	APIStegoExtract      // (s Str) -> Str: digest fragment hidden in a resource string
	APICodeDigest        // (class Str) -> Str: runtime digest of a loaded class body

	// Environment, time, sensors (inner-trigger sources).
	APIGetEnvStr   // (name Str) -> Str: device property, e.g. "brand"
	APIGetEnvInt   // (name Str) -> Int: device property, e.g. "api_level"
	APITimeMillis  // () -> Int: virtual wall clock
	APIGPSLatE6    // () -> Int: latitude microdegrees
	APIGPSLonE6    // () -> Int: longitude microdegrees
	APISensorLight // () -> Int: ambient light (lux)
	APISensorTempC // () -> Int: temperature (°C)
	APIRandInt     // (bound Int) -> Int in [0, bound)
	APIRandPercent // () -> Int in [0, 10000): SSN's rand() scaled by 1e4
	APILog         // (msg Str) -> void
	APIUIDraw      // (complexity Int) -> void: cost-bearing UI update
	APIPlaySound   // (id Int) -> void: cost-bearing media call
	APIVibrate     // (ms Int) -> void

	// String methods (QC-eligible comparisons and helpers).
	APIStrEquals     // (a, b Str) -> Int 0/1
	APIStrStartsWith // (a, prefix Str) -> Int 0/1
	APIStrEndsWith   // (a, suffix Str) -> Int 0/1
	APIStrContains   // (a, sub Str) -> Int 0/1
	APIStrConcat     // (a, b Str) -> Str
	APIStrLen        // (a Str) -> Int
	APIStrSubstr     // (a Str, lo, hi Int) -> Str
	APIStrCharAt     // (a Str, i Int) -> Int
	APIStrFromInt    // (v Int) -> Str
	APIStrToInt      // (a Str) -> Int (0 on parse failure)
	APIStrHashCode   // (a Str) -> Int (Java String.hashCode)

	// Bomb runtime.
	APISHA1Hex     // (x Value, salt Str) -> Str: hex SHA-1 of Repr(x)|salt
	APIDecryptLoad // (blob Int, x Value, salt Str) -> Handle: decrypt
	//               Blobs[blob] under KDF(x|salt), decode, install classes
	APIInvokePayload // (h Handle, args...) -> Value: run payload entry

	// Detection responses (paper §4.2).
	APIReportPiracy // (info Str) -> void: send report to the developer
	APIWarnUser     // (msg Str) -> void: dialog/toast warning
	APICrash        // () -> aborts the app
	APILeakMemory   // (kb Int) -> void: grow a static leak
	APISpinLoop     // (ms Int) -> void: burn virtual time (freeze)
	APIDelayBomb    // (ms Int, kind Int) -> void: schedule a delayed response (SSN)

	// Reflection (SSN's concealment vehicle).
	APIReflectCall // (name Str, args...) -> dispatches the named API
	APIDeobfuscate // (s Str, key Int) -> Str: XOR-deobfuscate a name

	apiMax // sentinel; keep last
)

// NumAPIs is the number of defined API identifiers.
const NumAPIs = int(apiMax)

type apiInfo struct {
	name string // Java-flavoured reflection name
	cost int64  // virtual-clock ticks per call
}

var apiInfos = [...]apiInfo{
	APIInvalid:           {"<invalid>", 0},
	APIGetPublicKey:      {"getPublicKey", 180},
	APIGetManifestDigest: {"getManifestDigest", 150},
	APIGetResourceString: {"getResourceString", 40},
	APIStegoExtract:      {"stegoExtract", 60},
	APICodeDigest:        {"codeDigest", 220},
	APIGetEnvStr:         {"getEnvString", 30},
	APIGetEnvInt:         {"getEnvInt", 30},
	APITimeMillis:        {"currentTimeMillis", 10},
	APIGPSLatE6:          {"getLatitude", 80},
	APIGPSLonE6:          {"getLongitude", 80},
	APISensorLight:       {"getLightLux", 50},
	APISensorTempC:       {"getTemperature", 50},
	APIRandInt:           {"randInt", 12},
	APIRandPercent:       {"randPercent", 12},
	APILog:               {"log", 25},
	APIUIDraw:            {"uiDraw", 120},
	APIPlaySound:         {"playSound", 90},
	APIVibrate:           {"vibrate", 40},
	APIStrEquals:         {"equals", 8},
	APIStrStartsWith:     {"startsWith", 8},
	APIStrEndsWith:       {"endsWith", 8},
	APIStrContains:       {"contains", 10},
	APIStrConcat:         {"concat", 12},
	APIStrLen:            {"length", 4},
	APIStrSubstr:         {"substring", 10},
	APIStrCharAt:         {"charAt", 4},
	APIStrFromInt:        {"toString", 10},
	APIStrToInt:          {"parseInt", 10},
	APIStrHashCode:       {"hashCode", 10},
	APISHA1Hex:           {"sha1Hex", 60},
	APIDecryptLoad:       {"decryptLoad", 400},
	APIInvokePayload:     {"invokePayload", 30},
	APIReportPiracy:      {"reportPiracy", 200},
	APIWarnUser:          {"warnUser", 100},
	APICrash:             {"crash", 10},
	APILeakMemory:        {"leakMemory", 30},
	APISpinLoop:          {"spinLoop", 10},
	APIDelayBomb:         {"delayBomb", 20},
	APIReflectCall:       {"reflectCall", 90},
	APIDeobfuscate:       {"deobfuscate", 20},
}

// Valid reports whether a is a defined API identifier.
func (a API) Valid() bool { return a > APIInvalid && a < apiMax }

// Name returns the reflection name of the API (the string SSN
// obfuscates, and the text an attacker greps for).
func (a API) Name() string {
	if int(a) < len(apiInfos) && apiInfos[a].name != "" {
		return apiInfos[a].name
	}
	return fmt.Sprintf("api(%d)", uint16(a))
}

// Cost returns the virtual-clock ticks one call consumes, on top of
// per-instruction accounting. Costs are rough relative magnitudes of
// framework-call latency (a binder call costs far more than a string
// compare) so that the overhead evaluation has a realistic cost model.
func (a API) Cost() int64 {
	if int(a) < len(apiInfos) {
		return apiInfos[a].cost
	}
	return 10
}

// CostOnly reports whether a call's only effect is its Cost: it
// returns nil and reads or writes no runtime state, so an interpreter
// with nothing watching calls may charge the cost and skip dispatch.
func (a API) CostOnly() bool {
	switch a {
	case APIUIDraw, APIPlaySound, APIVibrate:
		return true
	}
	return false
}

// DetectionCheck reports whether a call is one of a bomb's
// repackaging checks: reading the signing key, a manifest digest, or
// a loaded class's code digest.
func (a API) DetectionCheck() bool {
	switch a {
	case APIGetPublicKey, APIGetManifestDigest, APICodeDigest:
		return true
	}
	return false
}

// APIByName resolves a reflection name to its API id, returning
// APIInvalid when unknown. This is the dispatch used by
// APIReflectCall.
func APIByName(name string) API {
	return apiNameIndex[name]
}

var apiNameIndex = func() map[string]API {
	m := make(map[string]API, len(apiInfos))
	for i, inf := range apiInfos {
		if API(i) == APIInvalid || inf.name == "" {
			continue
		}
		m[inf.name] = API(i)
	}
	return m
}()

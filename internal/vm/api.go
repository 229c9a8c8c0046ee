package vm

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strconv"
	"strings"

	"bombdroid/internal/apk"
	"bombdroid/internal/dex"
	"bombdroid/internal/lockbox"
)

// maxLogLines bounds the retained app log.
const maxLogLines = 16_384

// callAPI dispatches one framework/intrinsic call. Hooks run first
// (instrumentation attacks substitute results); observers always see
// the call. The first detection check a payload makes is recorded
// before either, so FirstBombCheck holds exactly what an observer
// would have seen. caller is the full name of the calling method — a
// precomputed string rather than a *dex.Method so the quickened path
// never formats a name per call.
func (v *VM) callAPI(u *unit, inPayload string, caller string, api dex.API, args []dex.Value, depth int) (dex.Value, error) {
	v.clock += api.Cost()
	if inPayload != "" && v.firstCheckClass == "" && api.DetectionCheck() {
		v.firstCheckMs, v.firstCheckClass = v.NowMillis(), inPayload
	}
	call := APICall{API: api, Args: args, InPayload: inPayload, Method: caller}
	for _, o := range v.observers {
		o(call)
	}
	if len(v.hooks) != 0 {
		if h, ok := v.hooks[api]; ok {
			if res, handled, err := h(call); handled {
				return res, err
			}
		}
	}
	return v.dispatch(u, inPayload, api, args, depth)
}

func (v *VM) dispatch(u *unit, inPayload string, api dex.API, args []dex.Value, depth int) (dex.Value, error) {
	bad := func(format string, a ...any) (dex.Value, error) {
		return dex.Nil(), &RuntimeError{Method: api.Name(), PC: -1, Reason: fmt.Sprintf(format, a...)}
	}
	str := func(i int) (string, bool) {
		if i >= len(args) || args[i].Kind != dex.KindStr {
			return "", false
		}
		return args[i].Str(), true
	}
	num := func(i int) (int64, bool) {
		if i >= len(args) || args[i].Kind != dex.KindInt {
			return 0, false
		}
		return args[i].Int, true
	}

	switch api {
	case dex.APIGetPublicKey:
		if inPayload != "" {
			v.bombChecks[inPayload]++
		}
		return dex.Str(v.pkg.PublicKeyHex()), nil

	case dex.APIGetManifestDigest:
		name, ok := str(0)
		if !ok {
			return bad("getManifestDigest wants a string")
		}
		if inPayload != "" {
			v.bombChecks[inPayload]++
		}
		return dex.Str(v.pkg.Manifest.DigestOf(name)), nil

	case dex.APIGetResourceString:
		idx, ok := num(0)
		if !ok {
			return bad("getResourceString wants an int")
		}
		if idx < 0 || int(idx) >= len(v.pkg.Res.Strings) {
			return dex.Str(""), nil
		}
		return dex.Str(v.pkg.Res.Strings[idx]), nil

	case dex.APIStegoExtract:
		s, ok := str(0)
		if !ok {
			return bad("stegoExtract wants a string")
		}
		return dex.Str(apk.ExtractFromString(s)), nil

	case dex.APICodeDigest:
		name, ok := str(0)
		if !ok {
			return bad("codeDigest wants a string")
		}
		if inPayload != "" {
			v.bombChecks[inPayload]++
		}
		return dex.Str(v.classDigest(name)), nil

	case dex.APIGetEnvStr:
		name, ok := str(0)
		if !ok {
			return bad("getEnvString wants a string")
		}
		return dex.Str(v.dev.GetStr(name)), nil

	case dex.APIGetEnvInt:
		name, ok := str(0)
		if !ok {
			return bad("getEnvInt wants a string")
		}
		return dex.Int64(v.dev.GetInt(name, v.NowMillis())), nil

	case dex.APITimeMillis:
		return dex.Int64(v.NowMillis()), nil

	case dex.APIGPSLatE6:
		return dex.Int64(v.dev.GetInt("gps_lat_e6", v.NowMillis())), nil

	case dex.APIGPSLonE6:
		return dex.Int64(v.dev.GetInt("gps_lon_e6", v.NowMillis())), nil

	case dex.APISensorLight:
		return dex.Int64(v.dev.GetInt("light_lux", v.NowMillis())), nil

	case dex.APISensorTempC:
		return dex.Int64(v.dev.GetInt("temp_c", v.NowMillis())), nil

	case dex.APIRandInt:
		bound, ok := num(0)
		if !ok || bound <= 0 {
			return dex.Int64(0), nil
		}
		return dex.Int64(v.rng.Int63n(bound)), nil

	case dex.APIRandPercent:
		return dex.Int64(v.rng.Int63n(10_000)), nil

	case dex.APILog:
		s, _ := str(0)
		if len(v.logs) < maxLogLines {
			v.logs = append(v.logs, s)
		}
		return dex.Nil(), nil

	case dex.APIUIDraw, dex.APIPlaySound, dex.APIVibrate:
		// Cost-bearing framework work with no observable state.
		return dex.Nil(), nil

	case dex.APIStrEquals, dex.APIStrStartsWith, dex.APIStrEndsWith, dex.APIStrContains:
		a, ok1 := str(0)
		b, ok2 := str(1)
		if !ok1 || !ok2 {
			return bad("%s wants two strings", api.Name())
		}
		var r bool
		switch api {
		case dex.APIStrEquals:
			r = a == b
		case dex.APIStrStartsWith:
			r = strings.HasPrefix(a, b)
		case dex.APIStrEndsWith:
			r = strings.HasSuffix(a, b)
		default:
			r = strings.Contains(a, b)
		}
		return dex.Bool(r), nil

	case dex.APIStrConcat:
		a, ok1 := str(0)
		b, ok2 := str(1)
		if !ok1 || !ok2 {
			return bad("concat wants two strings")
		}
		return dex.Str(a + b), nil

	case dex.APIStrLen:
		a, ok := str(0)
		if !ok {
			return bad("length wants a string")
		}
		return dex.Int64(int64(len(a))), nil

	case dex.APIStrSubstr:
		a, ok := str(0)
		lo, ok1 := num(1)
		hi, ok2 := num(2)
		if !ok || !ok1 || !ok2 {
			return bad("substring wants (str, int, int)")
		}
		if lo < 0 || hi > int64(len(a)) || lo > hi {
			return bad("substring bounds [%d,%d) on %d bytes", lo, hi, len(a))
		}
		return dex.Str(a[lo:hi]), nil

	case dex.APIStrCharAt:
		a, ok := str(0)
		i, ok1 := num(1)
		if !ok || !ok1 {
			return bad("charAt wants (str, int)")
		}
		if i < 0 || int(i) >= len(a) {
			return bad("charAt index %d on %d bytes", i, len(a))
		}
		return dex.Int64(int64(a[i])), nil

	case dex.APIStrFromInt:
		x, ok := num(0)
		if !ok {
			return bad("toString wants an int")
		}
		return dex.Str(strconv.FormatInt(x, 10)), nil

	case dex.APIStrToInt:
		a, ok := str(0)
		if !ok {
			return bad("parseInt wants a string")
		}
		x, err := strconv.ParseInt(strings.TrimSpace(a), 10, 64)
		if err != nil {
			return dex.Int64(0), nil
		}
		return dex.Int64(x), nil

	case dex.APIStrHashCode:
		a, ok := str(0)
		if !ok {
			return bad("hashCode wants a string")
		}
		var h int32
		for i := 0; i < len(a); i++ {
			h = 31*h + int32(a[i])
		}
		return dex.Int64(int64(h)), nil

	case dex.APISHA1Hex:
		if len(args) != 2 {
			return bad("sha1Hex wants (value, salt)")
		}
		salt, ok := str(1)
		if !ok {
			return bad("sha1Hex salt must be a string")
		}
		return dex.Str(lockbox.HashHex(args[0], salt)), nil

	case dex.APIDecryptLoad:
		return v.decryptLoad(inPayload, args)

	case dex.APIInvokePayload:
		return v.invokePayload(inPayload, args, depth)

	case dex.APIReportPiracy:
		info, _ := str(0)
		v.reports = append(v.reports, info)
		v.responses = append(v.responses, ResponseEvent{
			TimeMillis: v.NowMillis(), BombID: inPayload, Kind: RespReport, Info: info,
		})
		return dex.Nil(), nil

	case dex.APIWarnUser:
		msg, _ := str(0)
		v.warnings = append(v.warnings, msg)
		v.responses = append(v.responses, ResponseEvent{
			TimeMillis: v.NowMillis(), BombID: inPayload, Kind: RespWarn, Info: msg,
		})
		return dex.Nil(), nil

	case dex.APICrash:
		v.responses = append(v.responses, ResponseEvent{
			TimeMillis: v.NowMillis(), BombID: inPayload, Kind: RespCrash,
		})
		return dex.Nil(), &CrashError{BombID: inPayload, Reason: "detection response"}

	case dex.APILeakMemory:
		kb, _ := num(0)
		if kb < 0 {
			kb = 0
		}
		v.leakKB += kb
		v.responses = append(v.responses, ResponseEvent{
			TimeMillis: v.NowMillis(), BombID: inPayload, Kind: RespLeak,
			Info: strconv.FormatInt(kb, 10) + "KB",
		})
		return dex.Nil(), nil

	case dex.APISpinLoop:
		ms, _ := num(0)
		if ms < 0 {
			ms = 0
		}
		v.clock += ms * TicksPerMilli
		v.responses = append(v.responses, ResponseEvent{
			TimeMillis: v.NowMillis(), BombID: inPayload, Kind: RespFreeze,
			Info: strconv.FormatInt(ms, 10) + "ms",
		})
		return dex.Nil(), nil

	case dex.APIDelayBomb:
		ms, ok := num(0)
		kind, ok2 := num(1)
		if !ok || !ok2 {
			return bad("delayBomb wants (ms, kind)")
		}
		if kind < 0 || kind > int64(RespReport) {
			return bad("delayBomb kind %d out of range", kind)
		}
		v.delayed = append(v.delayed, delayedResponse{
			dueTicks: v.clock + ms*TicksPerMilli,
			kind:     ResponseKind(kind),
			bombID:   inPayload,
		})
		return dex.Nil(), nil

	case dex.APIReflectCall:
		name, ok := str(0)
		if !ok {
			return bad("reflectCall wants a name string")
		}
		target := dex.APIByName(name)
		if !target.Valid() || target == dex.APIReflectCall {
			return bad("reflectCall: unknown target %q", name)
		}
		// Dispatch through callAPI so hooks on the *target* API apply:
		// reflection hides the name from text search, not from runtime
		// interception (paper §2.1).
		return v.callAPI(u, inPayload, "java.lang.reflect", target, args[1:], depth)

	case dex.APIDeobfuscate:
		s, ok := str(0)
		key, ok2 := num(1)
		if !ok || !ok2 {
			return bad("deobfuscate wants (hexstr, key)")
		}
		raw, err := hex.DecodeString(s)
		if err != nil {
			return bad("deobfuscate: %v", err)
		}
		for i := range raw {
			raw[i] ^= byte(key)
		}
		return dex.Str(string(raw)), nil
	}
	return bad("unimplemented API %s", api.Name())
}

// classDigest hashes loaded code (disassembly form) — the basis of
// code snippet scanning. It sees the *runtime* state: an
// attacker-modified method changes the digest. The name may be a
// class ("App") or a single method ("App.render").
func (v *VM) classDigest(name string) string {
	if m := v.app.methods[name]; m != nil {
		return CodeDigest(v.app.file, m)
	}
	c := v.app.file.Class(name)
	if c == nil {
		return ""
	}
	h := sha256.New()
	for _, m := range c.Methods {
		h.Write([]byte(dex.DisassembleMethod(v.app.file, m)))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// CodeDigest computes the digest APICodeDigest reports for a single
// method — exported so the protector can precompute expected values
// for snippet-scanning bombs.
func CodeDigest(f *dex.File, m *dex.Method) string {
	sum := sha256.Sum256([]byte(dex.DisassembleMethod(f, m)))
	return hex.EncodeToString(sum[:])
}

// decryptLoad implements APIDecryptLoad: authenticate, decode, and
// validate a sealed payload, install its classes, return a handle.
// Failure is a DecryptError — app corruption from the user's point of
// view — unless the VM runs FailClosed, in which case the fault is
// ledgered and a nil handle returned so the app keeps its normal
// semantics (the bomb simply never opens).
func (v *VM) decryptLoad(inPayload string, args []dex.Value) (dex.Value, error) {
	if len(args) != 3 || args[0].Kind != dex.KindInt || args[2].Kind != dex.KindStr {
		return dex.Nil(), &RuntimeError{Method: "decryptLoad", PC: -1, Reason: "wants (blobIdx, value, salt)"}
	}
	blobIdx := args[0].Int
	if blobIdx < 0 || blobIdx >= int64(len(v.app.file.Blobs)) {
		return dex.Nil(), &RuntimeError{Method: "decryptLoad", PC: -1, Reason: fmt.Sprintf("no blob %d", blobIdx)}
	}
	if h, ok := v.decryptCache[blobIdx]; ok {
		// One-time decryption effort, cached thereafter (paper §8.4,
		// reason 3 for the low overhead).
		return dex.Handle(h), nil
	}
	failClosed := func(err error) (dex.Value, error) {
		if v.opts.FailClosed {
			v.recordFault(blobIdx, inPayload, "decrypt", err)
			return dex.Nil(), nil
		}
		return dex.Nil(), &DecryptError{Blob: blobIdx}
	}
	sealed := v.app.file.Blobs[blobIdx]
	if v.opts.BlobFault != nil {
		sealed = v.opts.BlobFault(blobIdx, sealed)
	}
	plain, err := lockbox.OpenValue(sealed, args[1], args[2].Str())
	if err != nil {
		return failClosed(err)
	}
	file, err := dex.Decode(plain)
	if err != nil {
		return failClosed(err)
	}
	// An authenticated payload is still untrusted input to the
	// interpreter until it passes the same structural validation the
	// installer applies to app dex.
	if err := dex.Validate(file); err != nil {
		return failClosed(err)
	}
	pu := newUnit(file)
	pu.buildResolved(v.app)
	entry := ""
	for _, c := range file.Classes {
		if c.Method("run") != nil {
			entry = c.Name
		}
		for _, fd := range c.Fields {
			// A payload field initializer applies only if the name was
			// never declared or written before — the staticSet bit is
			// the slot table's stand-in for map-key existence.
			idx := v.ensureStatic(c.Name + "." + fd.Name)
			if !v.staticSet[idx] {
				v.staticVals[idx] = fd.Init
				v.staticSet[idx] = true
			}
		}
	}
	if entry == "" {
		return failClosed(fmt.Errorf("payload has no entry class"))
	}
	// Quicken the payload against this VM's static table; slots the
	// payload references beyond the shared image extend staticExtra.
	quickenUnit(pu, func(name string) (int32, bool) {
		idx := v.ensureStatic(name)
		return idx, v.staticSet[idx]
	})
	v.nextHandle++
	h := v.nextHandle
	v.payloads[h] = &payloadUnit{u: pu, entryClass: entry}
	v.decryptCache[blobIdx] = h
	v.outerFired[blobIdx] = true
	return dex.Handle(h), nil
}

// invokePayload implements APIInvokePayload. Under FailClosed a nil
// handle (a decrypt that degraded gracefully upstream) is a silent
// no-op, and a fault inside the payload is ledgered rather than
// aborting the app — but a deliberate crash response still crashes:
// that is bomb behaviour, not a fault.
func (v *VM) invokePayload(inPayload string, args []dex.Value, depth int) (dex.Value, error) {
	if len(args) < 1 || args[0].Kind != dex.KindHandle {
		if v.opts.FailClosed && len(args) >= 1 && args[0].Kind == dex.KindNil {
			return dex.Nil(), nil // degraded decrypt upstream; skip the bomb
		}
		return dex.Nil(), &RuntimeError{Method: "invokePayload", PC: -1, Reason: "wants a payload handle"}
	}
	pu, ok := v.payloads[args[0].Int]
	if !ok {
		return dex.Nil(), &RuntimeError{Method: "invokePayload", PC: -1, Reason: fmt.Sprintf("stale handle %d", args[0].Int)}
	}
	entryName := pu.entryClass + ".run"
	var res dex.Value
	var err error
	if v.opts.Reference {
		entry := pu.u.methods[entryName]
		if entry == nil {
			return dex.Nil(), &RuntimeError{Method: "invokePayload", PC: -1, Reason: "payload has no entry"}
		}
		res, err = v.call(pu.u, pu.entryClass, entry, args[1:], depth+1)
	} else {
		entry := pu.u.q.byName[entryName]
		if entry == nil {
			return dex.Nil(), &RuntimeError{Method: "invokePayload", PC: -1, Reason: "payload has no entry"}
		}
		res, err = v.qcall(pu.u, pu.entryClass, entry, args[1:], depth+1)
	}
	if err != nil && v.opts.FailClosed && !IsCrash(err) {
		v.recordFault(-1, pu.entryClass, "payload-exec", err)
		return dex.Nil(), nil
	}
	return res, err
}

// Package core is BombDroid itself: the paper's primary contribution.
// It takes an app's bytecode plus the developer's public key and
// builds repackaging detection into the app as cryptographically
// obfuscated logic bombs (paper §3): outer triggers Hash(X|salt)==Hc
// at existing and artificial qualified conditions, encrypted payloads
// holding an environment-sensitive inner trigger (double-trigger
// bombs, §6), one of three repackaging detection methods (§4.1), a
// user-hostile response (§4.2), and — for weavable sites — the
// original guarded app code, so deleting the bomb corrupts the app
// (§3.4). Bogus bombs dress ordinary conditionals in the same
// clothing.
package core

import (
	"fmt"
	"math/rand"

	"bombdroid/internal/android"
	"bombdroid/internal/cfg"
	"bombdroid/internal/dex"
	"bombdroid/internal/vm"
)

// DetectionMethod selects how a payload checks for repackaging.
type DetectionMethod uint8

// Detection methods (paper §4.1).
const (
	// DetectPublicKey compares getPublicKey() against the embedded
	// original key Ko — the method the paper's prototype implements.
	DetectPublicKey DetectionMethod = iota
	// DetectDigest compares the manifest digest of classes.dex against
	// Do hidden steganographically in strings.xml.
	DetectDigest
	// DetectSnippet hashes a previously finalized method's code and
	// compares against the embedded expected digest (code snippet
	// scanning; detects code modification without any framework call).
	DetectSnippet
	// DetectIcon compares the manifest digests of the icon and author
	// entries against fragments hidden in strings.xml — the paper's
	// "checking whether the app icon and author information have been
	// changed" variant (§4.1), which catches the most common
	// repackaging edit directly.
	DetectIcon
)

// String returns the method name.
func (d DetectionMethod) String() string {
	switch d {
	case DetectPublicKey:
		return "public-key"
	case DetectDigest:
		return "digest"
	case DetectSnippet:
		return "snippet-scan"
	case DetectIcon:
		return "icon-author"
	}
	return "?"
}

// BombSource distinguishes how a bomb came to be.
type BombSource uint8

// Bomb sources.
const (
	SourceExisting   BombSource = iota // built on an existing QC
	SourceArtificial                   // built on an inserted artificial QC
	SourceBogus                        // bogus bomb: original code in bomb clothing
)

// String returns the source name.
func (s BombSource) String() string {
	switch s {
	case SourceExisting:
		return "existing"
	case SourceArtificial:
		return "artificial"
	case SourceBogus:
		return "bogus"
	}
	return "?"
}

// Options configures bomb construction. Zero values select the
// paper's defaults. Everything derived from the input package — its
// profile, its icon and author digests — is the engine's to compute
// and lives on artifacts, not here.
type Options struct {
	Seed int64

	// Alpha is the fraction of candidate methods receiving an
	// artificial qualified condition (paper: α = 0.25).
	Alpha float64
	// HotFrac is the fraction of most-invoked methods, by the profile
	// stage's invocation counts, excluded from instrumentation (paper:
	// top 10%). Negative excludes none; so does a run without
	// profiling.
	HotFrac float64

	// PLo/PHi bound the inner trigger satisfaction probability
	// (paper: [0.1, 0.2]).
	PLo, PHi float64
	// SingleTrigger drops the inner environment condition (§6), giving
	// single-trigger bombs (the ablation baseline). By default every
	// real bomb is double-trigger.
	SingleTrigger bool

	// NoWeave stops moving guarded app code into payloads (§3.4; the
	// ablation baseline). By default liftable regions are woven.
	NoWeave bool
	// BogusFrac is the fraction of remaining weavable QCs turned into
	// bogus bombs.
	BogusFrac float64

	// Detections rotates among these methods; empty means public key
	// only (the paper's prototype). DetectIcon falls back to public-key
	// comparison when the input package carries no icon digest.
	Detections []DetectionMethod
	// Responses rotates among these; empty means the full §4.2 set.
	Responses []vm.ResponseKind
	// DelayResponseMs schedules responses this far in the future
	// instead of firing immediately (0 = immediate).
	DelayResponseMs int64

	// ExistingFrac is the per-method probability of hosting bombs on
	// existing QCs (Table 2's existing counts sit well below Table 1's
	// QC totals — the paper's optimization phase removes costly
	// bombs). Default 0.5.
	ExistingFrac float64
	// MaxBombsPerMethod caps existing-QC bombs per method (0 = 2).
	MaxBombsPerMethod int
	// MaxBombs caps total real bombs (0 = unlimited).
	MaxBombs int

	// GlobalSalt, when set, uses one salt for every bomb instead of a
	// per-bomb salt — the ablation showing why the paper mixes "a
	// unique plaintext salt (for each bomb)" into the hash (§5.1):
	// with a shared salt, equal constants produce equal Hc values and
	// one rainbow table serves every bomb.
	GlobalSalt string

	// MuteAfterFirst implements the paper's §10 future-work idea:
	// "mute other bombs strategically once a bomb is triggered, so
	// that even more bombs can survive". Payloads share a runtime
	// flag; after the first response fires, later-triggered bombs run
	// their woven code but skip detection, denying an attacker's
	// dynamic analysis further bomb locations.
	MuteAfterFirst bool
}

func (o Options) withDefaults() Options {
	if o.Alpha == 0 {
		o.Alpha = 0.25
	}
	if o.HotFrac == 0 {
		o.HotFrac = 0.10
	}
	if o.PLo == 0 && o.PHi == 0 {
		o.PLo, o.PHi = 0.1, 0.2
	}
	if o.BogusFrac == 0 {
		o.BogusFrac = 0.5
	}
	if len(o.Detections) == 0 {
		o.Detections = []DetectionMethod{DetectPublicKey}
	}
	if len(o.Responses) == 0 {
		o.Responses = []vm.ResponseKind{
			vm.RespCrash, vm.RespFreeze, vm.RespLeak, vm.RespWarn, vm.RespReport,
		}
	}
	if o.ExistingFrac == 0 {
		o.ExistingFrac = 0.5
	}
	if o.MaxBombsPerMethod == 0 {
		o.MaxBombsPerMethod = 2
	}
	return o
}

// Bomb is the protector's private record of one injected bomb. None
// of the secret columns (constant, salt, inner condition) appear in
// the protected app; experiments use this record as ground truth.
type Bomb struct {
	ID       string // payload class name ("Bomb<N>")
	Method   string // host method full name
	Source   BombSource
	Strength cfg.Strength
	Const    dex.Value // the trigger constant c
	Salt     string
	BlobIdx  int64
	Inner    android.InnerCond // empty for single-trigger and bogus
	Woven    bool
	Detect   DetectionMethod
	Response vm.ResponseKind
}

// Stats summarizes a protection run.
type Stats struct {
	Methods         int
	HotExcluded     int
	Candidates      int
	ExistingQCs     int // discovered existing QCs in candidate methods
	BombsExisting   int
	BombsArtificial int
	BombsBogus      int
	Woven           int
	InstrBefore     int
	InstrAfter      int
	BlobBytes       int
}

// Bombs returns the number of real (non-bogus) bombs.
func (s Stats) Bombs() int { return s.BombsExisting + s.BombsArtificial }

// Result is a completed protection.
type Result struct {
	File  *dex.File
	Bombs []Bomb
	Stats Stats
	// StegoStrings must be appended to the app's resource strings (in
	// order, at index StegoBase) before signing; digest-comparison
	// payloads extract their hidden fragments from them.
	StegoStrings []string
	StegoBase    int
}

// RealBombs returns the non-bogus bombs.
func (r *Result) RealBombs() []Bomb {
	var out []Bomb
	for _, b := range r.Bombs {
		if b.Source != SourceBogus {
			out = append(out, b)
		}
	}
	return out
}

// BombByBlob maps a blob index back to its bomb.
func (r *Result) BombByBlob(idx int64) *Bomb {
	for i := range r.Bombs {
		if r.Bombs[i].BlobIdx == idx {
			return &r.Bombs[i]
		}
	}
	return nil
}

// pick returns a deterministic element of xs.
func pick[T any](rng *rand.Rand, xs []T) T {
	return xs[rng.Intn(len(xs))]
}

// saltFor derives a fresh per-bomb salt.
func saltFor(rng *rand.Rand, n int) string {
	const digits = "0123456789abcdef"
	b := make([]byte, 12)
	for i := range b {
		b[i] = digits[rng.Intn(16)]
	}
	return fmt.Sprintf("s%d-%s", n, b)
}

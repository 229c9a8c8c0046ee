package vm

import (
	"fmt"
	"sync"

	"bombdroid/internal/apk"
	"bombdroid/internal/dex"
)

// image is the shareable, immutable product of loading one dex blob:
// the linked unit (with its quickened program) plus the static-field
// slot layout and initial values. Installing the same package bytes on
// many devices — the shape of every campaign — reuses one image; each
// VM copies only the mutable static value/set arrays. Everything else
// is read-only after buildImage returns, which is what makes
// cross-goroutine sharing safe (VMs never mutate their file, methods,
// resolved table, or quickened code).
type image struct {
	unit *unit
	// staticIdx maps "Class.Field" to its slot. Declared fields and
	// names referenced by Get/PutStatic all get load-time slots;
	// staticSet distinguishes declared (true) from merely referenced
	// (false), preserving the reference interpreter's map-key-existence
	// semantics (decryptLoad only applies a payload field's initializer
	// when the key did not already exist).
	staticIdx  map[string]int32
	staticInit []dex.Value
	staticSet  []bool
}

// slotFor returns the slot for name, assigning the next one on first
// use, and whether it is declared. Only valid during buildImage;
// afterwards the image is frozen.
func (img *image) slotFor(name string) (int32, bool) {
	if idx, ok := img.staticIdx[name]; ok {
		return idx, img.staticSet[idx]
	}
	idx := int32(len(img.staticInit))
	img.staticIdx[name] = idx
	img.staticInit = append(img.staticInit, dex.Value{})
	img.staticSet = append(img.staticSet, false)
	return idx, false
}

// buildImage links and quickens a decoded file. It performs no
// validation — callers decide how much to trust the input (New runs
// dex.Validate first; the fuzz harness deliberately does not).
func buildImage(file *dex.File) *image {
	u := newUnit(file)
	u.buildResolved(u)
	img := &image{unit: u, staticIdx: make(map[string]int32)}
	// Declared fields first (later duplicate declarations overwrite,
	// matching the old map's semantics), then quickening assigns slots
	// to any additional names Get/PutStatic reference.
	for _, c := range file.Classes {
		for _, fd := range c.Fields {
			idx, _ := img.slotFor(c.Name + "." + fd.Name)
			img.staticInit[idx] = fd.Init
			img.staticSet[idx] = true
		}
	}
	quickenUnit(u, img.slotFor)
	// Number the app's methods for the dense per-VM profile counters.
	i := 0
	for _, qm := range u.q.byName {
		qm.idx = i
		i++
	}
	return img
}

// The process-global image cache, keyed by the sha256 of the dex
// bytes — the content itself, never a manifest or package digest, so a
// tampered package can't alias a stale image. Decode/validate/link/
// quicken then run once per distinct dex blob no matter how many
// devices install it; for a Table 3 campaign that converts the
// dominant per-session cost into a single cache hit.
const imageCacheCap = 64

type imageEntry struct {
	once sync.Once
	img  *image
	err  error
}

var (
	imageMu    sync.Mutex
	imageCache = map[string]*imageEntry{}
	imageLRU   []string // oldest first
)

// loadImage returns the cached image for dexBytes, building it on
// first use. Errors are cached too: a corrupt blob fails every install
// identically without re-decoding. The build runs outside the cache
// lock (per-entry sync.Once), so a slow build never blocks loads of
// other images.
func loadImage(dexBytes []byte) (*image, error) {
	key := apk.DigestHex(dexBytes)
	imageMu.Lock()
	e, ok := imageCache[key]
	if ok {
		// Touch: move key to the back of the eviction order.
		for i, k := range imageLRU {
			if k == key {
				imageLRU = append(append(imageLRU[:i:i], imageLRU[i+1:]...), key)
				break
			}
		}
	} else {
		e = &imageEntry{}
		imageCache[key] = e
		imageLRU = append(imageLRU, key)
		if len(imageLRU) > imageCacheCap {
			delete(imageCache, imageLRU[0])
			imageLRU = imageLRU[1:]
		}
	}
	imageMu.Unlock()
	e.once.Do(func() {
		file, err := dex.Decode(dexBytes)
		if err != nil {
			e.err = fmt.Errorf("vm: bad dex: %w", err)
			return
		}
		if err := dex.Validate(file); err != nil {
			e.err = fmt.Errorf("vm: dex validation: %w", err)
			return
		}
		e.img = buildImage(file)
	})
	return e.img, e.err
}

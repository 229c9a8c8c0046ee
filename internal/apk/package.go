package apk

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"sort"
	"strings"

	"bombdroid/internal/dex"
)

// Manifest is MANIFEST.MF: the per-entry digest table the Android
// system manages after installation. App processes read it (code
// digest comparison, §4.1) but cannot modify it.
type Manifest struct {
	Digests map[string]string // entry name -> hex SHA-256
}

// DigestOf returns the recorded digest of an entry ("" if absent).
func (m Manifest) DigestOf(name string) string { return m.Digests[name] }

// EntryDigest is one manifest row in canonical order.
type EntryDigest struct {
	Entry  string
	Digest string
}

// SortedDigests renders the manifest as a slice sorted by entry name
// — the one canonical order every consumer shares (signing below, the
// market's resource fingerprints), so fingerprint bytes never depend
// on map iteration.
func (m Manifest) SortedDigests() []EntryDigest {
	out := make([]EntryDigest, 0, len(m.Digests))
	for n, d := range m.Digests {
		out = append(out, EntryDigest{Entry: n, Digest: d})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Entry < out[j].Entry })
	return out
}

// canonical renders the manifest deterministically for signing.
func (m Manifest) canonical() []byte {
	var b strings.Builder
	b.WriteString("Manifest-Version: 1.0\n")
	for _, e := range m.SortedDigests() {
		fmt.Fprintf(&b, "Name: %s\nSHA-256-Digest: %s\n", e.Entry, e.Digest)
	}
	return []byte(b.String())
}

// Entry names inside the package.
const (
	EntryDex      = "classes.dex"
	EntryStrings  = "res/strings.xml"
	EntryIcon     = "res/icon.png"
	EntryAuthor   = "res/author.txt"
	EntryManifest = "META-INF/MANIFEST.MF"
	EntryCert     = "META-INF/CERT.RSA"
)

// Unsigned is a built-but-unsigned package: BombDroid's output before
// it goes back to the legitimate developer for signing (paper Fig. 1).
type Unsigned struct {
	Name string
	Dex  []byte
	Res  Resources

	// shipping marks a build that goes on to be signed and packed; see
	// ForShipping.
	shipping bool
}

// Build assembles an unsigned package from a dex file and resources.
func Build(name string, file *dex.File, res Resources) *Unsigned {
	return &Unsigned{Name: name, Dex: dex.Encode(file), Res: res.Clone()}
}

// ForShipping wraps a protected build bound for shipping: the developer
// signs it and packs the result. It takes ownership of dexBytes and
// res. Sign of such a package starts deflating its content entries
// beside the RSA signature, so Pack finds them ready; any other
// Unsigned is deflated by Pack alone.
func ForShipping(name string, dexBytes []byte, res Resources) *Unsigned {
	return &Unsigned{Name: name, Dex: dexBytes, Res: res, shipping: true}
}

// Package is an installed-form APK: content, manifest, certificate.
type Package struct {
	Name     string
	Dex      []byte
	Res      Resources
	Manifest Manifest
	Cert     *Certificate

	// form is the archive form Sign started for a shipping build, nil
	// otherwise. Clone does not carry it.
	form *archiveForm
}

// DigestHex returns the hex SHA-256 of content.
func DigestHex(content []byte) string {
	sum := sha256.Sum256(content)
	return hex.EncodeToString(sum[:])
}

// buildManifest digests every content entry.
func buildManifest(u *Unsigned) Manifest {
	return Manifest{Digests: map[string]string{
		EntryDex:     DigestHex(u.Dex),
		EntryStrings: DigestHex(u.Res.encodeStrings()),
		EntryIcon:    DigestHex(u.Res.Icon),
		EntryAuthor:  DigestHex([]byte(u.Res.Author)),
	}}
}

// Errors returned by Sign and Repackage input validation.
var (
	ErrNilKey       = errors.New("apk: nil signing key")
	ErrEmptyPackage = errors.New("apk: empty package")
)

// Sign produces the final package under the developer's key. For a
// ForShipping build it first snapshots the content entries and starts
// deflating them (startArchiveForm), so the deflate runs beside the
// digests and the RSA signature; the Package carries that pending
// form to Pack. Any other build starts no goroutine.
func Sign(u *Unsigned, key *KeyPair) (*Package, error) {
	if key == nil || key.priv == nil {
		return nil, ErrNilKey
	}
	if u == nil || u.Name == "" || len(u.Dex) == 0 {
		return nil, ErrEmptyPackage
	}
	var form *archiveForm
	if u.shipping {
		form = startArchiveForm(u)
	}
	man := buildManifest(u)
	cert, err := key.certificate(man.canonical())
	if err != nil {
		return nil, err
	}
	return &Package{
		Name:     u.Name,
		Dex:      append([]byte(nil), u.Dex...),
		Res:      u.Res.Clone(),
		Manifest: man,
		Cert:     cert,
		form:     form,
	}, nil
}

// Errors returned by Verify.
var (
	ErrNoCertificate  = errors.New("apk: package carries no certificate")
	ErrDigestMismatch = errors.New("apk: manifest digest mismatch")
)

// Verify performs install-time validation: every manifest digest must
// match the content, and the certificate signature must cover the
// manifest. A package that fails Verify is rejected by the system and
// never reaches a device.
func (p *Package) Verify() error {
	if p.Cert == nil {
		return ErrNoCertificate
	}
	if err := p.CheckDigests(); err != nil {
		return err
	}
	return p.Cert.verify(p.Manifest.canonical())
}

// CheckDigests is Verify's content half: the manifest must list
// exactly the package's entries, each with the digest of its content.
// It returns an error wrapping ErrDigestMismatch otherwise, and never
// looks at the certificate.
func (p *Package) CheckDigests() error {
	want := buildManifest(&Unsigned{Name: p.Name, Dex: p.Dex, Res: p.Res})
	for name, digest := range want.Digests {
		if p.Manifest.DigestOf(name) != digest {
			return fmt.Errorf("%w: %s", ErrDigestMismatch, name)
		}
	}
	if len(p.Manifest.Digests) != len(want.Digests) {
		return fmt.Errorf("%w: entry count", ErrDigestMismatch)
	}
	return nil
}

// PublicKeyHex is the runtime getPublicKey value for this package.
func (p *Package) PublicKeyHex() string {
	if p.Cert == nil {
		return ""
	}
	return p.Cert.PublicKeyHex()
}

// DexFile decodes the package's bytecode.
func (p *Package) DexFile() (*dex.File, error) {
	return dex.Decode(p.Dex)
}

// Clone returns an independent copy.
func (p *Package) Clone() *Package {
	man := Manifest{Digests: make(map[string]string, len(p.Manifest.Digests))}
	for k, v := range p.Manifest.Digests {
		man.Digests[k] = v
	}
	var cert *Certificate
	if p.Cert != nil {
		cert = &Certificate{
			PubDER:    append([]byte(nil), p.Cert.PubDER...),
			Signature: append([]byte(nil), p.Cert.Signature...),
		}
	}
	return &Package{
		Name:     p.Name,
		Dex:      append([]byte(nil), p.Dex...),
		Res:      p.Res.Clone(),
		Manifest: man,
		Cert:     cert,
	}
}

// TotalSize returns the package's content size in bytes — the
// code-size metric denominator for §8.4.
func (p *Package) TotalSize() int {
	return len(p.Dex) + len(p.Res.encodeStrings()) + len(p.Res.Icon) + len(p.Res.Author)
}

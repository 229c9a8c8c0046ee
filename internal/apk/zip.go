package apk

import (
	"archive/zip"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
)

// Pack writes the package as a real zip archive with the standard
// entry layout (classes.dex, res/*, META-INF/*) — the on-disk .apk
// form the command-line tools exchange.
func Pack(p *Package) ([]byte, error) {
	var buf bytes.Buffer
	zw := zip.NewWriter(&buf)

	write := func(name string, content []byte) error {
		w, err := zw.Create(name)
		if err != nil {
			return err
		}
		_, err = w.Write(content)
		return err
	}

	stringsDoc, err := json.Marshal(p.Res.Strings)
	if err != nil {
		return nil, fmt.Errorf("apk: encoding strings: %w", err)
	}
	var cert bytes.Buffer
	if p.Cert != nil {
		if err := p.Cert.encode(&cert); err != nil {
			return nil, fmt.Errorf("apk: encoding certificate: %w", err)
		}
	}
	manifest, err := json.Marshal(p.Manifest.Digests)
	if err != nil {
		return nil, fmt.Errorf("apk: encoding manifest: %w", err)
	}
	meta, err := json.Marshal(map[string]string{"name": p.Name, "author": p.Res.Author})
	if err != nil {
		return nil, fmt.Errorf("apk: encoding metadata: %w", err)
	}

	entries := []struct {
		name    string
		content []byte
	}{
		{EntryDex, p.Dex},
		{EntryStrings, stringsDoc},
		{EntryIcon, p.Res.Icon},
		{entryMeta, meta},
		{EntryManifest, manifest},
		{EntryCert, cert.Bytes()},
	}
	for _, e := range entries {
		if err := write(e.name, e.content); err != nil {
			return nil, fmt.Errorf("apk: writing %s: %w", e.name, err)
		}
	}
	if err := zw.Close(); err != nil {
		return nil, fmt.Errorf("apk: closing archive: %w", err)
	}
	return buf.Bytes(), nil
}

// maxEntryBytes caps the decompressed size of one archive entry. The
// largest entry Pack writes for the corpus, a protected classes.dex, is
// about 240 KB, while DEFLATE expands up to about 1000:1: uncapped, a
// 261 KB archive holding 256 MiB of zeros made Unpack allocate 1.4 GB.
const maxEntryBytes = 16 << 20

// entryMeta holds the package name and author.
const entryMeta = "meta.json"

// packEntries are the archive entries Pack writes and Unpack reads;
// Unpack skips any other.
var packEntries = map[string]bool{
	EntryDex: true, EntryStrings: true, EntryIcon: true, entryMeta: true, EntryManifest: true, EntryCert: true,
}

// Unpack parses an archive produced by Pack. It does not Verify; that
// is the installer's decision, mirroring how apktool unpacks
// regardless of signature state. It refuses an archive that names an
// entry twice or whose entries decompress to more than maxEntryBytes.
func Unpack(data []byte) (*Package, error) {
	return unpack(data, maxEntryBytes)
}

// unpack is Unpack with the entry cap as a parameter.
func unpack(data []byte, maxEntry uint64) (*Package, error) {
	zr, err := zip.NewReader(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		return nil, fmt.Errorf("apk: opening archive: %w", err)
	}
	content := make(map[string][]byte, len(packEntries))
	seen := make(map[string]bool, len(zr.File))
	for _, f := range zr.File {
		if seen[f.Name] {
			return nil, fmt.Errorf("apk: duplicate entry %s", f.Name)
		}
		seen[f.Name] = true
		if !packEntries[f.Name] {
			continue
		}
		b, err := readEntry(f, maxEntry)
		if err != nil {
			return nil, err
		}
		content[f.Name] = b
	}

	p := &Package{Manifest: Manifest{Digests: map[string]string{}}}
	p.Dex = content[EntryDex]
	if p.Dex == nil {
		return nil, fmt.Errorf("apk: archive missing %s", EntryDex)
	}
	if b := content[EntryStrings]; b != nil {
		if err := json.Unmarshal(b, &p.Res.Strings); err != nil {
			return nil, fmt.Errorf("apk: decoding strings: %w", err)
		}
	}
	p.Res.Icon = content[EntryIcon]
	if b := content[entryMeta]; b != nil {
		var meta map[string]string
		if err := json.Unmarshal(b, &meta); err != nil {
			return nil, fmt.Errorf("apk: decoding metadata: %w", err)
		}
		p.Name = meta["name"]
		p.Res.Author = meta["author"]
	}
	if b := content[EntryManifest]; b != nil {
		if err := json.Unmarshal(b, &p.Manifest.Digests); err != nil {
			return nil, fmt.Errorf("apk: decoding manifest: %w", err)
		}
	}
	if b := content[EntryCert]; len(b) > 0 {
		cert, err := decodeCertificate(bytes.NewReader(b))
		if err != nil {
			return nil, err
		}
		p.Cert = cert
	}
	return p, nil
}

// readEntry decompresses one entry of at most maxEntry bytes into a
// buffer of the size its header declares. The zip reader fails an
// entry that yields more bytes than that, so the declared size, once
// checked against the cap, bounds everything the read allocates.
func readEntry(f *zip.File, maxEntry uint64) ([]byte, error) {
	if f.UncompressedSize64 > maxEntry {
		return nil, fmt.Errorf("apk: %s: %d bytes exceed the %d-byte entry cap", f.Name, f.UncompressedSize64, maxEntry)
	}
	rc, err := f.Open()
	if err != nil {
		return nil, fmt.Errorf("apk: opening %s: %w", f.Name, err)
	}
	defer rc.Close()
	b := make([]byte, f.UncompressedSize64)
	if _, err := io.ReadFull(rc, b); err != nil {
		return nil, fmt.Errorf("apk: reading %s: %w", f.Name, err)
	}
	// Read on to EOF, where the zip reader checks the size and CRC.
	if _, err := io.Copy(io.Discard, rc); err != nil {
		return nil, fmt.Errorf("apk: reading %s: %w", f.Name, err)
	}
	return b, nil
}

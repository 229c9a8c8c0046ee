package apk

import (
	"archive/zip"
	"bytes"
	"compress/flate"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"sync"
)

// Pack writes the package as a real zip archive with the standard
// entry layout (classes.dex, res/*, META-INF/*) — the on-disk .apk
// form the command-line tools exchange. Every entry goes through one
// raw write path from its archive form (entryForm). A content entry
// whose form Sign prepared is taken from it if its content still
// equals the snapshot the form was deflated from; every other entry is
// deflated here. The bytes equal those archive/zip's Create writes.
func Pack(p *Package) ([]byte, error) {
	entries, err := archiveEntries(p)
	var forms [len(entries)]entryForm
	if err == nil {
		// The manifest and certificate exist only once the package is
		// signed: deflate them while the form's goroutines finish.
		for i := formEntries; i < len(entries); i++ {
			forms[i] = deflateEntry(entries[i].content)
		}
	}
	p.form.join(entries[:formEntries], forms[:formEntries])
	if err != nil {
		return nil, err
	}

	var size int
	for i, e := range entries {
		if forms[i].deflated == nil {
			forms[i] = deflateEntry(e.content)
		}
		size += len(forms[i].deflated) + 2*len(e.name) + 128
	}
	buf := bytes.NewBuffer(make([]byte, 0, size))
	zw := zip.NewWriter(buf)
	for i, e := range entries {
		if err := writeEntry(zw, e.name, forms[i]); err != nil {
			return nil, fmt.Errorf("apk: writing %s: %w", e.name, err)
		}
	}
	if err := zw.Close(); err != nil {
		return nil, fmt.Errorf("apk: closing archive: %w", err)
	}
	return buf.Bytes(), nil
}

// archiveEntry is one entry of a packed archive: its name and content.
type archiveEntry struct {
	name    string
	content []byte
}

// formEntries is how many of archiveEntries' leading entries an
// archive form prepares: classes.dex, the strings document, the icon
// and meta.json, whose content Sign knows before it signs.
const formEntries = 4

// archiveEntries renders the package's six archive entries in the
// order Pack writes them: the form entries, in archiveForm's order,
// then the manifest and the certificate.
func archiveEntries(p *Package) (entries [6]archiveEntry, err error) {
	stringsDoc, err := json.Marshal(p.Res.Strings)
	if err != nil {
		return entries, fmt.Errorf("apk: encoding strings: %w", err)
	}
	var cert bytes.Buffer
	if p.Cert != nil {
		if err := p.Cert.encode(&cert); err != nil {
			return entries, fmt.Errorf("apk: encoding certificate: %w", err)
		}
	}
	manifest, err := json.Marshal(p.Manifest.Digests)
	if err != nil {
		return entries, fmt.Errorf("apk: encoding manifest: %w", err)
	}
	meta, err := encodeMeta(p.Name, p.Res.Author)
	if err != nil {
		return entries, err
	}
	return [6]archiveEntry{
		{EntryDex, p.Dex},
		{EntryStrings, stringsDoc},
		{EntryIcon, p.Res.Icon},
		{entryMeta, meta},
		{EntryManifest, manifest},
		{EntryCert, cert.Bytes()},
	}, nil
}

// encodeMeta renders meta.json.
func encodeMeta(name, author string) ([]byte, error) {
	meta, err := json.Marshal(map[string]string{"name": name, "author": author})
	if err != nil {
		return nil, fmt.Errorf("apk: encoding metadata: %w", err)
	}
	return meta, nil
}

// entryForm is an archive entry's stored form: its DEFLATE stream, and
// the CRC-32 and length of its content.
type entryForm struct {
	deflated []byte
	crc      uint32
	size     uint64
}

// flateWriters pools level-5 DEFLATE writers, the level archive/zip's
// Create uses, so deflateEntry's streams are the bytes Create writes.
var flateWriters = sync.Pool{New: func() any {
	fw, _ := flate.NewWriter(io.Discard, 5) // only an invalid level fails
	return fw
}}

// deflateEntry returns content's archive form. It is never nil:
// DEFLATE ends even an empty stream with a final block.
func deflateEntry(content []byte) entryForm {
	var buf bytes.Buffer
	fw := flateWriters.Get().(*flate.Writer)
	fw.Reset(&buf)
	// Neither call can fail: a bytes.Buffer never refuses a write.
	fw.Write(content)
	fw.Close()
	flateWriters.Put(fw)
	return entryForm{deflated: buf.Bytes(), crc: crc32.ChecksumIEEE(content), size: uint64(len(content))}
}

// writeEntry writes one entry from its archive form with the header
// Create writes: method Deflate, a data descriptor after the data
// (flag 0x8), version 2.0 and a zero modification time.
func writeEntry(zw *zip.Writer, name string, f entryForm) error {
	w, err := zw.CreateRaw(&zip.FileHeader{
		Name:               name,
		Method:             zip.Deflate,
		Flags:              0x8,
		CreatorVersion:     20,
		ReaderVersion:      20,
		CRC32:              f.crc,
		CompressedSize64:   uint64(len(f.deflated)),
		UncompressedSize64: f.size,
	})
	if err != nil {
		return err
	}
	_, err = w.Write(f.deflated)
	return err
}

// archiveForm is the archive form of a shipping build's content
// entries, deflated beside its signature. Sign snapshots the entries
// and starts it; Pack joins it. It is started nowhere else: an engine
// build may never be signed, and a signed original may never be
// packed, so starting it earlier or for every Sign would spend a
// deflate on work nobody packs.
type archiveForm struct {
	wg    sync.WaitGroup
	src   [formEntries][]byte // the snapshot each form was deflated from
	forms [formEntries]entryForm
}

// startArchiveForm snapshots u's content entries and deflates them on
// two goroutines: one for classes.dex, by far the largest, and one for
// the strings document, the icon and meta.json. Neither outlives its
// deflate, whether or not the package is ever packed. Content that
// does not encode gets no form: Pack then deflates the entries, or
// reports the error, itself.
func startArchiveForm(u *Unsigned) *archiveForm {
	stringsDoc, err := json.Marshal(u.Res.Strings)
	if err != nil {
		return nil
	}
	meta, err := encodeMeta(u.Name, u.Res.Author)
	if err != nil {
		return nil
	}
	f := &archiveForm{src: [formEntries][]byte{
		append([]byte(nil), u.Dex...),
		stringsDoc,
		append([]byte(nil), u.Res.Icon...),
		meta,
	}}
	f.wg.Add(2)
	go func() {
		defer f.wg.Done()
		f.forms[0] = deflateEntry(f.src[0])
	}()
	go func() {
		defer f.wg.Done()
		for i := 1; i < formEntries; i++ {
			f.forms[i] = deflateEntry(f.src[i])
		}
	}()
	return f
}

// join waits for the form's goroutines and copies into forms the form
// of each entry whose content equals its snapshot, leaving the others
// as they are. A nil form has nothing to join.
func (f *archiveForm) join(entries []archiveEntry, forms []entryForm) {
	if f == nil {
		return
	}
	f.wg.Wait()
	for i, e := range entries {
		if bytes.Equal(f.src[i], e.content) {
			forms[i] = f.forms[i]
		}
	}
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

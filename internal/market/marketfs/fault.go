package marketfs

import (
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math/rand"
	"path/filepath"
	"sort"
	"sync"

	"bombdroid/internal/chaos"
)

var (
	// ErrCrashed is returned by every operation on a Fault FS after its
	// crash-point fired, until Recover resolves what survived.
	ErrCrashed = errors.New("marketfs: simulated machine crash")
	// ErrNoSpace is the injected hard write failure (ENOSPC-style):
	// the write applied nothing.
	ErrNoSpace = errors.New("marketfs: injected no space left on device")
	// ErrShortWrite is the injected torn write: only a prefix of the
	// buffer was applied before the error.
	ErrShortWrite = errors.New("marketfs: injected short write")
	// ErrFsync is the injected fsync failure: durability did not
	// advance, and (as on real disks) the written data's fate at the
	// next crash is unknown.
	ErrFsync = errors.New("marketfs: injected fsync failure")
)

// Fault is an in-memory filesystem that models what a real disk
// guarantees — and, more importantly, what it does not:
//
//   - file content is durable only up to the last successful Sync;
//     bytes written after it survive a crash as an arbitrary prefix
//     (the torn write);
//   - namespace changes (create, rename, remove) are durable only
//     after SyncDir on the parent; at a crash, an arbitrary prefix of
//     the directory's pending operations has reached the journal —
//     so a rename is atomic (old name or new name, never both, never
//     a mix) but not necessarily durable;
//   - probabilistic faults drawn from a chaos.Profile (FsWriteFail,
//     FsShortWrite, FsSyncFail via a chaos.Injector) hit individual
//     operations without crashing the machine — the degraded-mode
//     diet;
//   - a crash-point (CrashAfter / Crash) freezes the disk mid-flight:
//     the triggering operation is partially applied, every later call
//     returns ErrCrashed, and Recover resolves the surviving state so
//     the store can be reopened against exactly what a power loss
//     would have left.
//
// All decisions draw from seeded rngs, so a torture run is
// reproducible from its seed.
type Fault struct {
	mu      sync.Mutex
	inj     *chaos.Injector
	rng     *rand.Rand
	filter  func(path string) bool
	live    map[string]*memFile // namespace as the running process sees it
	durable map[string]*memFile // entries whose existence survives a crash
	pending map[string][]dirOp  // parent dir → ordered not-yet-durable ops
	dirs    map[string]bool
	epoch   int // bumped by Recover; stale handles fail
	crashed bool
	crashAt int64 // absolute op count that triggers the crash; 0 = disarmed
	ops     int64
	hang    chan struct{} // when non-nil, writes block until it closes
}

// NewFault builds a fault FS. inj supplies the probabilistic
// per-operation faults (nil injects none); seed drives crash-point
// resolution (which prefix of unsynced state survives).
func NewFault(inj *chaos.Injector, seed int64) *Fault {
	return &Fault{
		inj:     inj,
		rng:     rand.New(rand.NewSource(seed)),
		live:    make(map[string]*memFile),
		durable: make(map[string]*memFile),
		pending: make(map[string][]dirOp),
		dirs:    make(map[string]bool),
	}
}

// SetFilter scopes the probabilistic faults to paths f accepts (nil
// means all paths). Crash-points are machine-wide and ignore it.
func (fa *Fault) SetFilter(f func(path string) bool) {
	fa.mu.Lock()
	defer fa.mu.Unlock()
	fa.filter = f
}

// SetHang makes every Write block until SetHang(false) — the wedged
// disk that drain deadlines exist for.
func (fa *Fault) SetHang(on bool) {
	fa.mu.Lock()
	defer fa.mu.Unlock()
	if on && fa.hang == nil {
		fa.hang = make(chan struct{})
	}
	if !on && fa.hang != nil {
		close(fa.hang)
		fa.hang = nil
	}
}

// CrashAfter arms the crash-point n mutating operations from now.
func (fa *Fault) CrashAfter(n int64) {
	fa.mu.Lock()
	defer fa.mu.Unlock()
	fa.crashAt = fa.ops + n
}

// Crash triggers the crash immediately.
func (fa *Fault) Crash() {
	fa.mu.Lock()
	defer fa.mu.Unlock()
	fa.crashed = true
}

// Crashed reports whether the crash-point has fired.
func (fa *Fault) Crashed() bool {
	fa.mu.Lock()
	defer fa.mu.Unlock()
	return fa.crashed
}

// Recover resolves the post-crash disk: for every directory an
// rng-chosen prefix of its pending namespace ops has survived, and
// for every surviving file its synced content plus an rng-chosen
// (possibly torn) prefix of its unsynced writes. The FS then behaves
// like a freshly mounted disk; handles opened before the crash stay
// dead. No-op if no crash fired.
func (fa *Fault) Recover() {
	fa.mu.Lock()
	defer fa.mu.Unlock()
	if !fa.crashed {
		return
	}
	for _, dir := range sortedKeys(fa.pending) {
		ops := fa.pending[dir]
		applyDirOps(fa.durable, ops[:fa.rng.Intn(len(ops)+1)])
	}
	fa.pending = make(map[string][]dirOp)
	seen := make(map[*memFile]bool)
	for _, name := range sortedKeys(fa.durable) {
		f := fa.durable[name]
		if seen[f] {
			continue
		}
		seen[f] = true
		content := append([]byte(nil), f.stable...)
		k := fa.rng.Intn(len(f.ops) + 1)
		for i := 0; i < k; i++ {
			content = f.ops[i].apply(content)
		}
		if k < len(f.ops) && f.ops[k].data != nil {
			// The next unsynced append may have partially reached the
			// platter: the torn write.
			if n := fa.rng.Intn(len(f.ops[k].data) + 1); n > 0 {
				content = append(content, f.ops[k].data[:n]...)
			}
		}
		f.stable = content
		f.live = append([]byte(nil), content...)
		f.ops = nil
	}
	fa.live = make(map[string]*memFile, len(fa.durable))
	for name, f := range fa.durable {
		fa.live[name] = f
	}
	fa.crashed = false
	fa.crashAt = 0
	fa.epoch++
}

// sortedKeys keeps rng consumption deterministic across map iteration
// order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// memOp is one unsynced content mutation: an append (data non-nil) or
// a truncation to size.
type memOp struct {
	data []byte
	size int64
}

func (op memOp) apply(content []byte) []byte {
	if op.data != nil {
		return append(content, op.data...)
	}
	if op.size < int64(len(content)) {
		return content[:op.size]
	}
	return content
}

type memFile struct {
	stable []byte // survives a crash (if the dir entry does)
	live   []byte // what the running process reads
	ops    []memOp
}

const (
	dirCreate = iota
	dirRename
	dirRemove
)

type dirOp struct {
	kind     int
	name, to string
	f        *memFile
}

func applyDirOps(ns map[string]*memFile, ops []dirOp) {
	for _, op := range ops {
		switch op.kind {
		case dirCreate:
			ns[op.name] = op.f
		case dirRename:
			if f, ok := ns[op.name]; ok {
				ns[op.to] = f
				delete(ns, op.name)
			}
		case dirRemove:
			delete(ns, op.name)
		}
	}
}

// faulty reports whether probabilistic faults apply to path.
func (fa *Fault) faulty(path string) bool {
	return fa.inj != nil && (fa.filter == nil || fa.filter(path))
}

// countOp advances the mutation counter and fires the armed
// crash-point. It returns true when THIS operation is the one the
// machine dies on — the caller decides how much of it applied.
func (fa *Fault) countOp() bool {
	fa.ops++
	if fa.crashAt > 0 && fa.ops >= fa.crashAt {
		fa.crashed = true
		return true
	}
	return false
}

// pendDir records a namespace op: applied to the live view at once,
// durable only after SyncDir (or by luck at crash resolution).
func (fa *Fault) pendDir(op dirOp) {
	dir := filepath.Dir(op.name)
	fa.pending[dir] = append(fa.pending[dir], op)
}

// MkdirAll implements FS. Directories are immediately durable — the
// store creates its tree once, before any data it must not lose.
func (fa *Fault) MkdirAll(dir string) error {
	fa.mu.Lock()
	defer fa.mu.Unlock()
	if fa.crashed {
		return ErrCrashed
	}
	for d := dir; d != "." && d != "/" && d != ""; d = filepath.Dir(d) {
		fa.dirs[d] = true
	}
	return nil
}

// Open implements FS.
func (fa *Fault) Open(name string) (File, error) {
	fa.mu.Lock()
	defer fa.mu.Unlock()
	if fa.crashed {
		return nil, ErrCrashed
	}
	f, ok := fa.live[name]
	if !ok {
		return nil, &fs.PathError{Op: "open", Path: name, Err: fs.ErrNotExist}
	}
	return &faultFile{fs: fa, name: name, f: f, epoch: fa.epoch}, nil
}

// OpenAppend implements FS.
func (fa *Fault) OpenAppend(name string) (File, error) {
	fa.mu.Lock()
	defer fa.mu.Unlock()
	if fa.crashed {
		return nil, ErrCrashed
	}
	f, ok := fa.live[name]
	if !ok {
		if fa.countOp() {
			return nil, ErrCrashed
		}
		f = &memFile{}
		fa.live[name] = f
		fa.pendDir(dirOp{kind: dirCreate, name: name, f: f})
	}
	return &faultFile{fs: fa, name: name, f: f, epoch: fa.epoch, append: true}, nil
}

// Create implements FS.
func (fa *Fault) Create(name string) (File, error) {
	fa.mu.Lock()
	defer fa.mu.Unlock()
	if fa.crashed {
		return nil, ErrCrashed
	}
	if fa.countOp() {
		return nil, ErrCrashed
	}
	f, ok := fa.live[name]
	if ok {
		f.live = nil
		f.ops = append(f.ops, memOp{size: 0})
	} else {
		f = &memFile{}
		fa.live[name] = f
		fa.pendDir(dirOp{kind: dirCreate, name: name, f: f})
	}
	return &faultFile{fs: fa, name: name, f: f, epoch: fa.epoch, append: true}, nil
}

// ReadFile implements FS.
func (fa *Fault) ReadFile(name string) ([]byte, error) {
	fa.mu.Lock()
	defer fa.mu.Unlock()
	if fa.crashed {
		return nil, ErrCrashed
	}
	f, ok := fa.live[name]
	if !ok {
		return nil, &fs.PathError{Op: "read", Path: name, Err: fs.ErrNotExist}
	}
	return append([]byte(nil), f.live...), nil
}

// WriteFile implements FS: create-or-truncate plus one unsynced
// write, like os.WriteFile.
func (fa *Fault) WriteFile(name string, data []byte) error {
	fa.mu.Lock()
	defer fa.mu.Unlock()
	if fa.crashed {
		return ErrCrashed
	}
	if fa.countOp() {
		return ErrCrashed
	}
	f, ok := fa.live[name]
	if !ok {
		f = &memFile{}
		fa.live[name] = f
		fa.pendDir(dirOp{kind: dirCreate, name: name, f: f})
	} else {
		f.live = nil
		f.ops = append(f.ops, memOp{size: 0})
	}
	f.live = append(f.live, data...)
	f.ops = append(f.ops, memOp{data: append([]byte(nil), data...)})
	return nil
}

// Rename implements FS.
func (fa *Fault) Rename(oldname, newname string) error {
	fa.mu.Lock()
	defer fa.mu.Unlock()
	if fa.crashed {
		return ErrCrashed
	}
	f, ok := fa.live[oldname]
	if !ok {
		return &fs.PathError{Op: "rename", Path: oldname, Err: fs.ErrNotExist}
	}
	if fa.countOp() {
		// The rename itself is atomic even at the crash instant: it
		// either entered the journal (pending, resolved by Recover) or
		// it did not — a coin, never a half-rename.
		if fa.rng.Intn(2) == 0 {
			fa.pendDir(dirOp{kind: dirRename, name: oldname, to: newname})
		}
		return ErrCrashed
	}
	delete(fa.live, oldname)
	fa.live[newname] = f
	fa.pendDir(dirOp{kind: dirRename, name: oldname, to: newname})
	return nil
}

// Remove implements FS.
func (fa *Fault) Remove(name string) error {
	fa.mu.Lock()
	defer fa.mu.Unlock()
	if fa.crashed {
		return ErrCrashed
	}
	if _, ok := fa.live[name]; !ok {
		return &fs.PathError{Op: "remove", Path: name, Err: fs.ErrNotExist}
	}
	if fa.countOp() {
		if fa.rng.Intn(2) == 0 {
			fa.pendDir(dirOp{kind: dirRemove, name: name})
		}
		return ErrCrashed
	}
	delete(fa.live, name)
	fa.pendDir(dirOp{kind: dirRemove, name: name})
	return nil
}

// Glob implements FS.
func (fa *Fault) Glob(dir, pattern string) ([]string, error) {
	fa.mu.Lock()
	defer fa.mu.Unlock()
	if fa.crashed {
		return nil, ErrCrashed
	}
	var names []string
	for name := range fa.live {
		if filepath.Dir(name) != dir {
			continue
		}
		ok, err := filepath.Match(pattern, filepath.Base(name))
		if err != nil {
			return nil, err
		}
		if ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	return names, nil
}

// SyncDir implements FS: commits dir's pending namespace ops, in
// order, to the durable view.
func (fa *Fault) SyncDir(dir string) error {
	fa.mu.Lock()
	defer fa.mu.Unlock()
	if fa.crashed {
		return ErrCrashed
	}
	if fa.countOp() {
		// The journal commit raced the crash: a prefix made it.
		ops := fa.pending[dir]
		k := fa.rng.Intn(len(ops) + 1)
		applyDirOps(fa.durable, ops[:k])
		fa.pending[dir] = ops[k:]
		return ErrCrashed
	}
	if fa.faulty(dir) && fa.inj.Hit(fa.inj.P.FsSyncFail, "fs-sync-fail") {
		return fmt.Errorf("%w: %s", ErrFsync, dir)
	}
	applyDirOps(fa.durable, fa.pending[dir])
	delete(fa.pending, dir)
	return nil
}

var _ FS = (*Fault)(nil)

// faultFile is one handle on the fault FS. A Recover kills it: the
// epoch check makes every later call fail like a vanished device.
type faultFile struct {
	fs     *Fault
	name   string
	f      *memFile
	epoch  int
	pos    int64
	append bool
}

func (h *faultFile) check() error {
	if h.fs.crashed || h.epoch != h.fs.epoch {
		return ErrCrashed
	}
	return nil
}

func (h *faultFile) Read(p []byte) (int, error) {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	if err := h.check(); err != nil {
		return 0, err
	}
	if h.pos >= int64(len(h.f.live)) {
		return 0, io.EOF
	}
	n := copy(p, h.f.live[h.pos:])
	h.pos += int64(n)
	return n, nil
}

func (h *faultFile) Write(p []byte) (int, error) {
	h.fs.mu.Lock()
	gate := h.fs.hang
	h.fs.mu.Unlock()
	if gate != nil {
		<-gate // the wedged disk: blocks until SetHang(false)
	}
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	if err := h.check(); err != nil {
		return 0, err
	}
	if h.fs.countOp() {
		// Machine dies mid-write: an arbitrary prefix reached the
		// in-flight state (Recover may tear it further).
		if n := h.fs.rng.Intn(len(p) + 1); n > 0 {
			h.apply(p[:n])
		}
		return 0, ErrCrashed
	}
	if h.fs.faulty(h.name) {
		if h.fs.inj.Hit(h.fs.inj.P.FsWriteFail, "fs-write-fail") {
			return 0, fmt.Errorf("%w: %s", ErrNoSpace, h.name)
		}
		if h.fs.inj.Hit(h.fs.inj.P.FsShortWrite, "fs-short-write") {
			n := h.fs.rng.Intn(len(p))
			h.apply(p[:n])
			return n, fmt.Errorf("%w: %s: %d of %d bytes", ErrShortWrite, h.name, n, len(p))
		}
	}
	h.apply(p)
	return len(p), nil
}

// apply appends bytes to the live content and the unsynced op log.
// All store writes are sequential (WAL appends, checkpoint temp
// streams), so append is the only write shape the model needs.
func (h *faultFile) apply(p []byte) {
	b := append([]byte(nil), p...)
	h.f.live = append(h.f.live, b...)
	h.f.ops = append(h.f.ops, memOp{data: b})
}

func (h *faultFile) Seek(offset int64, whence int) (int64, error) {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	if err := h.check(); err != nil {
		return 0, err
	}
	switch whence {
	case io.SeekStart:
		h.pos = offset
	case io.SeekCurrent:
		h.pos += offset
	case io.SeekEnd:
		h.pos = int64(len(h.f.live)) + offset
	}
	if h.pos < 0 {
		h.pos = 0
	}
	return h.pos, nil
}

func (h *faultFile) Truncate(size int64) error {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	if err := h.check(); err != nil {
		return err
	}
	if h.fs.countOp() {
		if h.fs.rng.Intn(2) == 0 {
			h.f.live = memOp{size: size}.apply(h.f.live)
			h.f.ops = append(h.f.ops, memOp{size: size})
		}
		return ErrCrashed
	}
	h.f.live = memOp{size: size}.apply(h.f.live)
	h.f.ops = append(h.f.ops, memOp{size: size})
	return nil
}

func (h *faultFile) Sync() error {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	if err := h.check(); err != nil {
		return err
	}
	if h.fs.countOp() {
		// Crash during fsync: the flush raced the failure — a coin
		// whether it completed first.
		if h.fs.rng.Intn(2) == 0 {
			h.f.stable = append([]byte(nil), h.f.live...)
			h.f.ops = nil
		}
		return ErrCrashed
	}
	if h.fs.faulty(h.name) && h.fs.inj.Hit(h.fs.inj.P.FsSyncFail, "fs-sync-fail") {
		return fmt.Errorf("%w: %s", ErrFsync, h.name)
	}
	h.f.stable = append([]byte(nil), h.f.live...)
	h.f.ops = nil
	return nil
}

func (h *faultFile) Size() (int64, error) {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	if err := h.check(); err != nil {
		return 0, err
	}
	return int64(len(h.f.live)), nil
}

func (h *faultFile) Close() error {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	// Closing a dead handle is fine; the data's fate was already
	// decided.
	return nil
}

package iofault

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// ErrCrashed is returned by every operation on a MemFS after the
// simulated crash point has been reached.
var ErrCrashed = errors.New("iofault: simulated crash")

// ErrNoSpace simulates ENOSPC.
var ErrNoSpace = errors.New("iofault: no space left on device")

// OpKind identifies one class of filesystem operation for fault targeting.
type OpKind int

// The injectable operation kinds. OpAny matches every kind.
const (
	OpAny OpKind = iota
	OpCreate
	OpOpen
	OpWrite
	OpSync
	OpClose
	OpRename
	OpRemove
	OpSyncDir
)

func (k OpKind) String() string {
	switch k {
	case OpAny:
		return "any"
	case OpCreate:
		return "create"
	case OpOpen:
		return "open"
	case OpWrite:
		return "write"
	case OpSync:
		return "sync"
	case OpClose:
		return "close"
	case OpRename:
		return "rename"
	case OpRemove:
		return "remove"
	case OpSyncDir:
		return "syncdir"
	}
	return fmt.Sprintf("OpKind(%d)", int(k))
}

// inode is one file's content, split into the page-cache view (what reads
// and writes touch) and the durable view (what survives a crash; updated
// only by Sync).
type inode struct {
	cache []byte
	disk  []byte
}

// fault is one scheduled injection.
type fault struct {
	kind OpKind
	n    int // fires on the n-th (0-based) op of kind
	err  error
	keep int // OpWrite: bytes applied before failing; -1 = all
	flip int // OpWrite: bit index to flip in the applied bytes; -1 = none
}

// MemFS is an in-memory FS with explicit page-cache durability semantics
// and targeted fault injection. The zero value is not usable; call NewMem.
//
// Durability model (the adversarial one a crash-safe protocol must
// survive):
//
//   - Write updates only the cached content. File Sync copies the cached
//     content to the durable content.
//   - CreateTemp, Rename and Remove update only the cached directory.
//     SyncDir copies the cached directory (for that directory) to the
//     durable directory, pointing entries at their inodes as-is — so a
//     rename made durable before the file's data was synced exposes the
//     stale (possibly empty) durable content, exactly the torn state
//     fsync-before-rename exists to prevent.
//   - Crash (or reaching the CrashAtSeq point) discards every cached
//     state; Recover rebuilds the cache from the durable state.
type MemFS struct {
	mu        sync.Mutex
	cacheDir  map[string]*inode
	diskDir   map[string]*inode
	seq       int // global op counter
	kindCount map[OpKind]int
	faults    []fault
	crashAt   int // global seq that triggers the crash; -1 = never
	crashed   bool
	tempSeq   int
}

// NewMem creates an empty in-memory filesystem.
func NewMem() *MemFS {
	return &MemFS{
		cacheDir:  make(map[string]*inode),
		diskDir:   make(map[string]*inode),
		kindCount: make(map[OpKind]int),
		crashAt:   -1,
	}
}

// FailAt schedules the n-th (0-based) operation of the given kind to fail
// with err, with no effect applied (for OpWrite: a short write of zero
// bytes).
func (m *MemFS) FailAt(kind OpKind, n int, err error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.faults = append(m.faults, fault{kind: kind, n: n, err: err, keep: 0, flip: -1})
}

// TornWriteAt schedules the n-th write to apply only the first keep bytes
// of its payload and then fail with err — a torn write.
func (m *MemFS) TornWriteAt(n, keep int, err error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.faults = append(m.faults, fault{kind: OpWrite, n: n, err: err, keep: keep, flip: -1})
}

// FlipBitAt schedules the n-th write to succeed but with the given bit
// (bit index into the payload: byte*8 + bit) inverted — silent in-flight
// corruption that only checksums can catch.
func (m *MemFS) FlipBitAt(n, bit int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.faults = append(m.faults, fault{kind: OpWrite, n: n, keep: -1, flip: bit})
}

// CrashAtSeq schedules a crash at global operation number seq (0-based):
// that operation and every later one fail with ErrCrashed, and all cached
// (un-synced) state is discarded, as a power loss would. Recover restores
// service from the durable state.
func (m *MemFS) CrashAtSeq(seq int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.crashAt = seq
}

// Crash immediately discards all cached state and fails every subsequent
// operation until Recover.
func (m *MemFS) Crash() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.crashLocked()
}

func (m *MemFS) crashLocked() {
	m.crashed = true
	// Drop the page cache: the only reachable state is the durable
	// directory pointing at durable content.
	for _, ino := range m.diskDir {
		ino.cache = append([]byte(nil), ino.disk...)
	}
	m.cacheDir = make(map[string]*inode, len(m.diskDir))
	for name, ino := range m.diskDir {
		m.cacheDir[name] = ino
	}
}

// Recover brings a crashed MemFS back into service ("reboot"): the cache
// is the durable state, scheduled faults and the crash point are cleared.
func (m *MemFS) Recover() {
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.crashed {
		m.crashLocked()
	}
	m.crashed = false
	m.crashAt = -1
	m.faults = nil
}

// Seq returns the number of operations performed so far — run a protocol
// once fault-free to learn how many crash points a replay must cover.
func (m *MemFS) Seq() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.seq
}

// KindCount returns how many operations of the given kind have run — the
// per-kind fault-point count for targeted injection.
func (m *MemFS) KindCount(kind OpKind) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.kindCount[kind]
}

// Clone deep-copies the filesystem state (content, durability split, op
// counters reset; no faults scheduled) so replay harnesses can re-run a
// protocol from an identical baseline.
func (m *MemFS) Clone() *MemFS {
	m.mu.Lock()
	defer m.mu.Unlock()
	c := NewMem()
	inodes := make(map[*inode]*inode)
	cp := func(ino *inode) *inode {
		if dup, ok := inodes[ino]; ok {
			return dup
		}
		dup := &inode{
			cache: append([]byte(nil), ino.cache...),
			disk:  append([]byte(nil), ino.disk...),
		}
		inodes[ino] = dup
		return dup
	}
	for name, ino := range m.cacheDir {
		c.cacheDir[name] = cp(ino)
	}
	for name, ino := range m.diskDir {
		c.diskDir[name] = cp(ino)
	}
	c.tempSeq = m.tempSeq
	return c
}

// CacheNames lists the cached (pre-crash view) directory entries, sorted.
func (m *MemFS) CacheNames() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	names := make([]string, 0, len(m.cacheDir))
	for name := range m.cacheDir {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// op charges one operation against the crash point and the scheduled
// faults. It returns the fault matched (if any) and an error to inject.
// Callers must hold m.mu.
func (m *MemFS) opLocked(kind OpKind) (fault, error) {
	none := fault{keep: -1, flip: -1}
	if m.crashed {
		return none, ErrCrashed
	}
	seq := m.seq
	m.seq++
	if m.crashAt >= 0 && seq >= m.crashAt {
		m.crashLocked()
		return none, ErrCrashed
	}
	kn := m.kindCount[kind]
	m.kindCount[kind]++
	for _, f := range m.faults {
		if f.kind != OpAny && f.kind != kind {
			continue
		}
		n := kn
		if f.kind == OpAny {
			n = seq
		}
		if f.n != n {
			continue
		}
		return f, f.err
	}
	return none, nil
}

// CreateTemp implements FS.
func (m *MemFS) CreateTemp(dir, pattern string) (File, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, err := m.opLocked(OpCreate); err != nil {
		return nil, err
	}
	m.tempSeq++
	base := strings.ReplaceAll(pattern, "*", fmt.Sprintf("%09d", m.tempSeq))
	if base == pattern { // no wildcard: suffix, as os.CreateTemp does
		base = pattern + fmt.Sprintf("%09d", m.tempSeq)
	}
	name := filepath.Join(dir, base)
	if _, exists := m.cacheDir[name]; exists {
		return nil, fmt.Errorf("iofault: temp name collision at %s", name)
	}
	ino := &inode{}
	m.cacheDir[name] = ino
	return &memFile{fs: m, name: name, ino: ino, writable: true}, nil
}

// Open implements FS.
func (m *MemFS) Open(name string) (File, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, err := m.opLocked(OpOpen); err != nil {
		return nil, err
	}
	ino, ok := m.cacheDir[name]
	if !ok {
		return nil, &os.PathError{Op: "open", Path: name, Err: os.ErrNotExist}
	}
	return &memFile{fs: m, name: name, ino: ino}, nil
}

// Rename implements FS: atomic in the cached directory, durable only
// after SyncDir.
func (m *MemFS) Rename(oldpath, newpath string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, err := m.opLocked(OpRename); err != nil {
		return err
	}
	ino, ok := m.cacheDir[oldpath]
	if !ok {
		return &os.PathError{Op: "rename", Path: oldpath, Err: os.ErrNotExist}
	}
	delete(m.cacheDir, oldpath)
	m.cacheDir[newpath] = ino
	return nil
}

// Remove implements FS.
func (m *MemFS) Remove(name string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, err := m.opLocked(OpRemove); err != nil {
		return err
	}
	if _, ok := m.cacheDir[name]; !ok {
		return &os.PathError{Op: "remove", Path: name, Err: os.ErrNotExist}
	}
	delete(m.cacheDir, name)
	return nil
}

// SyncDir implements FS: the cached directory entries under dir become
// the durable ones.
func (m *MemFS) SyncDir(dir string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, err := m.opLocked(OpSyncDir); err != nil {
		return err
	}
	dir = filepath.Clean(dir)
	for name := range m.diskDir {
		if filepath.Dir(name) == dir {
			delete(m.diskDir, name)
		}
	}
	for name, ino := range m.cacheDir {
		if filepath.Dir(name) == dir {
			m.diskDir[name] = ino
		}
	}
	return nil
}

// memFile is one open handle on a MemFS inode.
type memFile struct {
	fs       *MemFS
	name     string
	ino      *inode
	pos      int
	writable bool
	closed   bool
}

func (f *memFile) Name() string { return f.name }

func (f *memFile) Read(p []byte) (int, error) {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	// Reads are not fault points (the save protocol under test never
	// reads), but a crashed filesystem serves nothing.
	if f.fs.crashed {
		return 0, ErrCrashed
	}
	if f.closed {
		return 0, os.ErrClosed
	}
	if f.pos >= len(f.ino.cache) {
		return 0, io.EOF
	}
	n := copy(p, f.ino.cache[f.pos:])
	f.pos += n
	return n, nil
}

func (f *memFile) Write(p []byte) (int, error) {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	flt, err := f.fs.opLocked(OpWrite)
	if err != nil {
		keep := flt.keep
		if keep < 0 || keep > len(p) {
			keep = 0
		}
		f.ino.cache = append(f.ino.cache, p[:keep]...)
		return keep, err
	}
	if f.closed {
		return 0, os.ErrClosed
	}
	if !f.writable {
		return 0, &os.PathError{Op: "write", Path: f.name, Err: os.ErrPermission}
	}
	data := p
	if flt.flip >= 0 && flt.flip < len(p)*8 {
		data = append([]byte(nil), p...)
		data[flt.flip/8] ^= 1 << (flt.flip % 8)
	}
	f.ino.cache = append(f.ino.cache, data...)
	return len(p), nil
}

func (f *memFile) Sync() error {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	if _, err := f.fs.opLocked(OpSync); err != nil {
		return err
	}
	if f.closed {
		return os.ErrClosed
	}
	f.ino.disk = append([]byte(nil), f.ino.cache...)
	return nil
}

func (f *memFile) Close() error {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	if _, err := f.fs.opLocked(OpClose); err != nil {
		return err
	}
	if f.closed {
		return os.ErrClosed
	}
	f.closed = true
	return nil
}

// interface guards
var (
	_ FS   = (*MemFS)(nil)
	_ File = (*memFile)(nil)
)

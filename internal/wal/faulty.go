package wal

import (
	"errors"
	"io"
	"sync"
)

// ErrInjected is the error returned by injected faults.
var ErrInjected = errors.New("wal: injected fault")

// Injector scripts filesystem failures for crash tests. Configure the
// exported fields before handing it to a FaultyFS; they are read-only
// afterwards. Faults are modeled on a machine dying: once one fires, the
// injector is dead and every later write and sync fails, leaving exactly
// the bytes that made it out — including a torn final record.
type Injector struct {
	// KillAfterBytes kills the injector after this many payload bytes
	// have been written across all wrapped files; the write that crosses
	// the boundary persists only its prefix (a torn record). Negative
	// disables.
	KillAfterBytes int64
	// FailSyncAt makes the n-th Sync call (1-based, counted across all
	// wrapped files) fail and kills the injector. 0 disables.
	FailSyncAt int

	mu      sync.Mutex
	written int64
	syncs   int
	dead    bool
}

// Syncs returns how many Sync calls completed successfully — the group-
// commit tests use it to check fsync amortization.
func (in *Injector) Syncs() int {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.syncs
}

// Dead reports whether a fault has fired.
func (in *Injector) Dead() bool {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.dead
}

// admitWrite returns how many of n bytes may be written, and whether the
// write fails afterwards.
func (in *Injector) admitWrite(n int) (int, bool) {
	in.mu.Lock()
	defer in.mu.Unlock()
	if in.dead {
		return 0, true
	}
	if in.KillAfterBytes >= 0 && in.written+int64(n) > in.KillAfterBytes {
		allowed := int(in.KillAfterBytes - in.written)
		if allowed < 0 {
			allowed = 0
		}
		in.written += int64(allowed)
		in.dead = true
		return allowed, true
	}
	in.written += int64(n)
	return n, false
}

// admitSync reports whether a Sync call fails.
func (in *Injector) admitSync() bool {
	in.mu.Lock()
	defer in.mu.Unlock()
	if in.dead {
		return true
	}
	in.syncs++
	if in.FailSyncAt > 0 && in.syncs >= in.FailSyncAt {
		in.dead = true
		return true
	}
	return false
}

// FaultyFS wraps an FS so that every file opened for writing routes its
// writes and syncs through the Injector. Reads and directory operations
// pass through untouched.
type FaultyFS struct {
	Base FS
	Inj  *Injector
}

// NewFaultyFS returns a FaultyFS over OSFS.
func NewFaultyFS(in *Injector) *FaultyFS { return &FaultyFS{Base: OSFS, Inj: in} }

func (f *FaultyFS) Create(name string) (File, error) {
	file, err := f.Base.Create(name)
	if err != nil {
		return nil, err
	}
	return &faultFile{f: file, inj: f.Inj}, nil
}

func (f *FaultyFS) Append(name string) (File, error) {
	file, err := f.Base.Append(name)
	if err != nil {
		return nil, err
	}
	return &faultFile{f: file, inj: f.Inj}, nil
}

func (f *FaultyFS) Open(name string) (io.ReadCloser, error) { return f.Base.Open(name) }
func (f *FaultyFS) ReadDir(dir string) ([]string, error)    { return f.Base.ReadDir(dir) }
func (f *FaultyFS) Size(name string) (int64, error)         { return f.Base.Size(name) }
func (f *FaultyFS) Truncate(name string, size int64) error  { return f.Base.Truncate(name, size) }
func (f *FaultyFS) Rename(oldpath, newpath string) error    { return f.Base.Rename(oldpath, newpath) }
func (f *FaultyFS) Remove(name string) error                { return f.Base.Remove(name) }
func (f *FaultyFS) MkdirAll(dir string) error               { return f.Base.MkdirAll(dir) }
func (f *FaultyFS) SyncDir(dir string) error                { return f.Base.SyncDir(dir) }

type faultFile struct {
	f   File
	inj *Injector
}

func (ff *faultFile) Write(p []byte) (int, error) {
	n, fail := ff.inj.admitWrite(len(p))
	if n > 0 {
		if m, err := ff.f.Write(p[:n]); err != nil {
			return m, err
		}
	}
	if fail {
		return n, ErrInjected
	}
	return n, nil
}

func (ff *faultFile) Sync() error {
	if ff.inj.admitSync() {
		return ErrInjected
	}
	return ff.f.Sync()
}

func (ff *faultFile) Close() error { return ff.f.Close() }

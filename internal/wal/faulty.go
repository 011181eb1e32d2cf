package wal

import (
	"errors"
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
	FS
	Inj *Injector
}

// NewFaultyFS returns a FaultyFS over the operating system's filesystem.
func NewFaultyFS(in *Injector) *FaultyFS { return &FaultyFS{FS: osFS{}, Inj: in} }

func (f *FaultyFS) Create(name string) (File, error) {
	file, err := f.FS.Create(name)
	if err != nil {
		return nil, err
	}
	return &faultFile{f: file, inj: f.Inj}, nil
}

func (f *FaultyFS) Append(name string) (File, error) {
	file, err := f.FS.Append(name)
	if err != nil {
		return nil, err
	}
	return &faultFile{f: file, inj: f.Inj}, nil
}

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

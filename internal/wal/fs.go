package wal

import (
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// File is the writable-file surface the log needs: sequential writes, an
// explicit durability point, and close. *os.File satisfies it; the fault-
// injecting wrapper in faulty.go intercepts it.
type File interface {
	io.Writer
	Sync() error
	Close() error
}

// FS abstracts the filesystem operations of the write path, so tests can
// inject torn writes, sync errors, and kill-at-offset crashes (FaultyFS)
// without touching the log logic. The default implementation (osFS) maps
// straight onto the os package.
type FS interface {
	// Create opens name for writing, truncating any existing file.
	Create(name string) (File, error)
	// Append reopens an existing file for appending at its end.
	Append(name string) (File, error)
	// Open opens name for reading.
	Open(name string) (io.ReadCloser, error)
	// ReadDir lists the file names in dir, sorted.
	ReadDir(dir string) ([]string, error)
	// Size returns the byte length of name.
	Size(name string) (int64, error)
	// Truncate cuts name to size bytes.
	Truncate(name string, size int64) error
	// Rename atomically replaces newpath with oldpath.
	Rename(oldpath, newpath string) error
	// Remove deletes name.
	Remove(name string) error
	// MkdirAll creates dir and any missing parents.
	MkdirAll(dir string) error
	// SyncDir fsyncs the directory itself, making renames and file
	// creations inside it durable.
	SyncDir(dir string) error
}

// osFS is the production FS, backed by the os package.
type osFS struct{}

func (osFS) Create(name string) (File, error) {
	return os.OpenFile(name, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
}

func (osFS) Append(name string) (File, error) {
	return os.OpenFile(name, os.O_WRONLY|os.O_APPEND, 0o644)
}

func (osFS) Open(name string) (io.ReadCloser, error) { return os.Open(name) }

func (osFS) ReadDir(dir string) ([]string, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	names := make([]string, 0, len(ents))
	for _, e := range ents {
		if !e.IsDir() {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	return names, nil
}

func (osFS) Size(name string) (int64, error) {
	fi, err := os.Stat(name)
	if err != nil {
		return 0, err
	}
	return fi.Size(), nil
}

func (osFS) Truncate(name string, size int64) error { return os.Truncate(name, size) }

func (osFS) Rename(oldpath, newpath string) error { return os.Rename(oldpath, newpath) }

func (osFS) Remove(name string) error { return os.Remove(name) }

func (osFS) MkdirAll(dir string) error { return os.MkdirAll(dir, 0o755) }

func (osFS) SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	serr := d.Sync()
	cerr := d.Close()
	if serr != nil {
		return serr
	}
	return cerr
}

// WriteFileAtomic writes a file so that a crash at any point leaves either
// the old content or the new content, never a torn mix: the payload goes to
// a temp file in the same directory, is fsynced and closed, renamed over
// path, and the directory is fsynced so the rename itself is durable. The
// payload is streamed: write's bytes pass through a few fixed buffers to a
// writer goroutine, which starts each buffer's writeback as it goes, so
// the encoding overlaps the disk and the closing fsync waits only for the
// tail. Nothing of it outlives the call.
//
// An error before the rename removes the temp file and leaves path
// untouched; write's own error wins over a write error it caused. An
// error from the directory fsync comes after the rename: path then holds
// the new content, but it is not known to be durable.
func WriteFileAtomic(path string, write func(io.Writer) error) error {
	_, err := writeFileAtomicFS(osFS{}, path, write)
	return err
}

// persistStats is what one atomic write cost: the bytes written, the time
// to stream them (write's encoding and the writes, which overlap), and the
// time from there to the durable rename (fsync, close, rename, directory
// fsync).
type persistStats struct {
	bytes       int64
	write, sync time.Duration
}

func writeFileAtomicFS(fs FS, path string, write func(io.Writer) error) (persistStats, error) {
	var st persistStats
	tmp := path + ".tmp"
	f, err := fs.Create(tmp)
	if err != nil {
		return st, err
	}
	t0 := time.Now()
	st.bytes, err = stream(f, write)
	t1 := time.Now()
	st.write = t1.Sub(t0)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = fs.Rename(tmp, path)
	}
	if err != nil {
		fs.Remove(tmp)
		return st, err
	}
	err = fs.SyncDir(filepath.Dir(path))
	st.sync = time.Since(t1)
	return st, err
}

// streamBufBytes and streamBufs size stream's write-behind: one buffer
// fills while the others wait for, or are in, the writer's write call.
const (
	streamBufBytes = 1 << 20
	streamBufs     = 3
)

// streamer is the io.Writer stream hands to write: it copies into fixed
// buffers and passes each full one to the writer goroutine, which writes
// them to the file in order.
type streamer struct {
	buf  []byte
	n    int64
	full chan []byte // to the writer; it never holds more than streamBufs
	free chan []byte // back from the writer; likewise
	// failed is closed once the writer has set err, its first write
	// error; after that it writes nothing more.
	failed chan struct{}
	err    error
}

// stream runs write against f through the write-behind and returns how
// many bytes it wrote. It joins the writer goroutine before it returns,
// also when write panics. write's error wins over the writer's.
func stream(f File, write func(io.Writer) error) (n int64, err error) {
	s := &streamer{
		buf:    make([]byte, 0, streamBufBytes),
		full:   make(chan []byte, streamBufs),
		free:   make(chan []byte, streamBufs),
		failed: make(chan struct{}),
	}
	for range streamBufs - 1 {
		s.free <- make([]byte, 0, streamBufBytes)
	}
	done := make(chan struct{})
	go s.drain(f, done)
	defer func() {
		close(s.full)
		<-done
		if err == nil {
			err = s.err
		}
	}()
	if err := write(s); err != nil {
		return s.n, err
	}
	if len(s.buf) > 0 {
		s.full <- s.buf
	}
	return s.n, nil
}

func (s *streamer) Write(p []byte) (int, error) {
	total := len(p)
	for len(p) > 0 {
		select {
		case <-s.failed:
			return total - len(p), s.err
		default:
		}
		c := copy(s.buf[len(s.buf):cap(s.buf)], p)
		s.buf, p = s.buf[:len(s.buf)+c], p[c:]
		s.n += int64(c)
		if len(s.buf) == cap(s.buf) {
			s.full <- s.buf
			s.buf = <-s.free
		}
	}
	return total, nil
}

// drain writes each buffer it is handed to f and starts that range's
// writeback, until full is closed; after a write error it only hands the
// buffers back.
func (s *streamer) drain(f File, done chan<- struct{}) {
	defer close(done)
	var off int64
	for b := range s.full {
		if s.err == nil {
			if _, err := f.Write(b); err != nil {
				s.err = err
				close(s.failed)
			} else {
				startWriteback(f, off, int64(len(b)))
				off += int64(len(b))
			}
		}
		s.free <- b[:0]
	}
}

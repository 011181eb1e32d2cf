//go:build !arm

package wal

import (
	"os"
	"syscall"
)

// syncFileRangeWrite is SYNC_FILE_RANGE_WRITE: start writeback of the
// range's dirty pages, without waiting for it.
const syncFileRangeWrite = 2

// startWriteback asks the kernel to start writing [off, off+n) of f to
// disk now, so the fsync that ends the file waits only for its tail. It is
// a hint: a File that is not an *os.File, or any error, leaves it to the
// fsync.
func startWriteback(f File, off, n int64) {
	of, ok := f.(*os.File)
	if !ok {
		return
	}
	rc, err := of.SyscallConn()
	if err != nil {
		return
	}
	rc.Control(func(fd uintptr) {
		syscall.SyncFileRange(int(fd), off, n, syncFileRangeWrite)
	})
}

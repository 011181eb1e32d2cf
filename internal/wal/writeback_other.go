//go:build !linux || arm

package wal

// startWriteback is a no-op where the syscall package has no
// sync_file_range (every system but Linux, and 32-bit ARM Linux): the
// fsync that ends the file writes all of it.
func startWriteback(File, int64, int64) {}

package main

import (
	"io"
	"net"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"ppanns"
	"ppanns/internal/dataset"
	"ppanns/internal/transport"
	"ppanns/internal/wal"
)

// stalledListener accepts connections and never answers on them; its
// cleanup closes the listener and every connection it accepted.
func stalledListener(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var conns []net.Conn
	go func() {
		for {
			c, err := l.Accept()
			if err != nil {
				return
			}
			mu.Lock()
			conns = append(conns, c)
			mu.Unlock()
		}
	}()
	t.Cleanup(func() {
		l.Close()
		mu.Lock()
		defer mu.Unlock()
		for _, c := range conns {
			c.Close()
		}
	})
	return l.Addr().String()
}

// TestQueryStalledServer holds both query paths to their deadlines: a
// server that accepts and never answers fails the query, it does not hang.
// A single server fails on the call that timed out, the first Info, not on
// a later call over the connection that timeout poisoned.
func TestQueryStalledServer(t *testing.T) {
	saved := dialOpts
	dialOpts = transport.DialOptions{DialTimeout: 200 * time.Millisecond, Timeout: 200 * time.Millisecond}
	t.Cleanup(func() { dialOpts = saved })

	dir := t.TempDir()
	data := dataset.DeepLike(50, 2, 1)
	owner, err := ppanns.NewDataOwner(ppanns.Params{Dim: data.Dim, Beta: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := owner.EncryptDatabase(data.Train); err != nil {
		t.Fatal(err)
	}
	keyFile, queryFile := filepath.Join(dir, "user.key"), filepath.Join(dir, "q.fvecs")
	if err := wal.WriteFileAtomic(keyFile, func(w io.Writer) error {
		return ppanns.SaveUserKey(w, owner.UserKey())
	}); err != nil {
		t.Fatal(err)
	}
	if err := writeFvecs(queryFile, data.Queries); err != nil {
		t.Fatal(err)
	}

	addr := stalledListener(t)
	for _, target := range [][]string{{"-addr", addr}, {"-addrs", addr}} {
		t.Run(target[0], func(t *testing.T) {
			done := make(chan error, 1)
			go func() {
				done <- runQuery(append([]string{"-key", keyFile, "-queries", queryFile}, target...))
			}()
			select {
			case err := <-done:
				if err == nil {
					t.Fatal("query against a stalled server succeeded")
				}
				if target[0] == "-addr" && (!strings.HasPrefix(err.Error(), "info: ") || strings.Contains(err.Error(), "poison")) {
					t.Fatalf("query against a stalled server: %v, want the info call's timeout", err)
				}
			case <-time.After(2 * time.Second):
				t.Fatal("query against a stalled server still blocked after 2s")
			}
		})
	}
}

// TestEncryptRefusesUncalibratedBeta: with fewer vectors than the
// calibration's k, no β reaches the recall target, and encrypt says to pass
// -beta instead of printing a β it never calibrated.
func TestEncryptRefusesUncalibratedBeta(t *testing.T) {
	dir := t.TempDir()
	in := filepath.Join(dir, "five.fvecs")
	if err := writeFvecs(in, dataset.DeepLike(5, 1, 1).Train); err != nil {
		t.Fatal(err)
	}
	err := runEncrypt([]string{"-in", in, "-db", filepath.Join(dir, "db"), "-key", filepath.Join(dir, "key"), "-seed", "3"})
	if err == nil || !strings.Contains(err.Error(), "pass -beta") {
		t.Fatalf("encrypt of 5 vectors without -beta: err = %v, want one saying to pass -beta", err)
	}
}

// TestEncryptRefusesGivenBadBeta: a -beta that was given is used, never
// replaced by a calibrated one, so a negative or infinite β is refused
// (by NewDataOwner) instead of silently calibrating.
func TestEncryptRefusesGivenBadBeta(t *testing.T) {
	dir := t.TempDir()
	in := filepath.Join(dir, "forty.fvecs")
	if err := writeFvecs(in, dataset.DeepLike(40, 1, 1).Train); err != nil {
		t.Fatal(err)
	}
	for _, beta := range []string{"-5", "-1", "-Inf", "+Inf", "NaN"} {
		err := runEncrypt([]string{"-in", in, "-db", filepath.Join(dir, "db"), "-key", filepath.Join(dir, "key"), "-seed", "3", "-beta", beta})
		if err == nil || !strings.Contains(err.Error(), "non-negative and finite") {
			t.Errorf("encrypt -beta %s: err = %v, want the refusal of a negative or non-finite β", beta, err)
		}
	}
}

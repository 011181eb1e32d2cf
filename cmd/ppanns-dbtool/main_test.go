package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"maps"
	"net"
	"os"
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

// queryWorld encrypts n deep-like vectors and writes the user's key and nq
// queries to files, as query reads them. It returns the database and the
// two file names.
func queryWorld(t *testing.T, n, nq int) (edb *ppanns.EncryptedDatabase, keyFile, queryFile string) {
	t.Helper()
	dir := t.TempDir()
	data := dataset.DeepLike(n, nq, 1)
	owner, err := ppanns.NewDataOwner(ppanns.Params{Dim: data.Dim, Beta: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if edb, err = owner.EncryptDatabase(data.Train); err != nil {
		t.Fatal(err)
	}
	keyFile, queryFile = filepath.Join(dir, "user.key"), filepath.Join(dir, "q.fvecs")
	if err := wal.WriteFileAtomic(keyFile, func(w io.Writer) error {
		return ppanns.SaveUserKey(w, owner.UserKey())
	}); err != nil {
		t.Fatal(err)
	}
	if err := writeFvecs(queryFile, data.Queries); err != nil {
		t.Fatal(err)
	}
	return edb, keyFile, queryFile
}

// TestQueryStalledServer holds both query paths to their deadlines: a
// server that accepts and never answers fails the query, it does not hang.
// A single server fails on the call that timed out, the first Info, not on
// a later call over the connection that timeout poisoned.
func TestQueryStalledServer(t *testing.T) {
	saved := dialOpts
	dialOpts = transport.DialOptions{DialTimeout: 200 * time.Millisecond, Timeout: 200 * time.Millisecond}
	t.Cleanup(func() { dialOpts = saved })

	_, keyFile, queryFile := queryWorld(t, 50, 2)
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

// TestQueryReplicasWithOneDown drives query -addrs over 2 stripes × 2
// replicas served in process, replica 1 of stripe 0 down from the start
// (its address refuses connections): every query answers in full, none
// partial, and the down replica's open breaker is printed.
func TestQueryReplicasWithOneDown(t *testing.T) {
	const nq = 6
	edb, keyFile, queryFile := queryWorld(t, 200, nq)
	stripes := [2][2]string{}
	for r := range 2 {
		parts, err := edb.Split(2, ppanns.IndexOptions{})
		if err != nil {
			t.Fatal(err)
		}
		for s, p := range parts {
			srv, err := ppanns.NewServer(p)
			if err != nil {
				t.Fatal(err)
			}
			l, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			stripes[s][r] = l.Addr().String()
			if s == 0 && r == 1 {
				l.Close()
				continue
			}
			done := make(chan struct{})
			go func() { transport.Serve(l, srv); close(done) }()
			t.Cleanup(func() { l.Close(); <-done })
		}
	}
	addrs := stripes[0][0] + "," + stripes[0][1] + ";" + stripes[1][0] + "," + stripes[1][1]
	out, err := stdout(t, func() error {
		return runQuery([]string{"-key", keyFile, "-queries", queryFile, "-addrs", addrs, "-k", "5"})
	})
	if err != nil {
		t.Fatalf("query -addrs with one replica down: %v\n%s", err, out)
	}
	for _, want := range []string{"replicated topology: 2 stripes, 200 vectors total\n", "health: stripe 0 replica 1 breaker open\n"} {
		if !strings.Contains(out, want) {
			t.Fatalf("query -addrs printed\n%s\nwant the line %q", out, want)
		}
	}
	for i := range nq {
		if !strings.Contains(out, fmt.Sprintf("query %d: [", i)) {
			t.Fatalf("query -addrs printed\n%s\nwant a full answer to query %d", out, i)
		}
	}
	if strings.Contains(out, "partial") || strings.Count(out, "health:") != 1 {
		t.Fatalf("query -addrs printed\n%s\nwant no partial answer and one unhealthy replica", out)
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

// TestGenRefusesBadCounts: gen refuses a database of no vectors or a
// negative count, and a query file of no queries, with an error and no
// file written, instead of panicking.
func TestGenRefusesBadCounts(t *testing.T) {
	dir := t.TempDir()
	out, queries := filepath.Join(dir, "data.fvecs"), filepath.Join(dir, "q.fvecs")
	for _, args := range [][]string{
		{"-n", "0"},
		{"-n", "-5"},
		{"-n", "10", "-nq", "-1"},
		{"-n", "10", "-queries", queries, "-nq", "0"},
	} {
		if err := runGen(append([]string{"-out", out, "-dataset", "deep"}, args...)); err == nil {
			t.Errorf("gen %v succeeded", args)
		}
		for _, f := range []string{out, queries} {
			if _, err := os.Stat(f); err == nil {
				t.Fatalf("gen %v wrote %s", args, f)
			}
		}
	}
	if err := runGen([]string{"-out", out, "-dataset", "deep", "-n", "10", "-queries", queries, "-nq", "1"}); err != nil {
		t.Fatalf("gen of 10 vectors and 1 query: %v", err)
	}
}

// TestRefusesCountsItWouldRewrite: a count the library reads as unset
// (encrypt's -m and -efc, query's -ratio, at or below zero), a negative
// -pq that would build no PQ tier and a negative -limit that would run
// every query are refused with an error naming the flag, before anything
// is read or written.
func TestRefusesCountsItWouldRewrite(t *testing.T) {
	dir := t.TempDir()
	in := filepath.Join(dir, "forty.fvecs")
	if err := writeFvecs(in, dataset.DeepLike(40, 1, 1).Train); err != nil {
		t.Fatal(err)
	}
	db, key := filepath.Join(dir, "db"), filepath.Join(dir, "key")
	encrypt := []string{"-in", in, "-db", db, "-key", key, "-seed", "3", "-beta", "1"}
	query := []string{"-key", key, "-queries", in}
	for _, c := range []struct {
		run  func([]string) error
		args []string
		flag string
	}{
		{runEncrypt, append(encrypt, "-m", "-3"), "-m"},
		{runEncrypt, append(encrypt, "-efc", "-1"), "-efc"},
		{runEncrypt, append(encrypt, "-pq", "-2"), "-pq"},
		{runQuery, append(query, "-ratio", "0"), "-ratio"},
		{runQuery, append(query, "-ratio", "-3"), "-ratio"},
		{runQuery, append(query, "-limit", "-1"), "-limit"},
	} {
		err := c.run(c.args)
		if err == nil || !strings.Contains(err.Error(), c.flag+" must be") {
			t.Errorf("%v: err = %v, want a refusal naming %s", c.args, err, c.flag)
		}
		for _, f := range []string{db, key} {
			if _, err := os.Stat(f); err == nil {
				t.Fatalf("%v wrote %s", c.args, f)
			}
		}
	}
}

// TestOneStripeSplitWritesItsInput: split rebuilds each stripe's index
// under the database's own build parameters, so split -shards 1 of a
// database encrypted at -m 8 -efc 64 writes the file back byte for byte,
// its graph still at M=8 and efConstruction 64.
func TestOneStripeSplitWritesItsInput(t *testing.T) {
	dir := t.TempDir()
	in, db := filepath.Join(dir, "data.fvecs"), filepath.Join(dir, "db.ppanns")
	if err := writeFvecs(in, dataset.DeepLike(300, 1, 2).Train); err != nil {
		t.Fatal(err)
	}
	if _, err := stdout(t, func() error {
		return runEncrypt([]string{"-in", in, "-db", db, "-key", filepath.Join(dir, "user.key"), "-beta", "1", "-seed", "3", "-m", "8", "-efc", "64"})
	}); err != nil {
		t.Fatal(err)
	}
	prefix := filepath.Join(dir, "s-")
	if _, err := stdout(t, func() error { return runSplit([]string{"-db", db, "-shards", "1", "-out", prefix}) }); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(db)
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(prefix + "0.ppanns")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("split -shards 1 wrote %d bytes, not its %d-byte input", len(got), len(want))
	}
}

// stdout runs f with os.Stdout captured and returns what it printed.
func stdout(t *testing.T, f func() error) (string, error) {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	saved := os.Stdout
	os.Stdout = w
	printed := make(chan string)
	go func() {
		b, _ := io.ReadAll(r)
		printed <- string(b)
	}()
	ferr := f()
	os.Stdout = saved
	w.Close()
	out := <-printed
	r.Close()
	return out, ferr
}

// walFiles maps every file in dir to its bytes.
func walFiles(t *testing.T, dir string) map[string]string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	m := map[string]string{}
	for _, e := range ents {
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		m[e.Name()] = string(b)
	}
	return m
}

// servedWAL builds a WAL directory through the serving library: a server
// over 60 deep-like vectors takes inserts and deletes through two folds,
// each checkpointed, and a tail of writes after them, then closes. It
// returns the directory, the live server's Len and Live, and the two
// folds' checkpoint names.
func servedWAL(t *testing.T) (dir string, n, live int, first, second string) {
	t.Helper()
	dir = t.TempDir()
	data := dataset.DeepLike(60, 6, 5)
	owner, err := ppanns.NewDataOwner(ppanns.Params{Dim: data.Dim, Beta: 1, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	edb, err := owner.EncryptDatabase(data.Train)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := ppanns.NewServerWith(edb, ppanns.ServerOptions{WALDir: dir, WALSync: ppanns.SyncPolicy{Every: 1}, CompactAt: -1})
	if err != nil {
		t.Fatal(err)
	}
	write := func(q int, del int) {
		p, err := owner.EncryptVector(data.Queries[q])
		if err != nil {
			t.Fatal(err)
		}
		if _, err := srv.Insert(p); err != nil {
			t.Fatal(err)
		}
		if err := srv.Delete(del); err != nil {
			t.Fatal(err)
		}
	}
	for fold := range 2 {
		write(2*fold, 3*fold)
		write(2*fold+1, 3*fold+1)
		if _, err := srv.Flush(); err != nil {
			t.Fatal(err)
		}
		if fold == 0 {
			first = srv.WALStats().Checkpoint
		} else {
			second = srv.WALStats().Checkpoint
		}
	}
	write(4, 10)
	n, live = srv.Len(), srv.Live()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	return dir, n, live, first, second
}

// TestWALInfoAndRecover drives info -wal and recover over a directory the
// serving library wrote: info prints its newest checkpoint, and recover
// writes a database with the live server's record and live counts. With
// the first fold's checkpoint put back and one byte of the second flipped,
// both refuse, naming the second file, and neither changes a file.
func TestWALInfoAndRecover(t *testing.T) {
	dir, n, live, first, second := servedWAL(t)
	out, err := stdout(t, func() error { return runInfo([]string{"-wal", dir}) })
	if err != nil {
		t.Fatal(err)
	}
	if want := "checkpoint: " + second + " (epoch 8, generation 2, 64 records)\n"; !strings.Contains(out, want) {
		t.Fatalf("info -wal printed\n%s\nwant the line %q", out, want)
	}
	db := filepath.Join(t.TempDir(), "recovered.ppanns")
	if _, err := stdout(t, func() error { return runRecover([]string{dir, db}) }); err != nil {
		t.Fatal(err)
	}
	edb, err := loadDatabase(db)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := ppanns.NewServer(edb)
	if err != nil {
		t.Fatal(err)
	}
	if srv.Len() != n || srv.Live() != live {
		t.Fatalf("recovered database holds %d records, %d live; the live server held %d, %d", srv.Len(), srv.Live(), n, live)
	}

	dir, _, _, first, second = servedWAL(t)
	ckpt, err := os.ReadFile(filepath.Join(dir, second))
	if err != nil {
		t.Fatal(err)
	}
	// The first checkpoint's bytes do not matter: recovery never reads it.
	if err := os.WriteFile(filepath.Join(dir, first), ckpt, 0o644); err != nil {
		t.Fatal(err)
	}
	ckpt[len(ckpt)/2] ^= 0x10
	if err := os.WriteFile(filepath.Join(dir, second), ckpt, 0o644); err != nil {
		t.Fatal(err)
	}
	before := walFiles(t, dir)
	if _, err := stdout(t, func() error { return runInfo([]string{"-wal", dir}) }); err == nil || !strings.Contains(err.Error(), second) {
		t.Fatalf("info -wal over a corrupt newest checkpoint: %v, want a refusal naming %s", err, second)
	}
	if _, err := stdout(t, func() error { return runRecover([]string{dir, db + ".2"}) }); err == nil || !strings.Contains(err.Error(), second) {
		t.Fatalf("recover over a corrupt newest checkpoint: %v, want a refusal naming %s", err, second)
	}
	if !maps.Equal(walFiles(t, dir), before) {
		t.Fatal("a refused log directory changed")
	}
	if _, err := os.Stat(db + ".2"); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("a refused recover wrote its output: %v", err)
	}
}

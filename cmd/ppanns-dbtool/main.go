// Command ppanns-dbtool operates the PP-ANNS pipeline from the command
// line, one role per subcommand:
//
//	ppanns-dbtool gen     -out data.fvecs -dataset sift -n 10000 [-queries q.fvecs -nq 100]
//	ppanns-dbtool encrypt -in data.fvecs -db db.ppanns -key user.key [-beta 2.5] [-index hnsw]
//	ppanns-dbtool split   -db db.ppanns -shards 4 [-out shard-]
//	ppanns-dbtool compact <in.ppanns> <out.ppanns>
//	ppanns-dbtool serve   -db db.ppanns -addr :7070 [-wal wal/ -wal-sync every=1]
//	ppanns-dbtool query   -key user.key -queries q.fvecs -addr host:7070 [-k 10] [-ratio 16]
//	ppanns-dbtool query   -key user.key -queries q.fvecs -addrs "a:7070,b:7070;c:7070,d:7070" [-hedge 2ms] [-partial]
//	ppanns-dbtool recover <waldir> <out.ppanns>
//	ppanns-dbtool info    [-addr host:7070 | -wal waldir]
//
// gen writes synthetic corpora in the standard fvecs format (or use real
// Sift1M/Gist/Glove/Deep files); encrypt plays the data owner; split
// stripes one encrypted database into per-shard database files for a
// scatter-gather deployment (serve each file on its own machine — see
// internal/shard); compact rewrites a database file with every tombstoned
// record dropped and the survivors renumbered densely (ids change — re-split
// and re-serve afterwards, and discard any ids handed out before); serve
// hosts an encrypted database; query plays the user.
//
// query's -addrs flag accepts a replicated topology: stripes separated by
// ';', replica addresses of one stripe separated by ','. Every replica of
// a stripe must serve the same shard file. Reads fan out with failover
// (and hedging, with -hedge); -partial returns best-effort results when a
// whole stripe is down instead of failing the query.
//
// encrypt's -index flag selects the filter-index backend (hnsw or ivf);
// the choice is stored in the database file, and serve/query report it. A
// database tagged with any other backend name is refused as unknown.
//
// serve's -wal flag attaches a write-ahead log: every acknowledged
// Insert/Delete is logged (durable per -wal-sync) and survives a crash.
// A restart with the same -wal directory recovers automatically; recover
// replays a directory offline into a standalone database file, and
// info -wal inspects one without a running server. All file outputs are
// written atomically (temp + fsync + rename), so a crash mid-write never
// corrupts an existing file.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"ppanns"
	"ppanns/internal/core"
	"ppanns/internal/dataset"
	"ppanns/internal/shard"
	"ppanns/internal/transport"
	"ppanns/internal/vec"
	"ppanns/internal/wal"
)

// dialOpts bounds query's connects and calls, so a stalled server
// surfaces as an error instead of a hang.
var dialOpts = transport.DialOptions{DialTimeout: 5 * time.Second, Timeout: 10 * time.Second}

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	var err error
	switch os.Args[1] {
	case "gen":
		err = runGen(os.Args[2:])
	case "encrypt":
		err = runEncrypt(os.Args[2:])
	case "split":
		err = runSplit(os.Args[2:])
	case "compact":
		err = runCompact(os.Args[2:])
	case "serve":
		err = runServe(os.Args[2:])
	case "query":
		err = runQuery(os.Args[2:])
	case "info":
		err = runInfo(os.Args[2:])
	case "recover":
		err = runRecover(os.Args[2:])
	default:
		usage()
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "ppanns-dbtool: %v\n", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: ppanns-dbtool <gen|encrypt|split|compact|serve|query|info|recover> [flags]")
	os.Exit(2)
}

// atLeast refuses an integer flag below lo. The library reads a count
// at or below zero as unset and puts its default in its place, so a bad
// value must stop here instead of running with another one.
func atLeast(cmd, name string, v, lo int) error {
	if v < lo {
		return fmt.Errorf("%s: -%s must be ≥ %d, got %d", cmd, name, lo, v)
	}
	return nil
}

func runGen(args []string) error {
	fs := flag.NewFlagSet("gen", flag.ExitOnError)
	out := fs.String("out", "data.fvecs", "output fvecs file")
	queriesOut := fs.String("queries", "", "optional query fvecs file")
	name := fs.String("dataset", "sift", "sift | gist | glove | deep")
	n := fs.Int("n", 10000, "database size")
	nq := fs.Int("nq", 100, "query count (with -queries)")
	seed := fs.Uint64("seed", 42, "generation seed")
	fs.Parse(args)
	if *queriesOut != "" && *nq < 1 {
		return fmt.Errorf("gen: -queries needs -nq ≥ 1, got %d", *nq)
	}

	d, err := dataset.ByName(*name, *n, *nq, *seed)
	if err != nil {
		return err
	}
	if err := writeFvecs(*out, d.Train); err != nil {
		return err
	}
	fmt.Printf("wrote %d %d-dim vectors to %s\n", len(d.Train), d.Dim, *out)
	if *queriesOut != "" {
		if err := writeFvecs(*queriesOut, d.Queries); err != nil {
			return err
		}
		fmt.Printf("wrote %d queries to %s\n", len(d.Queries), *queriesOut)
	}
	return nil
}

func runEncrypt(args []string) error {
	fs := flag.NewFlagSet("encrypt", flag.ExitOnError)
	in := fs.String("in", "", "input fvecs database (required)")
	dbOut := fs.String("db", "db.ppanns", "encrypted database output")
	keyOut := fs.String("key", "user.key", "user key output")
	beta := fs.Float64("beta", 0, "DCPE β (default: calibrate for filter recall ≈ 0.5)")
	backend := fs.String("index", "hnsw", fmt.Sprintf("filter-index backend (%s)", strings.Join(ppanns.Backends(), " | ")))
	m := fs.Int("m", 16, "HNSW M")
	efc := fs.Int("efc", 200, "HNSW efConstruction")
	seed := fs.Uint64("seed", 0, "key seed (0 = crypto random)")
	pqm := fs.Int("pq", 0, "build the compressed filter tier with this many subquantizers (0 = off)")
	fs.Parse(args)
	if *in == "" {
		return fmt.Errorf("encrypt: -in is required")
	}
	if err := errors.Join(atLeast("encrypt", "m", *m, 1), atLeast("encrypt", "efc", *efc, 1), atLeast("encrypt", "pq", *pqm, 0)); err != nil {
		return err
	}

	ds, err := vec.LoadFvecsFile(*in, 0)
	if err != nil {
		return err
	}
	vectors := ds.Slices()
	fmt.Printf("loaded %d %d-dim vectors from %s\n", len(vectors), ds.Dim(), *in)

	b, given := *beta, false
	fs.Visit(func(f *flag.Flag) { given = given || f.Name == "beta" })
	if !given {
		// Calibrate like the paper: filter-phase ceiling ≈ 0.5. A given β,
		// negative or not finite included, goes to NewDataOwner, which
		// refuses what it cannot use.
		b, err = core.CalibrateBeta(vectors, vectors[:min(50, len(vectors))], 10, 0.5, 42)
		if err != nil {
			return fmt.Errorf("encrypt: %w (pass -beta)", err)
		}
		fmt.Printf("calibrated β = %.4g\n", b)
	}

	owner, err := ppanns.NewDataOwner(ppanns.Params{
		Dim: ds.Dim(), Beta: b, Index: *backend, Seed: *seed,
		IndexOptions: ppanns.IndexOptions{M: *m, EfConstruction: *efc},
		PQ:           *pqm > 0, PQM: *pqm,
	})
	if err != nil {
		return err
	}
	start := time.Now()
	edb, err := owner.EncryptDatabase(vectors)
	if err != nil {
		return err
	}
	call := time.Since(start)
	st := owner.BuildStats()
	ms := func(d time.Duration) float64 { return float64(d.Microseconds()) / 1e3 }
	// Key generation and encryption are one branch; the index and the PQ
	// tier run beside it, so the stages overlap and do not add up.
	fmt.Printf("build stages: %.1f ms in all; keygen %.1f then encrypt %.1f ms, beside them index %.1f ms and pq %.1f ms\n",
		ms(call), ms(st.KeyGen), ms(st.Encrypt), ms(st.Index), ms(st.PQ))
	if st.DistEvals > 0 {
		fmt.Printf("k-means: %d Lloyd iterations, %d distance evaluations\n", st.KMeansIters, st.DistEvals)
	}
	if err := wal.WriteFileAtomic(*dbOut, edb.Save); err != nil {
		return err
	}
	if err := wal.WriteFileAtomic(*keyOut, func(w io.Writer) error {
		return ppanns.SaveUserKey(w, owner.UserKey())
	}); err != nil {
		return err
	}
	fmt.Printf("encrypted database (%s index) → %s, user key → %s\n", *backend, *dbOut, *keyOut)
	return nil
}

func runSplit(args []string) error {
	fs := flag.NewFlagSet("split", flag.ExitOnError)
	dbIn := fs.String("db", "db.ppanns", "encrypted database file")
	shards := fs.Int("shards", 2, "number of shards")
	outPrefix := fs.String("out", "shard-", "output file prefix (writes <prefix><i>.ppanns)")
	m := fs.Int("m", 16, "HNSW M for the per-shard index rebuilds")
	efc := fs.Int("efc", 200, "HNSW efConstruction for the per-shard index rebuilds")
	seed := fs.Uint64("seed", 0, "per-shard index build seed: a non-zero seed is decorrelated per shard (shard s builds with seed+s+1); 0 builds every shard with seed 0")
	fs.Parse(args)
	if err := errors.Join(atLeast("split", "m", *m, 1), atLeast("split", "efc", *efc, 1)); err != nil {
		return err
	}

	f, err := os.Open(*dbIn)
	if err != nil {
		return err
	}
	edb, err := ppanns.LoadEncryptedDatabase(f)
	f.Close()
	if err != nil {
		return err
	}
	parts, err := edb.Split(*shards, ppanns.IndexOptions{M: *m, EfConstruction: *efc, Seed: *seed})
	if err != nil {
		return err
	}
	for s, p := range parts {
		out := fmt.Sprintf("%s%d.ppanns", *outPrefix, s)
		if err := wal.WriteFileAtomic(out, p.Save); err != nil {
			return err
		}
		fmt.Printf("shard %d: %d vectors (%d live, %s index) → %s\n",
			s, p.Len(), p.Live(), p.Backend, out)
	}
	fmt.Printf("global id g lives on shard g %% %d at local position g / %d; serve each file and point a shard coordinator at all of them\n",
		*shards, *shards)
	return nil
}

// runCompact rewrites a database file with every tombstoned record dropped
// entirely: survivors are renumbered densely to 0..live-1 and the filter
// index is rebuilt over them, so the output file holds no deletion debt.
// Because ids change, the output must be treated as a fresh database —
// re-split for sharded deployments, and discard any ids handed out against
// the input.
func runCompact(args []string) error {
	fs := flag.NewFlagSet("compact", flag.ExitOnError)
	fs.Parse(args)
	if fs.NArg() != 2 {
		return fmt.Errorf("compact: usage: ppanns-dbtool compact <in.ppanns> <out.ppanns>")
	}
	in, out := fs.Arg(0), fs.Arg(1)

	f, err := os.Open(in)
	if err != nil {
		return err
	}
	edb, err := ppanns.LoadEncryptedDatabase(f)
	f.Close()
	if err != nil {
		return err
	}
	total, live := edb.Len(), edb.Live()
	compacted, err := edb.Compacted()
	if err != nil {
		return err
	}
	if err := wal.WriteFileAtomic(out, compacted.Save); err != nil {
		return err
	}
	fmt.Printf("compacted %s → %s: dropped %d tombstoned of %d records, kept %d (ids renumbered 0..%d)\n",
		in, out, total-live, total, live, live-1)
	return nil
}

// parseSyncPolicy maps the -wal-sync flag onto a wal.SyncPolicy:
// "every=N" (N=1 syncs each ack; N>1 every N-th record), "interval=<dur>"
// (timer-driven), or "os" (OS-buffered, no explicit fsync).
func parseSyncPolicy(s string) (wal.SyncPolicy, error) {
	switch {
	case s == "os" || s == "os-buffered":
		return wal.SyncPolicy{}, nil
	case strings.HasPrefix(s, "every="):
		n, err := strconv.Atoi(strings.TrimPrefix(s, "every="))
		if err != nil || n < 1 {
			return wal.SyncPolicy{}, fmt.Errorf("bad sync policy %q: want every=N with N ≥ 1", s)
		}
		return wal.SyncPolicy{Every: n}, nil
	case strings.HasPrefix(s, "interval="):
		d, err := time.ParseDuration(strings.TrimPrefix(s, "interval="))
		if err != nil || d <= 0 {
			return wal.SyncPolicy{}, fmt.Errorf("bad sync policy %q: want interval=<duration>", s)
		}
		return wal.SyncPolicy{Interval: d}, nil
	}
	return wal.SyncPolicy{}, fmt.Errorf("unknown sync policy %q (want every=N, interval=<dur>, or os)", s)
}

func runServe(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	dbIn := fs.String("db", "db.ppanns", "encrypted database file")
	addr := fs.String("addr", ":7070", "listen address")
	walDir := fs.String("wal", "", "write-ahead-log directory: makes writes durable and recovers acknowledged writes on restart")
	walSync := fs.String("wal-sync", "every=1", "WAL sync policy: every=N | interval=<dur> | os")
	fs.Parse(args)

	var server *ppanns.Server
	if *walDir != "" {
		pol, err := parseSyncPolicy(*walSync)
		if err != nil {
			return fmt.Errorf("serve: %w", err)
		}
		opts := ppanns.ServerOptions{WALDir: *walDir, WALSync: pol}
		// An already-populated directory is authoritative — recover from
		// it; a fresh one is seeded from the -db file; one the log refuses
		// says why.
		rec, err := wal.Inspect(*walDir)
		if err != nil && !errors.Is(err, os.ErrNotExist) {
			return fmt.Errorf("serve: %w", err)
		}
		if err == nil && rec.Records > 0 {
			srv, stats, err := ppanns.OpenServer(*walDir, opts)
			if err != nil {
				return err
			}
			fmt.Printf("recovered from %s: checkpoint %s (epoch %d) + %d replayed records → epoch %d\n",
				*walDir, stats.Checkpoint, stats.CheckpointEpoch, stats.Replayed, stats.Epoch)
			if stats.Truncated != "" {
				fmt.Printf("warning: repaired torn log tail: %s (%d bytes dropped)\n", stats.Truncated, stats.TruncatedBytes)
			}
			server = srv
		} else {
			edb, err := loadDatabase(*dbIn)
			if err != nil {
				return err
			}
			server, err = ppanns.NewServerWith(edb, opts)
			if err != nil {
				return err
			}
			fmt.Printf("write-ahead log at %s (sync %s)\n", *walDir, pol)
		}
		defer server.Close()
	} else {
		edb, err := loadDatabase(*dbIn)
		if err != nil {
			return err
		}
		server, err = ppanns.NewServer(edb)
		if err != nil {
			return err
		}
	}
	l, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	fmt.Printf("serving %d encrypted vectors (%s index) on %s\n", server.Len(), server.Backend(), l.Addr())
	return transport.Serve(l, server)
}

func loadDatabase(path string) (*ppanns.EncryptedDatabase, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ppanns.LoadEncryptedDatabase(f)
}

// runRecover replays a WAL directory offline — the newest checkpoint plus
// every acknowledged record after it — and writes the recovered
// database atomically to the output path. The directory itself is also
// healed: the torn tail is repaired and a fresh checkpoint recorded.
func runRecover(args []string) error {
	fs := flag.NewFlagSet("recover", flag.ExitOnError)
	fs.Parse(args)
	if fs.NArg() != 2 {
		return fmt.Errorf("recover: usage: ppanns-dbtool recover <waldir> <out.ppanns>")
	}
	dir, out := fs.Arg(0), fs.Arg(1)

	srv, stats, err := core.OpenServer(dir, core.ServerOptions{CompactAt: -1})
	if err != nil {
		return err
	}
	defer srv.Close()
	fmt.Printf("checkpoint:  %s (epoch %d, generation %d)\n", stats.Checkpoint, stats.CheckpointEpoch, stats.CheckpointGen)
	fmt.Printf("replayed:    %d records → epoch %d\n", stats.Replayed, stats.Epoch)
	if stats.Truncated != "" {
		fmt.Printf("repaired:    %s (%d bytes)\n", stats.Truncated, stats.TruncatedBytes)
	}
	if err := srv.SaveTo(out); err != nil {
		return err
	}
	fmt.Printf("recovered database → %s: %d records (%d live)\n", out, srv.Len(), srv.Live())
	return nil
}

// runInfo dials a serving instance and prints what the transport info op
// reports: backend, dimension, and the record counts — total
// (tombstones included) and live — so operators can see deletion debt at a
// glance. With -wal it reads a WAL directory offline instead: its
// segments, records and torn tail, and the newest checkpoint, which it
// refuses when that file does not load.
func runInfo(args []string) error {
	fs := flag.NewFlagSet("info", flag.ExitOnError)
	addr := fs.String("addr", "127.0.0.1:7070", "server address")
	walDir := fs.String("wal", "", "inspect a WAL directory offline instead of dialing a server")
	timeout := fs.Duration("timeout", 5*time.Second, "per-call deadline (0 = wait forever)")
	fs.Parse(args)

	if *walDir != "" {
		rec, err := wal.Inspect(*walDir)
		if err != nil {
			return err
		}
		fmt.Printf("wal dir:    %s\n", *walDir)
		fmt.Printf("segments:   %d (%d bytes)\n", rec.Segments, rec.Bytes)
		fmt.Printf("records:    %d valid (checkpoint barriers included)\n", rec.Records)
		if rec.Truncated != "" {
			fmt.Printf("torn tail:  %s (%d bytes after it unrecoverable; recovery will repair)\n", rec.Truncated, rec.TruncatedBytes)
		}
		b := rec.Barrier
		if b == nil {
			fmt.Printf("checkpoint: none — not recoverable without one\n")
			return nil
		}
		// Recovery anchors on the newest checkpoint alone, so one that does
		// not load leaves the directory unrecoverable.
		if _, err := loadDatabase(filepath.Join(*walDir, b.Name)); err != nil {
			return fmt.Errorf("info: newest checkpoint %s does not load: %w", b.Name, err)
		}
		fmt.Printf("checkpoint: %s (epoch %d, generation %d, %d records)\n", b.Name, b.Epoch, b.Gen, b.Records)
		return nil
	}

	client, err := transport.DialWith(*addr, transport.DialOptions{
		DialTimeout: *timeout,
		Timeout:     *timeout,
	})
	if err != nil {
		return err
	}
	defer client.Close()
	info, err := client.Info()
	if err != nil {
		return err
	}
	fmt.Printf("backend:    %s\n", info.Backend)
	fmt.Printf("dimension:  %d\n", info.Dim)
	fmt.Printf("records:    %d total\n", info.N)
	fmt.Printf("live:       %d\n", info.Live)
	fmt.Printf("tombstones: %d\n", info.N-info.Live)
	fmt.Printf("delta:      %d\n", info.Delta)
	fmt.Printf("pending:    %d tombstones awaiting compaction\n", info.Tombstones)
	// What each stored point costs per tier, and how much of it the
	// compressed filter tier shaves off.
	m := info.Memory
	fmt.Printf("memory:     %.0f B/point SAP + %.0f B/point DCE\n", m.SAP, m.DCE)
	if m.PQCodes > 0 {
		fmt.Printf("pq tier:    %.1f B/point codes + %.2f B/point codebook (%.0f× under SAP)\n",
			m.PQCodes, m.PQBook, m.SAP/(m.PQCodes+m.PQBook))
	} else {
		fmt.Printf("pq tier:    none\n")
	}
	fmt.Printf("delta heap: %d B un-compacted\n", m.DeltaBytes)
	// A nil WAL summary means the server runs without one (acknowledged
	// writes are volatile).
	if w := info.WAL; w != nil {
		fmt.Printf("wal:        %s — %d segments, %d B, sync %s\n", w.Dir, w.Segments, w.Bytes, w.Policy)
		fmt.Printf("wal acked:  %d appended, %d synced durable\n", w.Appended, w.Synced)
		if w.Checkpoint != "" {
			fmt.Printf("wal ckpt:   %s (epoch %d, generation %d)\n", w.Checkpoint, w.CheckpointEpoch, w.CheckpointGen)
		}
	} else {
		fmt.Printf("wal:        none (writes are not durable across restarts)\n")
	}
	return nil
}

func runQuery(args []string) error {
	fs := flag.NewFlagSet("query", flag.ExitOnError)
	keyIn := fs.String("key", "user.key", "user key file")
	queriesIn := fs.String("queries", "", "query fvecs file (required)")
	addr := fs.String("addr", "127.0.0.1:7070", "server address")
	addrs := fs.String("addrs", "", `replicated topology: stripes split by ';', replicas by ',' (overrides -addr)`)
	k := fs.Int("k", 10, "neighbors per query")
	ratio := fs.Int("ratio", 16, "Ratio_k: each query asks for k' = ratio·k filter candidates")
	limit := fs.Int("limit", 10, "max queries to run (0 = all)")
	hedge := fs.Duration("hedge", 0, "with -addrs: hedge reads to a sibling replica after this budget (0 = off)")
	partial := fs.Bool("partial", false, "with -addrs: return best-effort results when a whole stripe is down")
	filter := fs.String("filter", "exact", "filter distance provider: exact | pq (pq needs a db built with encrypt -pq)")
	fs.Parse(args)
	if *queriesIn == "" {
		return fmt.Errorf("query: -queries is required")
	}
	if err := errors.Join(atLeast("query", "ratio", *ratio, 1), atLeast("query", "limit", *limit, 0)); err != nil {
		return err
	}
	var fd core.FilterDistMode
	switch *filter {
	case "exact":
		fd = core.FilterExact
	case "pq":
		fd = core.FilterPQ
	default:
		return fmt.Errorf("query: unknown -filter %q (want exact or pq)", *filter)
	}

	f, err := os.Open(*keyIn)
	if err != nil {
		return err
	}
	key, err := ppanns.LoadUserKey(f)
	f.Close()
	if err != nil {
		return err
	}
	user, err := ppanns.NewUser(key)
	if err != nil {
		return err
	}
	qs, err := vec.LoadFvecsFile(*queriesIn, *limit)
	if err != nil {
		return err
	}

	if *addrs != "" {
		return queryReplicated(user, qs, *addrs, *k, *ratio, fd, *hedge, *partial)
	}

	client, err := transport.DialWith(*addr, dialOpts)
	if err != nil {
		return err
	}
	defer client.Close()
	info, err := client.Info()
	if err != nil {
		return fmt.Errorf("info: %w", err)
	}
	fmt.Printf("server: %d vectors, %s index\n", info.N, info.Backend)

	for i := 0; i < qs.Len(); i++ {
		tok, err := user.Query(qs.At(i))
		if err != nil {
			return err
		}
		ids, err := client.Search(tok, *k, core.SearchOptions{KPrime: *ratio * *k, FilterDist: fd})
		if err != nil {
			return err
		}
		fmt.Printf("query %d: %v\n", i, ids)
	}
	return nil
}

// queryReplicated runs the query workload against a replicated shard
// topology: each stripe's replicas fan out with breaker-guarded failover,
// optional hedging, and optional best-effort partial results.
func queryReplicated(user *ppanns.User, qs *vec.Dataset, addrs string, k, ratio int, fd core.FilterDistMode, hedge time.Duration, partial bool) error {
	var sets [][]shard.Shard
	var closers []*transport.Client
	defer func() {
		for _, r := range closers {
			r.Close()
		}
	}()
	for s, stripe := range strings.Split(addrs, ";") {
		var replicas []shard.Shard
		for _, a := range strings.Split(stripe, ",") {
			a = strings.TrimSpace(a)
			if a == "" {
				continue
			}
			c := transport.NewClient(a, dialOpts)
			closers = append(closers, c)
			replicas = append(replicas, c)
		}
		if len(replicas) == 0 {
			return fmt.Errorf("query: stripe %d of -addrs has no replica addresses", s)
		}
		sets = append(sets, replicas)
	}
	coord, err := shard.NewReplicated(sets, shard.Options{HedgeAfter: hedge, AllowPartial: partial})
	if err != nil {
		return err
	}
	fmt.Printf("replicated topology: %d stripes, %d vectors total\n", coord.Shards(), coord.Len())

	for i := 0; i < qs.Len(); i++ {
		tok, err := user.Query(qs.At(i))
		if err != nil {
			return err
		}
		ids, err := coord.Search(tok, k, core.SearchOptions{KPrime: ratio * k, FilterDist: fd})
		var pe *shard.PartialError
		switch {
		case errors.As(err, &pe):
			fmt.Printf("query %d (partial, stripes %v down): %v\n", i, pe.Stripes, ids)
		case err != nil:
			return err
		default:
			fmt.Printf("query %d: %v\n", i, ids)
		}
	}
	for _, h := range coord.Health() {
		if h.State != shard.BreakerClosed {
			fmt.Printf("health: stripe %d replica %d breaker %s\n", h.Stripe, h.Replica, h.State)
		}
	}
	return nil
}

func writeFvecs(path string, vectors [][]float64) error {
	return wal.WriteFileAtomic(path, func(w io.Writer) error {
		return vec.WriteFvecs(w, vec.DatasetFromSlices(vectors))
	})
}

// Command ppanns-bench regenerates the paper's evaluation: every table and
// figure of Section VII maps to an experiment id.
//
// Usage:
//
//	ppanns-bench -exp fig4 [-n 8000] [-queries 50] [-k 10] [-datasets sift,deep] [-full]
//	ppanns-bench -exp all            # run the whole evaluation
//	ppanns-bench -list               # list experiment ids
//
// Scales default to laptop size; -n/-queries grow them and -full lifts the
// caps protecting the 960-dimensional and AME-heavy pieces. The corpora are
// synthetic stand-ins, so shapes, not absolute numbers, are the
// reproduction target (README, "Reproducing the paper's evaluation").
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime/pprof"
	"strings"
	"time"

	"ppanns/internal/bench"
)

func main() {
	var (
		exp        = flag.String("exp", "", "experiment id (see -list) or \"all\"")
		list       = flag.Bool("list", false, "list experiments and exit")
		n          = flag.Int("n", 8000, "database size per dataset")
		queries    = flag.Int("queries", 50, "number of queries")
		k          = flag.Int("k", 10, "result size k")
		seed       = flag.Uint64("seed", 42, "experiment seed")
		datasets   = flag.String("datasets", "", "comma-separated dataset subset (sift,gist,glove,deep)")
		full       = flag.Bool("full", false, "lift laptop-scale caps (gist-size AME pieces)")
		cpuprofile = flag.String("cpuprofile", "", "write a pprof CPU profile of the experiment run to this file")
	)
	flag.Parse()

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "ppanns-bench: creating %s: %v\n", *cpuprofile, err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "ppanns-bench: starting CPU profile: %v\n", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}

	if *list {
		for _, e := range bench.Registry() {
			fmt.Printf("%-10s %s\n", e.ID, e.Title)
		}
		return
	}
	if *exp == "" {
		fmt.Fprintln(os.Stderr, "ppanns-bench: -exp is required (use -list to enumerate)")
		os.Exit(2)
	}

	cfg := bench.Config{
		N: *n, Queries: *queries, K: *k, Seed: *seed, Full: *full, Out: os.Stdout,
	}
	if *datasets != "" {
		cfg.Datasets = strings.Split(*datasets, ",")
	}

	var exps []bench.Experiment
	if *exp == "all" {
		exps = bench.Registry()
	} else {
		e, err := bench.Lookup(*exp)
		if err != nil {
			fmt.Fprintf(os.Stderr, "ppanns-bench: %v\n", err)
			os.Exit(2)
		}
		exps = []bench.Experiment{e}
	}
	for _, e := range exps {
		start := time.Now()
		fmt.Printf("==== %s — %s ====\n", e.ID, e.Title)
		if err := e.Run(cfg); err != nil {
			fmt.Fprintf(os.Stderr, "ppanns-bench: %s: %v\n", e.ID, err)
			os.Exit(1)
		}
		fmt.Printf("---- %s done in %v ----\n\n", e.ID, time.Since(start).Round(time.Millisecond))
	}
}

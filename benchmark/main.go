// Command benchmark is the repository's one standing benchmark: four
// workloads driven through the entry points the three roles call
// (core.DataOwner, core.User, core.Server, transport.Client,
// shard.Coordinator), the metrics a user, the cloud operator and the data
// owner see, a correctness gate in every run, and a separate traced pass
// that times each layer from outside. BENCHMARK.json is its contract;
// README.md in this directory explains the metrics and the workloads.
//
//	go run ./benchmark -workload embed-deep -seed 1 -seconds 10 -trace 0
//	go run ./benchmark -all        every metric of every workload, by name
//	go run ./benchmark -aa         two sets of runs of the same code, compared with the bounds
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
)

func main() {
	var (
		workload = flag.String("workload", "", "workload to run: embed-deep, wire-gist, scale-pq or cluster-mixed")
		seed     = flag.Uint64("seed", 1, "drives the data, the keys and the operation schedule")
		seconds  = flag.Int("seconds", 10, "length of the measured phase")
		trace    = flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: single traced caller, per-layer metrics")
		all      = flag.Bool("all", false, "run every workload, untraced and traced, and print every metric")
		aa       = flag.Bool("aa", false, "run every workload three times, twice over, and compare the two sets with the bounds")
		smoke    = flag.Bool("smoke", false, "shrink every database to 2000 vectors: the shape of every path in seconds")
		outDir   = flag.String("out", filepath.Join("benchmark", "out"), "directory for trace files and WAL directories")
	)
	flag.Parse()
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fatal(err)
	}
	size := func(sp spec) spec {
		if *smoke {
			sp.n = smokeN
		}
		return sp
	}
	fmt.Println(stampHost())
	switch {
	case *aa:
		childArgs := []string{"-seconds", fmt.Sprint(*seconds), "-trace", "0", "-out", *outDir, fmt.Sprintf("-smoke=%t", *smoke)}
		os.Exit(runAA(childArgs, *seed))
	case *all:
		ok := true
		for _, sp := range specs {
			for _, traced := range []bool{false, true} {
				cfg := config{sp: size(sp), seed: *seed, seconds: *seconds, outDir: *outDir}
				res, err := runOne(cfg, traced)
				if err != nil {
					fatal(err)
				}
				ok = ok && res.correct()
			}
		}
		if !ok {
			os.Exit(1)
		}
	default:
		sp, err := specByName(*workload)
		if err != nil {
			fatal(err)
		}
		cfg := config{sp: size(sp), seed: *seed, seconds: *seconds, outDir: *outDir}
		res, err := runOne(cfg, *trace != 0)
		if err != nil {
			fatal(err)
		}
		defs := endToEnd
		if *trace != 0 {
			defs = perLayer
		}
		line, err := json.Marshal(struct {
			Correct   bool                   `json:"correct"`
			Attempted int                    `json:"attempted"`
			Failed    int                    `json:"failed"`
			Metrics   map[string]metricValue `json:"metrics"`
		}{res.correct(), res.attempted, res.failed, collect(defs, res.values)})
		if err != nil {
			fatal(err)
		}
		fmt.Println(string(line))
		if !res.correct() {
			os.Exit(1)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(2)
}

// runOne runs a workload once, traced or not, and prints what it measured:
// every metric by name with its unit, the notes on samples and spread, and
// anything that makes the run incorrect.
func runOne(cfg config, traced bool) (*result, error) {
	run, defs, mode := runEndToEnd, endToEnd, "end-to-end"
	if traced {
		run, defs, mode = runTraced, perLayer, "per-layer (traced, single caller)"
	}
	res, err := run(cfg)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", cfg.sp.name, err)
	}
	fmt.Printf("== %s  %s  seed=%d seconds=%d n=%d d=%s k=%d k'=%d beta=%g\n",
		cfg.sp.name, mode, cfg.seed, cfg.seconds, cfg.sp.n, cfg.sp.data, k, cfg.sp.kPrime, cfg.sp.beta)
	if !traced {
		defs = slices.Concat(defs, loadMetrics)
	}
	for _, d := range defs {
		fmt.Printf("%-32s %14.4f %s\n", d.name, res.values[d.name], d.unit)
	}
	for _, n := range res.notes {
		fmt.Println("  " + n)
	}
	fmt.Printf("  attempted %d, failed %d (failed_frac %.6f)\n", res.attempted, res.failed,
		float64(res.failed)/float64(max(res.attempted, 1)))
	for _, v := range res.violations {
		fmt.Println("  VIOLATION: " + v)
	}
	return res, nil
}

const aaRuns = 3 // runs per set and workload

// runAA runs two full sets of end-to-end runs of the same code back to
// back — each set is aaRuns runs per workload, seeds seed, seed+1, …, every
// run a process of its own, as the driver's are — and prints, per metric
// and workload, how far the second set's median is from the first's beside
// the bound, and the spread within the first set. It returns 1 if any
// metric got worse by more than its bound or any run was incorrect.
func runAA(childArgs []string, seed uint64) int {
	type key struct{ workload, metric string }
	sets := [2]map[key][]float64{{}, {}}
	for set := range sets {
		for _, sp := range specs {
			for r := 0; r < aaRuns; r++ {
				args := append([]string{"-workload", sp.name, "-seed", fmt.Sprint(seed + uint64(r))}, childArgs...)
				cmd := exec.Command(os.Args[0], args...)
				cmd.Stderr = os.Stderr
				out, err := cmd.Output()
				os.Stdout.Write(out)
				if err != nil {
					fmt.Fprintln(os.Stderr, "benchmark:", sp.name, err)
					return 1
				}
				lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
				var res struct{ Metrics map[string]metricValue }
				if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
					fatal(err)
				}
				for name, m := range res.Metrics {
					id := key{sp.name, name}
					sets[set][id] = append(sets[set][id], m.Value)
				}
			}
		}
	}
	breaches := 0
	fmt.Printf("\n== A/A: %d runs per set, seeds %d..%d\n", aaRuns, seed, seed+aaRuns-1)
	fmt.Printf("%-14s %-14s %12s %12s %9s %7s %9s\n", "workload", "metric", "median A", "median B", "worse by", "bound", "IQR/med A")
	for _, sp := range specs {
		for _, d := range endToEnd {
			a, b := sets[0][key{sp.name, d.name}], sets[1][key{sp.name, d.name}]
			ma, mb := median(a), median(b)
			worse := (mb - ma) / ma
			if d.better == "higher" {
				worse = -worse
			}
			mark := ""
			if worse > d.bound {
				mark = "  BREACH"
				breaches++
			}
			fmt.Printf("%-14s %-14s %12.4f %12.4f %+8.2f%% %6.0f%% %8.2f%%%s\n",
				sp.name, d.name, ma, mb, 100*worse, 100*d.bound, 100*iqrFrac(a), mark)
		}
	}
	if breaches > 0 {
		return 1
	}
	return 0
}

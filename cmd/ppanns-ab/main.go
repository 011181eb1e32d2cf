// Command ppanns-ab compares a parent revision with the working tree on the
// standing benchmark, in the paired procedure benchmark/README.md sets for
// a claim: N pairs of runs, alternating which side runs first, each side
// built from its own checkout by its own benchmark/run.sh.
//
//	go run ./cmd/ppanns-ab -workload cluster-mixed -seed 1 [-rev HEAD] [-pairs 10] [-seconds 10] [-traces 0,1]
//
// The parent is -rev, extracted with git archive into .bench_build/ab/parent;
// the change is the working tree, extracted the same way into
// .bench_build/ab/change from a commit `git stash create` makes of it (or
// HEAD when the tree is clean), so untracked files are left out until they
// are added. Nothing is fetched. Each run's output is kept in
// .bench_build/ab/logs. For every metric of each run's final JSON line it
// prints both sides' medians with quartiles, the per-pair ratio
// change/parent (median, quartiles, min–max) and the change's wins, and
// says whether the README's rule for a gain holds: at least nine pairs in
// ten won, and a median gap wider than the parent's IQR.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

func main() {
	var (
		rev      = flag.String("rev", "HEAD", "the parent revision")
		workload = flag.String("workload", "", "the benchmark workload (BENCHMARK.json)")
		seed     = flag.Int("seed", 1, "the seed of every run")
		pairs    = flag.Int("pairs", 10, "pairs of runs per trace mode")
		seconds  = flag.Int("seconds", 10, "length of each run's measured phase")
		traces   = flag.String("traces", "0,1", "trace modes to run, in order")
	)
	flag.Parse()
	if *workload == "" || *pairs < 1 {
		fmt.Fprintln(os.Stderr, "usage: ppanns-ab -workload NAME [-seed N] [-rev REV] [-pairs N] [-seconds S] [-traces 0,1]")
		os.Exit(2)
	}
	if err := run(*rev, *workload, *seed, *pairs, *seconds, strings.Split(*traces, ",")); err != nil {
		fmt.Fprintln(os.Stderr, "ppanns-ab:", err)
		os.Exit(1)
	}
}

// sides are the two checkouts, parent first.
var sides = [2]string{"parent", "change"}

func run(rev, workload string, seed, pairs, seconds int, traces []string) error {
	root, err := git("", "rev-parse", "--show-toplevel")
	if err != nil {
		return err
	}
	change, err := git(root, "stash", "create")
	if err != nil {
		return err
	}
	if change == "" {
		change = "HEAD"
	}
	var dirs [2]string
	for i, r := range [2]string{rev, change} {
		dirs[i] = filepath.Join(root, ".bench_build", "ab", sides[i])
		if err := extract(root, r, dirs[i]); err != nil {
			return err
		}
	}
	better, err := directions(filepath.Join(dirs[0], "BENCHMARK.json"))
	if err != nil {
		return err
	}
	logs := filepath.Join(root, ".bench_build", "ab", "logs")
	if err := os.MkdirAll(logs, 0o755); err != nil {
		return err
	}
	incorrect := false
	for _, trace := range traces {
		var runs [2][]result
		for p := 0; p < pairs; p++ {
			order := []int{0, 1}
			if p%2 == 1 {
				order = []int{1, 0}
			}
			for _, s := range order {
				res, err := runSide(dirs[s], workload, seed, seconds, trace)
				log := filepath.Join(logs, fmt.Sprintf("%s-seed%d-trace%s-pair%02d-%s.txt", workload, seed, trace, p+1, sides[s]))
				if werr := os.WriteFile(log, res.out, 0o644); err == nil {
					err = werr
				}
				if err != nil {
					return fmt.Errorf("%s, pair %d: %w", sides[s], p+1, err)
				}
				fmt.Fprintf(os.Stderr, "trace %s pair %d/%d %s: %.1f s\n", trace, p+1, pairs, sides[s], res.wall.Seconds())
				runs[s] = append(runs[s], res)
			}
		}
		fmt.Printf("\n== %s seed %d, --seconds %d --trace %s, %d pairs; parent %s, change %s\n",
			workload, seed, seconds, trace, pairs, rev, change)
		for s := range sides {
			var attempted, failed, wrong int
			for _, r := range runs[s] {
				attempted += r.Attempted
				failed += r.Failed
				if !r.Correct {
					wrong++
				}
			}
			incorrect = incorrect || wrong > 0
			fmt.Printf("%-6s %s\n       %d of %d runs incorrect; %d of %d operations failed\n",
				sides[s], runs[s][0].host, wrong, len(runs[s]), failed, attempted)
		}
		printTable(os.Stdout, runs, better)
	}
	if incorrect {
		return fmt.Errorf("a run was incorrect")
	}
	return nil
}

func git(dir string, args ...string) (string, error) {
	cmd := exec.Command("git", args...)
	cmd.Dir = dir
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return "", fmt.Errorf("git %s: %w", strings.Join(args, " "), err)
	}
	return strings.TrimSpace(string(out)), nil
}

// extract makes dir a checkout of rev: everything in it but its own
// .bench_build (run.sh's build cache) is replaced by git archive's files.
func extract(root, rev, dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	for _, e := range ents {
		if e.Name() != ".bench_build" {
			if err := os.RemoveAll(filepath.Join(dir, e.Name())); err != nil {
				return err
			}
		}
	}
	archive := exec.Command("git", "archive", "--format=tar", rev)
	archive.Dir = root
	archive.Stderr = os.Stderr
	untar := exec.Command("tar", "-x", "-C", dir)
	untar.Stderr = os.Stderr
	if untar.Stdin, err = archive.StdoutPipe(); err != nil {
		return err
	}
	if err := untar.Start(); err != nil {
		return err
	}
	aerr := archive.Run()
	if err := untar.Wait(); err != nil {
		return fmt.Errorf("extract %s: tar: %w", rev, err)
	}
	if aerr != nil {
		return fmt.Errorf("extract %s: git archive: %w", rev, aerr)
	}
	return nil
}

// directions reads each metric's "better" from a BENCHMARK.json.
func directions(path string) (map[string]string, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	type metric struct{ Name, Better string }
	var contract struct {
		EndToEnd []metric `json:"end_to_end"`
		PerLayer []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &contract); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	better := map[string]string{}
	for _, m := range append(contract.EndToEnd, contract.PerLayer...) {
		better[m.Name] = m.Better
	}
	return better, nil
}

// result is one run: its final JSON line, its host stamp (the first line
// it prints), all it printed and its wall time.
type result struct {
	Correct   bool
	Attempted int
	Failed    int
	Metrics   map[string]struct{ Value float64 }
	host      string
	out       []byte
	wall      time.Duration
}

func runSide(dir, workload string, seed, seconds int, trace string) (result, error) {
	cmd := exec.Command("bash", "benchmark/run.sh", "--workload", workload,
		"--seed", fmt.Sprint(seed), "--seconds", fmt.Sprint(seconds), "--trace", trace)
	cmd.Dir = dir
	cmd.Stderr = os.Stderr
	t0 := time.Now()
	out, err := cmd.Output()
	res := result{out: out, wall: time.Since(t0)}
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	// An incorrect run exits 1 after its JSON line; anything else failed.
	if jerr := json.Unmarshal(lines[len(lines)-1], &res); jerr != nil {
		if err == nil {
			err = jerr
		}
		return res, fmt.Errorf("no result line: %w", err)
	}
	res.host = string(lines[0])
	return res, nil
}

// row is one metric's comparison over the pairs.
type row struct {
	parent, change [3]float64 // q1, median, q3
	ratio          [5]float64 // min, q1, median, q3, max of change/parent
	wins, pairs    int
	gap, parentIQR float64 // the medians' distance in the better direction; parent q3 − q1
	gain           bool    // wins ≥ 9/10 of pairs and gap > parentIQR
}

// compare pairs parent[i] with change[i]; better is "lower" or "higher".
// A tie is a win for neither side.
func compare(better string, parent, change []float64) row {
	r := row{pairs: len(parent)}
	ratios := make([]float64, 0, len(parent))
	for i := range parent {
		d := change[i] - parent[i]
		if better == "higher" {
			d = -d
		}
		if d < 0 {
			r.wins++
		}
		if parent[i] != 0 {
			ratios = append(ratios, change[i]/parent[i])
		}
	}
	r.parent, r.change = spread(parent), spread(change)
	rs := spread(ratios)
	r.ratio = [5]float64{math.NaN(), rs[0], rs[1], rs[2], math.NaN()}
	if len(ratios) > 0 {
		sort.Float64s(ratios)
		r.ratio[0], r.ratio[4] = ratios[0], ratios[len(ratios)-1]
	}
	r.gap = r.parent[1] - r.change[1]
	if better == "higher" {
		r.gap = -r.gap
	}
	r.parentIQR = r.parent[2] - r.parent[0]
	r.gain = 10*r.wins >= 9*r.pairs && r.gap > r.parentIQR
	return r
}

// spread returns the first quartile, the median and the third quartile of
// xs, the quartiles by Python's statistics.quantiles(xs, n=4) ("exclusive"
// method), as benchmark/stats.go takes them.
func spread(xs []float64) [3]float64 {
	n := len(xs)
	if n == 0 {
		return [3]float64{math.NaN(), math.NaN(), math.NaN()}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	med := s[n/2]
	if n%2 == 0 {
		med = (s[n/2-1] + s[n/2]) / 2
	}
	if n == 1 {
		return [3]float64{s[0], s[0], s[0]}
	}
	at := func(i int) float64 {
		j := i * (n + 1) / 4
		delta := i*(n+1) - j*4
		if j < 1 {
			j, delta = 1, 0
		}
		if j > n-1 {
			j, delta = n-1, 4
		}
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return [3]float64{at(1), med, at(3)}
}

// printTable prints one row per metric the runs report, in name order.
func printTable(w io.Writer, runs [2][]result, better map[string]string) {
	names := make([]string, 0, len(runs[0][0].Metrics))
	for name := range runs[0][0].Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%-30s %-6s %-34s %-34s %-34s %5s  %s\n", "metric", "better",
		"parent median [q1 q3]", "change median [q1 q3]", "ratio median [q1 q3] min–max", "wins", "gain")
	for _, name := range names {
		var vals [2][]float64
		for s := range runs {
			for _, r := range runs[s] {
				vals[s] = append(vals[s], r.Metrics[name].Value)
			}
		}
		b := better[name]
		if b == "" {
			b = "lower"
		}
		r := compare(b, vals[0], vals[1])
		verdict := "no"
		if r.gain {
			verdict = "yes"
		}
		fmt.Fprintf(w, "%-30s %-6s %-34s %-34s %-34s %2d/%-2d  %s (gap %.4g, parent IQR %.4g)\n", name, b,
			fmt.Sprintf("%.4g [%.4g %.4g]", r.parent[1], r.parent[0], r.parent[2]),
			fmt.Sprintf("%.4g [%.4g %.4g]", r.change[1], r.change[0], r.change[2]),
			fmt.Sprintf("%.3f [%.3f %.3f] %.3f–%.3f", r.ratio[2], r.ratio[1], r.ratio[3], r.ratio[0], r.ratio[4]),
			r.wins, r.pairs, verdict, r.gap, r.parentIQR)
	}
}

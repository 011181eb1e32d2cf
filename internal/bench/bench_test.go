package bench

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"ppanns/internal/dataset"
)

// tinyCfg keeps experiment smoke tests in CI time.
func tinyCfg(buf *bytes.Buffer) Config {
	return Config{N: 600, Queries: 8, K: 5, Seed: 7, Out: buf}
}

func TestRegistryAndLookup(t *testing.T) {
	reg := Registry()
	if len(reg) != 13 {
		t.Fatalf("registry has %d experiments", len(reg))
	}
	for _, e := range reg {
		if _, err := Lookup(e.ID); err != nil {
			t.Fatalf("Lookup(%q): %v", e.ID, err)
		}
	}
	if _, err := Lookup("fig99"); err == nil {
		t.Fatal("expected error for unknown experiment")
	}
}

func TestTable1Output(t *testing.T) {
	var buf bytes.Buffer
	cfg := tinyCfg(&buf)
	cfg.Datasets = []string{"sift", "deep"}
	if err := Table1(cfg); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"sift-like", "deep-like", "128", "96"} {
		if !strings.Contains(out, want) {
			t.Fatalf("table1 output missing %q:\n%s", want, out)
		}
	}
}

func TestAttackOutput(t *testing.T) {
	var buf bytes.Buffer
	if err := Attack(tinyCfg(&buf)); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"linear", "exponential", "logarithmic", "square", "DCE"} {
		if !strings.Contains(out, want) {
			t.Fatalf("attack output missing %q:\n%s", want, out)
		}
	}
}

func TestFig8Output(t *testing.T) {
	var buf bytes.Buffer
	if err := Fig8(tinyCfg(&buf)); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "DCPE") || !strings.Contains(buf.String(), "AME") {
		t.Fatalf("fig8 output malformed:\n%s", buf.String())
	}
}

func TestFig4Tiny(t *testing.T) {
	var buf bytes.Buffer
	cfg := tinyCfg(&buf)
	cfg.Datasets = []string{"deep"}
	if err := Fig4(cfg); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "beta=0") {
		t.Fatalf("fig4 output malformed:\n%s", buf.String())
	}
}

// TestFig6SweepsKPrime holds Figure 6's refined rows to a real sweep: the
// DCE row's recall at k′ = 16k must exceed its recall at k′ = k. A sweep
// of ef at a fixed k′ above it prints one point five times and fails here.
func TestFig6SweepsKPrime(t *testing.T) {
	var buf bytes.Buffer
	cfg := tinyCfg(&buf)
	cfg.Datasets = []string{"deep"}
	if err := Fig6(cfg); err != nil {
		t.Fatal(err)
	}
	var recalls []float64
	for _, line := range strings.Split(buf.String(), "\n") {
		if !strings.HasPrefix(line, "HNSW-dce ") {
			continue
		}
		for _, cell := range strings.Split(line, " | ")[1:] {
			var knob string
			var w int
			var r float64
			if _, err := fmt.Sscanf(cell, "%2s=%d r=%f", &knob, &w, &r); err != nil {
				t.Fatalf("fig6 DCE cell %q: %v", cell, err)
			}
			recalls = append(recalls, r)
		}
	}
	if len(recalls) != 5 {
		t.Fatalf("fig6 DCE row has %d points, want 5:\n%s", len(recalls), buf.String())
	}
	if recalls[4] <= recalls[0] {
		t.Fatalf("fig6 DCE recall %.3f at k'=16k does not exceed %.3f at k'=k:\n%s", recalls[4], recalls[0], buf.String())
	}
}

func TestFig10Tiny(t *testing.T) {
	var buf bytes.Buffer
	cfg := tinyCfg(&buf)
	cfg.N = 400
	cfg.Datasets = []string{"deep"}
	if err := Fig10(cfg); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "1600") { // 4× base size row
		t.Fatalf("fig10 missing the x4 row:\n%s", out)
	}
}

func TestMaintainTiny(t *testing.T) {
	var buf bytes.Buffer
	cfg := tinyCfg(&buf)
	cfg.N = 500
	cfg.Queries = 5
	if err := Maintain(cfg); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "recall@10") {
		t.Fatalf("maintain output malformed:\n%s", buf.String())
	}
}

func TestDeploymentMeasure(t *testing.T) {
	d := dataset.DeepLike(800, 10, 11)
	dep, err := newDeployment(d, coreParamsFor(d, 0.05, 11))
	if err != nil {
		t.Fatal(err)
	}
	p, err := dep.measure(5, searchOpts(5, 8, 80))
	if err != nil {
		t.Fatal(err)
	}
	if p.Recall < 0.7 || p.QPS <= 0 || p.Latency <= 0 {
		t.Fatalf("implausible measurement: %+v", p)
	}
}

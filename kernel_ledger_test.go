package ppanns_test

import (
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// TestKernelLedger holds README's kernel ledger to the assembly: every TEXT
// body of an internal package has a row in the ledger table, every row
// names a body that exists, and every row of the deleted-bodies table names
// one that does not (a body brought back moves its row to the ledger). The
// CPU feature probes of internal/simd are not kernels and have no row.
func TestKernelLedger(t *testing.T) {
	bodies := map[string]string{} // body → file
	files, err := filepath.Glob("internal/*/*.s")
	if err != nil {
		t.Fatal(err)
	}
	text := regexp.MustCompile(`(?m)^TEXT\s+·(\w+)\(SB\)`)
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range text.FindAllStringSubmatch(string(b), -1) {
			if m[1] != "cpuid" && m[1] != "xgetbv" {
				bodies[m[1]] = f
			}
		}
	}
	if len(bodies) == 0 {
		t.Fatal("no assembly body found under internal/")
	}

	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	ledger, deleted := ledgerTables(t, string(readme))
	for body, f := range bodies {
		if !slices.Contains(ledger, body) {
			t.Errorf("%s (%s) has no row in README's kernel ledger", body, f)
		}
	}
	for _, body := range ledger {
		if _, ok := bodies[body]; !ok {
			t.Errorf("README's kernel ledger has a row for %s, which no .s file defines", body)
		}
	}
	for _, body := range deleted {
		if f, ok := bodies[body]; ok {
			t.Errorf("%s (%s) is listed among the deleted bodies; move its row to the ledger", body, f)
		}
	}
}

// ledgerTables returns the body names of the rows of the two tables in
// README's "Kernel dispatch" section: the first, the ledger, and the
// second, the deleted bodies. A row's body is its first cell, in
// backquotes.
func ledgerTables(t *testing.T, readme string) (ledger, deleted []string) {
	t.Helper()
	_, section, ok := strings.Cut(readme, "\n### Kernel dispatch\n")
	if !ok {
		t.Fatal("README has no \"### Kernel dispatch\" section")
	}
	if end := strings.Index(section, "\n### "); end >= 0 {
		section = section[:end]
	}
	cell := regexp.MustCompile("^\\|\\s*`(\\w+)`\\s*\\|")
	var tables [][]string
	inTable := false
	for _, line := range strings.Split(section, "\n") {
		if !strings.HasPrefix(line, "|") {
			inTable = false
			continue
		}
		if !inTable {
			tables = append(tables, nil)
			inTable = true
		}
		if m := cell.FindStringSubmatch(line); m != nil {
			tables[len(tables)-1] = append(tables[len(tables)-1], m[1])
		}
	}
	if len(tables) != 2 {
		t.Fatalf("README's kernel dispatch section has %d tables, want 2 (the ledger, the deleted bodies)", len(tables))
	}
	return tables[0], tables[1]
}

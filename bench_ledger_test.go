package bicoop_test

// bench_ledger_test.go — guards the performance ledger against silent rot.
// scripts/bench.sh selects the ledgered benchmarks with hand-maintained
// regex lists; before this test, renaming a benchmark (or adding a new one)
// could silently drop it from BENCH_*.json and the CI bench gate. Now:
//
//   - every pattern alternative must match a benchmark that still exists
//     (catches renames and typos);
//   - every benchmark function in the ledgered packages must match a
//     pattern (catches new benchmarks being forgotten: a benchmark that no
//     gate reads does not belong in the tree);
//   - every name in the committed ledgers must correspond to an existing
//     benchmark function (catches stale ledgers).
//
// The disappeared-benchmark direction at run time is covered by `benchjson
// compare`, which fails when a ledger entry goes missing.

import (
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// ledgerDirs are the packages scripts/bench.sh benchmarks.
var ledgerDirs = []string{".", "internal/protocols", "internal/sim", "internal/simplex", "internal/sweep", "internal/service", "internal/cache", "internal/gf2"}

var benchFuncRE = regexp.MustCompile(`(?m)^func (Benchmark[A-Za-z0-9_]+)\(b \*testing\.B\)`)

// sourceBenchmarks scans the ledgered packages for benchmark functions.
func sourceBenchmarks(t *testing.T) map[string]bool {
	t.Helper()
	out := map[string]bool{}
	for _, dir := range ledgerDirs {
		files, err := filepath.Glob(filepath.Join(dir, "*_test.go"))
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range files {
			src, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			for _, m := range benchFuncRE.FindAllStringSubmatch(string(src), -1) {
				out[m[1]] = true
			}
		}
	}
	if len(out) == 0 {
		t.Fatal("found no benchmark functions — scan broken?")
	}
	return out
}

// benchPatterns extracts the regex alternatives from scripts/bench.sh.
func benchPatterns(t *testing.T) []string {
	t.Helper()
	src, err := os.ReadFile(filepath.Join("scripts", "bench.sh"))
	if err != nil {
		t.Fatal(err)
	}
	re := regexp.MustCompile(`(?m)^(?:bit)?pattern='([^']+)'`)
	ms := re.FindAllStringSubmatch(string(src), -1)
	if len(ms) != 2 {
		t.Fatalf("expected pattern= and bitpattern= in bench.sh, found %d", len(ms))
	}
	var alts []string
	for _, m := range ms {
		alts = append(alts, strings.Split(m[1], "|")...)
	}
	return alts
}

func TestBenchLedgerCoverage(t *testing.T) {
	src := sourceBenchmarks(t)
	alts := benchPatterns(t)

	// Every pattern alternative matches at least one existing benchmark.
	matched := map[string]bool{}
	for _, alt := range alts {
		re, err := regexp.Compile(alt)
		if err != nil {
			t.Fatalf("bench.sh alternative %q does not compile: %v", alt, err)
		}
		hit := false
		for name := range src {
			if re.MatchString(name) {
				matched[name] = true
				hit = true
			}
		}
		if !hit {
			t.Errorf("bench.sh pattern %q matches no existing benchmark (renamed or removed?)", alt)
		}
	}

	// Every source benchmark is ledgered.
	for name := range src {
		if !matched[name] {
			t.Errorf("benchmark %s is not matched by scripts/bench.sh — add it to the ledger or delete it", name)
		}
	}
}

// TestLedgerNamesExist pins every committed ledger entry to a live
// benchmark function.
func TestLedgerNamesExist(t *testing.T) {
	src := sourceBenchmarks(t)
	for _, path := range []string{"BENCH_baseline.json", "BENCH_after.json"} {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%s: %v (the ledger must stay committed)", path, err)
		}
		var ledger struct {
			Benchmarks []struct {
				Name string `json:"name"`
			} `json:"benchmarks"`
		}
		if err := json.Unmarshal(data, &ledger); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		if len(ledger.Benchmarks) == 0 {
			t.Fatalf("%s: empty ledger", path)
		}
		for _, b := range ledger.Benchmarks {
			name := b.Name
			if i := strings.IndexByte(name, '/'); i > 0 {
				name = name[:i] // sub-benchmark: Name/Case
			}
			if !src[name] {
				t.Errorf("%s lists %s, but no such benchmark function exists", path, b.Name)
			}
		}
	}
}

package main

import (
	"bufio"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func ledger(results ...Result) Ledger {
	return Ledger{Goos: "linux", Goarch: "amd64", Benchmarks: results}
}

func baseLedger() Ledger {
	return ledger(
		Result{Name: "BenchmarkFast", Iterations: 1000, NsPerOp: 100},
		Result{Name: "BenchmarkZeroAlloc", Iterations: 1000, NsPerOp: 2000, AllocsPerOp: 0},
		Result{Name: "BenchmarkAllocs", Iterations: 1000, NsPerOp: 5000, AllocsPerOp: 10, BytesPerOp: 512},
	)
}

func regressionsOf(probs []problem) []string {
	var out []string
	for _, p := range probs {
		if p.regression {
			out = append(out, p.name+": "+p.msg)
		}
	}
	return out
}

func TestCompareClean(t *testing.T) {
	old := baseLedger()
	now := baseLedger()
	now.Benchmarks[0].NsPerOp = 110 // within threshold
	if regs := regressionsOf(compareLedgers(old, now, 1.25, 1.25)); len(regs) != 0 {
		t.Errorf("clean compare found regressions: %v", regs)
	}
}

func TestCompareTimeRegression(t *testing.T) {
	old := baseLedger()
	now := baseLedger()
	now.Benchmarks[0].NsPerOp = 160 // 1.6x > 1.25x
	regs := regressionsOf(compareLedgers(old, now, 1.25, 1.25))
	if len(regs) != 1 || !strings.Contains(regs[0], "BenchmarkFast") || !strings.Contains(regs[0], "time regressed") {
		t.Errorf("regressions = %v, want one BenchmarkFast time regression", regs)
	}
	// The same delta passes under a looser threshold.
	if regs := regressionsOf(compareLedgers(old, now, 2.0, 2.0)); len(regs) != 0 {
		t.Errorf("loose threshold still fails: %v", regs)
	}
}

func TestCompareZeroAllocKernel(t *testing.T) {
	old := baseLedger()
	now := baseLedger()
	now.Benchmarks[1].AllocsPerOp = 1 // 0 -> 1 must fail regardless of threshold
	regs := regressionsOf(compareLedgers(old, now, 10, 10))
	if len(regs) != 1 || !strings.Contains(regs[0], "zero-alloc") {
		t.Errorf("regressions = %v, want the zero-alloc kernel failure", regs)
	}
}

func TestCompareAllocGrowth(t *testing.T) {
	old := baseLedger()
	now := baseLedger()
	now.Benchmarks[2].AllocsPerOp = 40 // 4x and +30 over slack
	regs := regressionsOf(compareLedgers(old, now, 1.25, 1.25))
	if len(regs) != 1 || !strings.Contains(regs[0], "allocations regressed") {
		t.Errorf("regressions = %v, want an alloc growth failure", regs)
	}
	// Small absolute growth stays inside the slack even when relatively large.
	now.Benchmarks[2].AllocsPerOp = 13
	if regs := regressionsOf(compareLedgers(old, now, 1.25, 1.25)); len(regs) != 0 {
		t.Errorf("slack did not absorb +3 allocs: %v", regs)
	}
}

// TestCompareAllocGateIndependentOfTimeThreshold pins the CI configuration:
// loosening -threshold for cross-machine ns/op noise must not loosen the
// deterministic allocation gate.
func TestCompareAllocGateIndependentOfTimeThreshold(t *testing.T) {
	old := baseLedger()
	now := baseLedger()
	now.Benchmarks[2].AllocsPerOp = 19 // 1.9x and +9 over slack
	regs := regressionsOf(compareLedgers(old, now, 2.0, 1.25))
	if len(regs) != 1 || !strings.Contains(regs[0], "allocations regressed") {
		t.Errorf("regressions = %v, want the alloc gate to hold at its own threshold", regs)
	}
}

func TestCompareMissingBenchmark(t *testing.T) {
	old := baseLedger()
	now := ledger(old.Benchmarks[0], old.Benchmarks[1]) // BenchmarkAllocs dropped
	regs := regressionsOf(compareLedgers(old, now, 1.25, 1.25))
	if len(regs) != 1 || !strings.Contains(regs[0], "missing from new ledger") {
		t.Errorf("regressions = %v, want a missing-benchmark failure", regs)
	}
}

func TestCompareNewAndImprovedAreNotes(t *testing.T) {
	old := baseLedger()
	now := baseLedger()
	now.Benchmarks[0].NsPerOp = 10 // 10x improvement
	now.Benchmarks = append(now.Benchmarks, Result{Name: "BenchmarkBrandNew", Iterations: 1, NsPerOp: 1})
	probs := compareLedgers(old, now, 1.25, 1.25)
	if regs := regressionsOf(probs); len(regs) != 0 {
		t.Errorf("improvement/new flagged as regression: %v", regs)
	}
	var notes []string
	for _, p := range probs {
		notes = append(notes, p.msg)
	}
	joined := strings.Join(notes, "\n")
	if !strings.Contains(joined, "improved") || !strings.Contains(joined, "new benchmark") {
		t.Errorf("notes = %v, want improvement and new-benchmark notes", notes)
	}
}

// writeFixture writes a ledger JSON fixture through the same parser path the
// real pipeline uses (bench text -> parse -> JSON).
func writeFixture(t *testing.T, dir, name, benchText string) string {
	t.Helper()
	l, err := parse(bufio.NewScanner(strings.NewReader(benchText)))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := writeLedger(f, l); err != nil {
		t.Fatal(err)
	}
	return path
}

const oldBenchText = `goos: linux
goarch: amd64
BenchmarkKernel-8   1000   1000 ns/op   0 B/op   0 allocs/op
BenchmarkSweep-8    500    30000 ns/op  128 B/op  2 allocs/op
`

// TestRunCompareEndToEnd drives the subcommand exactly as CI does: fixture
// ledgers on disk, flags after positionals, exit codes checked.
func TestRunCompareEndToEnd(t *testing.T) {
	dir := t.TempDir()
	oldPath := writeFixture(t, dir, "old.json", oldBenchText)

	cases := []struct {
		name     string
		newText  string
		args     []string
		wantCode int
		wantOut  string
	}{
		{
			name: "clean",
			newText: `BenchmarkKernel-8 1000 1100 ns/op 0 B/op 0 allocs/op
BenchmarkSweep-8 500 29000 ns/op 128 B/op 2 allocs/op
`,
			wantCode: 0,
			wantOut:  "ok",
		},
		{
			name: "time regression fails",
			newText: `BenchmarkKernel-8 1000 1000 ns/op 0 B/op 0 allocs/op
BenchmarkSweep-8 500 90000 ns/op 128 B/op 2 allocs/op
`,
			wantCode: 1,
			wantOut:  "time regressed",
		},
		{
			name: "zero-alloc kernel fails",
			newText: `BenchmarkKernel-8 1000 1000 ns/op 16 B/op 1 allocs/op
BenchmarkSweep-8 500 30000 ns/op 128 B/op 2 allocs/op
`,
			wantCode: 1,
			wantOut:  "zero-alloc",
		},
		{
			name: "looser trailing threshold passes",
			newText: `BenchmarkKernel-8 1000 1400 ns/op 0 B/op 0 allocs/op
BenchmarkSweep-8 500 30000 ns/op 128 B/op 2 allocs/op
`,
			args:     []string{"-threshold", "1.5"},
			wantCode: 0,
			wantOut:  "ok",
		},
		{
			name: "speedup satisfied passes with note",
			newText: `BenchmarkKernel-8 1000 1000 ns/op 0 B/op 0 allocs/op
BenchmarkSweep-8 500 30000 ns/op 128 B/op 2 allocs/op
`,
			args:     []string{"-min-speedup", "BenchmarkSweep/BenchmarkKernel:5"},
			wantCode: 0,
			wantOut:  "speedup 30.00x",
		},
		{
			name: "collapsed speedup fails",
			newText: `BenchmarkKernel-8 1000 1000 ns/op 0 B/op 0 allocs/op
BenchmarkSweep-8 500 30000 ns/op 128 B/op 2 allocs/op
`,
			args:     []string{"-min-speedup", "BenchmarkSweep/BenchmarkKernel:50"},
			wantCode: 1,
			wantOut:  "speedup collapsed to 30.00x",
		},
		{
			name: "speedup over missing benchmark fails",
			newText: `BenchmarkKernel-8 1000 1000 ns/op 0 B/op 0 allocs/op
BenchmarkSweep-8 500 30000 ns/op 128 B/op 2 allocs/op
`,
			args:     []string{"-min-speedup", "BenchmarkGone/BenchmarkKernel:5"},
			wantCode: 1,
			wantOut:  "benchmark missing",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			newPath := writeFixture(t, t.TempDir(), "new.json", "goos: linux\n"+tc.newText)
			var out, errw strings.Builder
			args := append([]string{oldPath, newPath}, tc.args...)
			code := runCompare(args, &out, &errw)
			if code != tc.wantCode {
				t.Fatalf("exit code %d, want %d\nstdout:\n%s\nstderr:\n%s", code, tc.wantCode, out.String(), errw.String())
			}
			if !strings.Contains(out.String(), tc.wantOut) {
				t.Errorf("stdout %q does not contain %q", out.String(), tc.wantOut)
			}
		})
	}
}

func TestRunCompareUsageErrors(t *testing.T) {
	var out, errw strings.Builder
	if code := runCompare([]string{"only-one.json"}, &out, &errw); code != 2 {
		t.Errorf("missing args exit = %d, want 2", code)
	}
	if code := runCompare([]string{"a.json", "b.json", "-threshold", "0.5"}, &out, &errw); code != 2 {
		t.Errorf("bad threshold exit = %d, want 2", code)
	}
	if code := runCompare([]string{"/nonexistent/a.json", "/nonexistent/b.json"}, &out, &errw); code != 2 {
		t.Errorf("missing file exit = %d, want 2", code)
	}
	for _, bad := range []string{"NoColon", "OnlyOneName:5", "A/B:0.5", "A/B:x"} {
		if code := runCompare([]string{"-min-speedup", bad, "a.json", "b.json"}, &out, &errw); code != 2 {
			t.Errorf("malformed -min-speedup %q exit = %d, want 2", bad, code)
		}
	}
}

func TestParseStripsGomaxprocsSuffix(t *testing.T) {
	l, err := parse(bufio.NewScanner(strings.NewReader(oldBenchText)))
	if err != nil {
		t.Fatal(err)
	}
	if l.Benchmarks[0].Name != "BenchmarkKernel" {
		t.Errorf("name = %q, want suffix stripped", l.Benchmarks[0].Name)
	}
	if l.Goos != "linux" || l.Goarch != "amd64" {
		t.Errorf("platform fields lost: %+v", l)
	}
}

// TestParseMergesRepeatedRuns pins the -count merge: one row per benchmark
// in first-appearance order, the median ns/op (mean of the middle two for
// an even count), and the largest B/op and allocs/op of any run.
func TestParseMergesRepeatedRuns(t *testing.T) {
	const text = `goos: linux
BenchmarkOdd-8    100   300 ns/op   64 B/op   1 allocs/op
BenchmarkEven-8   10    50 ns/op
BenchmarkOdd-8    100   100 ns/op   96 B/op   3 allocs/op
BenchmarkEven-8   10    10 ns/op
BenchmarkOdd-8    100   900 ns/op   32 B/op   2 allocs/op
BenchmarkEven-8   10    20 ns/op
BenchmarkEven-8   10    90 ns/op
BenchmarkOnce-8   7     5 ns/op
`
	l, err := parse(bufio.NewScanner(strings.NewReader(text)))
	if err != nil {
		t.Fatal(err)
	}
	want := []Result{
		{Name: "BenchmarkOdd", Iterations: 100, NsPerOp: 300, BytesPerOp: 96, AllocsPerOp: 3},
		{Name: "BenchmarkEven", Iterations: 10, NsPerOp: 35},
		{Name: "BenchmarkOnce", Iterations: 7, NsPerOp: 5},
	}
	if len(l.Benchmarks) != len(want) {
		t.Fatalf("merged rows %+v, want %+v", l.Benchmarks, want)
	}
	for i, r := range l.Benchmarks {
		if r != want[i] {
			t.Errorf("row %d = %+v, want %+v", i, r, want[i])
		}
	}
}

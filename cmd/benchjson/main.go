// Command benchjson converts `go test -bench -benchmem` output on stdin to
// a stable JSON ledger on stdout, so benchmark snapshots can be committed
// and diffed (see scripts/bench.sh and the BENCH_*.json files at the repo
// root), and compares two ledgers as a CI regression gate.
//
// Usage:
//
//	go test -run '^$' -bench . -benchmem -count 3 ./... | benchjson > BENCH.json
//	benchjson compare old.json new.json [-threshold 1.25] [-min-speedup Slow/Fast:5]
//
// Repeated lines of one benchmark (go test -count) merge into one ledger
// row: the median ns/op, and the largest B/op and allocs/op, so one noisy
// run neither sets the time nor hides an allocation.
//
// compare exits nonzero when any benchmark regresses: its ns/op grows past
// the threshold factor, a zero-allocation benchmark starts allocating, its
// allocations grow past the threshold, it disappears from the new ledger
// (which is how a silently dropped bench.sh pattern surfaces in CI), or a
// -min-speedup pair's ratio falls below its required factor.
package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
)

// Result is one parsed benchmark line.
type Result struct {
	Name        string  `json:"name"`
	Iterations  int64   `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op,omitempty"`
	AllocsPerOp float64 `json:"allocs_per_op,omitempty"`
}

// Ledger is the committed snapshot format.
type Ledger struct {
	Goos       string   `json:"goos,omitempty"`
	Goarch     string   `json:"goarch,omitempty"`
	CPU        string   `json:"cpu,omitempty"`
	Benchmarks []Result `json:"benchmarks"`
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(runCompare(os.Args[2:], os.Stdout, os.Stderr))
	}
	ledger, err := parse(bufio.NewScanner(os.Stdin))
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	if err := writeLedger(os.Stdout, ledger); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

// writeLedger encodes a ledger as indented JSON — the committed snapshot
// format.
func writeLedger(w io.Writer, l Ledger) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(l)
}

func parse(sc *bufio.Scanner) (Ledger, error) {
	var ledger Ledger
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "goos:"):
			ledger.Goos = strings.TrimSpace(strings.TrimPrefix(line, "goos:"))
		case strings.HasPrefix(line, "goarch:"):
			ledger.Goarch = strings.TrimSpace(strings.TrimPrefix(line, "goarch:"))
		case strings.HasPrefix(line, "cpu:"):
			ledger.CPU = strings.TrimSpace(strings.TrimPrefix(line, "cpu:"))
		case strings.HasPrefix(line, "Benchmark"):
			if r, ok := parseBench(line); ok {
				ledger.Benchmarks = append(ledger.Benchmarks, r)
			}
		}
	}
	if err := sc.Err(); err != nil {
		return Ledger{}, err
	}
	if len(ledger.Benchmarks) == 0 {
		return Ledger{}, fmt.Errorf("no benchmark lines found on stdin")
	}
	ledger.Benchmarks = mergeRuns(ledger.Benchmarks)
	return ledger, nil
}

// mergeRuns folds repeated rows of one benchmark into one, in the order of
// first appearance: the median ns/op (the mean of the middle two for an
// even count), the largest B/op and allocs/op, and the first run's
// iteration count.
func mergeRuns(rows []Result) []Result {
	var order []string
	runs := map[string][]Result{}
	for _, r := range rows {
		if _, seen := runs[r.Name]; !seen {
			order = append(order, r.Name)
		}
		runs[r.Name] = append(runs[r.Name], r)
	}
	out := make([]Result, 0, len(order))
	for _, name := range order {
		rs := runs[name]
		merged := rs[0]
		ns := make([]float64, len(rs))
		for i, r := range rs {
			ns[i] = r.NsPerOp
			merged.BytesPerOp = max(merged.BytesPerOp, r.BytesPerOp)
			merged.AllocsPerOp = max(merged.AllocsPerOp, r.AllocsPerOp)
		}
		sort.Float64s(ns)
		mid := len(ns) / 2
		merged.NsPerOp = ns[mid]
		if len(ns)%2 == 0 {
			merged.NsPerOp = (ns[mid-1] + ns[mid]) / 2
		}
		out = append(out, merged)
	}
	return out
}

// parseBench parses a line like
//
//	BenchmarkFoo-8   1000   1234 ns/op   56 B/op   7 allocs/op
func parseBench(line string) (Result, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 {
		return Result{}, false
	}
	name := fields[0]
	if i := strings.LastIndex(name, "-"); i > 0 {
		// Strip the -GOMAXPROCS suffix so ledgers diff cleanly across hosts.
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			name = name[:i]
		}
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Result{}, false
	}
	r := Result{Name: name, Iterations: iters}
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			continue
		}
		switch fields[i+1] {
		case "ns/op":
			r.NsPerOp = v
		case "B/op":
			r.BytesPerOp = v
		case "allocs/op":
			r.AllocsPerOp = v
		}
	}
	if r.NsPerOp == 0 {
		return Result{}, false
	}
	return r, true
}

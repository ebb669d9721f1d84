// Command perfbench is the repository's end-to-end benchmark. It builds
// cmd/bccd, runs it on a fresh store on loopback, drives it with one
// closed-loop HTTP client, checks every job's output against an in-process
// reference, and prints each metric by name and unit, then one JSON result
// line. Run it from the repository root:
//
//	bash perfbench/run.sh --workload sweep --seed 1 --seconds 10 --trace 0
//
// With --trace 1 the same job sequence is measured layer by layer instead
// (HTTP, service, checkpointed result log, CSV, engine, kernels) and the
// per-layer metrics are printed. BENCHMARK.json at the repository root
// lists the workloads and metrics.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: sweep, sweep-cached, region-lp or bittrue")
	seed := fs.Int64("seed", defaultSeed, "seed of the generated scenario values")
	seconds := fs.Float64("seconds", 10, "measured window in seconds")
	trace := fs.Int("trace", 0, "1 measures the per-layer breakdown instead of the end-to-end metrics")
	tiny := fs.Bool("tiny", false, "tiny job sizes, for smoke tests")
	update := fs.String("update-digests", "", "write the objective digests of every workload's first job to this file and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *update != "" {
		if err := writeDigests(ctx, *update); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	w, ok := lookupWorkload(*name)
	if !ok || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		fmt.Fprintf(stderr, "perfbench: need --workload (sweep, sweep-cached, region-lp, bittrue), --seconds > 0 and --trace 0 or 1\n")
		return 2
	}
	root, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	cfg := config{
		root:   root,
		seed:   *seed,
		window: time.Duration(*seconds * float64(time.Second)),
		sz:     fullSize,
		tiny:   *tiny,
	}
	if *tiny {
		cfg.sz = tinySize
	}
	rep, err := execute(ctx, cfg, w, *trace == 1)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	for _, e := range rep.errs {
		fmt.Fprintln(stderr, "perfbench: check failed:", e)
	}
	rep.print(stdout, w)
	return 0
}

// execute builds bccd into a working directory of the checkout, runs one
// measurement and removes the working directory (stores included).
func execute(ctx context.Context, cfg config, w workload, traced bool) (*report, error) {
	build := filepath.Join(cfg.root, ".bench_build")
	if err := os.MkdirAll(build, 0o755); err != nil {
		return nil, err
	}
	work, err := os.MkdirTemp(build, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)
	cfg.work = work
	if cfg.bin, err = buildBccd(ctx, cfg.root, work); err != nil {
		return nil, err
	}
	rep := &report{correct: true, metrics: make(map[string]metric)}
	if traced {
		err = layered(ctx, cfg, w, rep)
	} else {
		err = endToEnd(ctx, cfg, w, rep)
	}
	return rep, err
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report collects a run's metrics, failures and human-readable notes.
type report struct {
	correct           bool
	attempted, failed int
	metrics           map[string]metric
	notes             []string
	errs              []error
}

// set records a metric under its declared unit (see metrics.go).
func (r *report) set(name string, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		r.fail(fmt.Errorf("metric %s is %g", name, v))
		v = 0
	}
	r.metrics[name] = metric{Value: v, Unit: unitOf(name)}
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// fail counts each error as a failed job or check.
func (r *report) fail(errs ...error) {
	for _, e := range errs {
		if e != nil {
			r.correct = false
			r.failed++
			r.errs = append(r.errs, e)
		}
	}
}

// gateDigest runs the committed objective-digest check, counted as one
// more attempted check.
func (r *report) gateDigest(ctx context.Context, w workload, cfg config) {
	r.attempted++
	r.fail(checkDigest(ctx, w, cfg.sz, cfg.tiny))
}

// print writes every metric by name and unit, the notes, and last the JSON
// result line.
func (r *report) print(out io.Writer, w workload) {
	for _, m := range allMetrics {
		if v, ok := r.metrics[m.name]; ok {
			fmt.Fprintf(out, "%s %s = %.6g %s\n", w.name, m.name, v.Value, v.Unit)
		}
	}
	for _, n := range r.notes {
		fmt.Fprintf(out, "%s %s\n", w.name, n)
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.correct, max(r.attempted, 1), r.failed, r.metrics})
	if err != nil {
		panic(errors.New("perfbench: result line does not marshal")) // finite floats and strings only
	}
	fmt.Fprintf(out, "%s\n", line)
}

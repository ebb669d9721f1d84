// Command bcc drives the bidirectional coded cooperation reproduction: it
// evaluates the paper's bounds for arbitrary scenarios, regenerates every
// figure and claim check as ASCII charts/tables (with optional CSV), and
// runs the Monte Carlo simulators.
//
// Usage:
//
//	bcc list                            # list reproduction experiments
//	bcc run <id> [-quick] [-seed N] [-artifacts dir] [-workers N] [-cpuprofile f] [-timeout d]
//	bcc all [-quick] [-workers N] [-cpuprofile f] [-timeout d]
//	bcc bounds  [-p dB] [-gab dB] [-gar dB] [-gbr dB]
//	bcc region  [-proto P] [-bound inner|outer] [-p dB] [...gains] [-csv]
//	bcc place   [-p dB] [-pos 0..1] [-gamma g]
//	bcc sweep   [-powers lo:hi:step] [-places N] [-protos P,Q] [-o f.csv] [-checkpoint f] [-timeout d]
//
// Examples:
//
//	bcc run fig3
//	bcc run fig4b
//	bcc bounds -p 10
//	bcc region -proto HBC -bound inner -p 10 -csv
//	bcc sweep -powers 0:20:0.5 -places 9 -o grid.csv -checkpoint grid.ck
//
// Interrupted runs exit 130 (Ctrl-C) or 124 (-timeout); partial output
// already printed is valid. A sweep with -checkpoint resumes on rerun and
// reproduces the exact artifact of an uninterrupted run.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"syscall"
	"time"

	"bicoop"
	"bicoop/internal/service"
)

func main() {
	// Ctrl-C (or SIGTERM) cancels the run context; the engine's context
	// plumbing stops in-flight sweeps and Monte Carlo shard loops within
	// one trial, so whatever partial output was produced is still valid.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	err := run(ctx, os.Args[1:])
	code, note := exitFor(err)
	if note != "" {
		fmt.Fprintln(os.Stderr, note)
	} else if err != nil {
		fmt.Fprintln(os.Stderr, "bcc:", err)
	}
	os.Exit(code)
}

// exitFor maps a run error to the conventional process exit code plus the
// stderr note explaining it: 130 for Ctrl-C (SIGINT + 128), 124 for a
// -timeout expiry (the timeout(1) convention), 1 for everything else. Both
// early-stop codes come with partial results already printed — the sharded
// runs stop on chunk boundaries, so everything streamed before the stop is
// complete and valid.
func exitFor(err error) (code int, note string) {
	switch {
	case err == nil:
		return 0, ""
	case errors.Is(err, context.DeadlineExceeded):
		return 124, "bcc: timed out — partial results above are valid; rerun with -checkpoint to resume a sweep"
	case errors.Is(err, context.Canceled):
		return 130, "bcc: interrupted — partial results above are valid for the trials completed"
	default:
		return 1, ""
	}
}

// eng is the CLI's session engine: one evaluator pool shared by every
// subcommand, batch, sweep and experiment run.
var eng = bicoop.NewEngine()

func run(ctx context.Context, args []string) error {
	if len(args) == 0 {
		usage()
		return fmt.Errorf("missing subcommand")
	}
	switch args[0] {
	case "list":
		return cmdList()
	case "run":
		return cmdRun(ctx, args[1:])
	case "all":
		return cmdAll(ctx, args[1:])
	case "bounds":
		return cmdBounds(args[1:])
	case "region":
		return cmdRegion(ctx, args[1:])
	case "place":
		return cmdPlace(ctx, args[1:])
	case "sweep":
		return cmdSweep(ctx, args[1:])
	case "escape":
		return cmdEscape(args[1:])
	case "penalty":
		return cmdPenalty(args[1:])
	case "help", "-h", "--help":
		usage()
		return nil
	default:
		usage()
		return fmt.Errorf("unknown subcommand %q", args[0])
	}
}

func usage() {
	fmt.Fprint(os.Stderr, `bcc — bidirectional coded cooperation protocol bounds (Kim/Mitran/Tarokh reproduction)

subcommands:
  list     list reproduction experiments
  run      run one experiment:   bcc run fig3 [-quick] [-seed N]
  all      run every experiment: bcc all [-quick]
  bounds   per-protocol optimal sum rates for a scenario
  region   rate-region vertices for one protocol bound
  place    per-protocol sum rates for a relay placed on the a-b segment
  sweep    evaluate a power x placement x protocol grid to CSV, resumable via -checkpoint
  escape   achievable HBC points beyond BOTH the MABC and TDBC outer bounds
  penalty  half-duplex penalty vs the full-duplex DF ceiling, plus AF
`)
}

func cmdEscape(args []string) error {
	fs := flag.NewFlagSet("escape", flag.ContinueOnError)
	p, gab, gar, gbr := scenarioFlags(fs)
	limit := fs.Int("n", 10, "max witnesses to print")
	if err := fs.Parse(args); err != nil {
		return err
	}
	s := bicoop.Scenario{PowerDB: *p, GabDB: *gab, GarDB: *gar, GbrDB: *gbr}
	pts, err := bicoop.HBCBeyondOuterBounds(s)
	if err != nil {
		return err
	}
	if len(pts) == 0 {
		fmt.Printf("no HBC escape points at P=%.1f dB with these gains\n", *p)
		return nil
	}
	fmt.Printf("%d achievable HBC points outside BOTH the MABC and TDBC outer bounds (P=%.1f dB):\n", len(pts), *p)
	for i, pt := range pts {
		if i >= *limit {
			fmt.Printf("  ... and %d more\n", len(pts)-*limit)
			break
		}
		fmt.Printf("  (Ra, Rb) = (%.4f, %.4f)\n", pt.Ra, pt.Rb)
	}
	return nil
}

func cmdPenalty(args []string) error {
	fs := flag.NewFlagSet("penalty", flag.ContinueOnError)
	p, gab, gar, gbr := scenarioFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	s := bicoop.Scenario{PowerDB: *p, GabDB: *gab, GarDB: *gar, GbrDB: *gbr}
	fd, err := bicoop.FullDuplexSumRate(s)
	if err != nil {
		return err
	}
	af, err := bicoop.AmplifyForwardSumRate(s)
	if err != nil {
		return err
	}
	fmt.Printf("full-duplex DF ceiling: %.4f bits/use; AF 2-phase: %.4f bits/use\n\n", fd.Sum, af.Sum)
	fmt.Printf("%-8s %10s %12s\n", "protocol", "sum rate", "of ceiling")
	for _, proto := range bicoop.AllProtocols() {
		res, err := eng.SumRate(proto, bicoop.Inner, s)
		if err != nil {
			return err
		}
		pen, err := bicoop.HalfDuplexPenalty(proto, s)
		if err != nil {
			return err
		}
		fmt.Printf("%-8s %10.4f %11.0f%%\n", proto, res.Sum, 100*pen)
	}
	return nil
}

// scenarioFlags registers the shared scenario flags on fs.
func scenarioFlags(fs *flag.FlagSet) (p, gab, gar, gbr *float64) {
	p = fs.Float64("p", 10, "per-node transmit power in dB (unit noise)")
	gab = fs.Float64("gab", -7, "direct link gain Gab in dB")
	gar = fs.Float64("gar", 0, "a-relay link gain Gar in dB")
	gbr = fs.Float64("gbr", 5, "b-relay link gain Gbr in dB")
	return
}

func cmdList() error {
	for _, id := range bicoop.Experiments() {
		desc, err := bicoop.DescribeExperiment(id)
		if err != nil {
			return err
		}
		fmt.Printf("%-16s %s\n", id, desc)
	}
	return nil
}

// timeoutFlag registers the shared -timeout flag: a wall-clock bound on the
// run context. An expired run exits 124 with its partial output intact.
func timeoutFlag(fs *flag.FlagSet) *time.Duration {
	return fs.Duration("timeout", 0, "stop after this duration, exit 124 (0 = no limit); partial output stays valid")
}

// withDeadline applies a -timeout value to the run context; zero leaves the
// context unbounded.
func withDeadline(ctx context.Context, d time.Duration) (context.Context, context.CancelFunc) {
	if d <= 0 {
		return ctx, func() {}
	}
	return context.WithTimeout(ctx, d)
}

// perfFlags registers the shared performance flags: -workers caps the
// process's parallelism (GOMAXPROCS, which also bounds the Monte Carlo
// worker pools) and -cpuprofile writes a pprof CPU profile of the run.
func perfFlags(fs *flag.FlagSet) (workers *int, cpuprofile *string) {
	workers = fs.Int("workers", 0, "cap worker parallelism (GOMAXPROCS); 0 keeps the default")
	cpuprofile = fs.String("cpuprofile", "", "write a pprof CPU profile to this file")
	return
}

// withPerf applies the performance flags around fn. The profile file is
// closed (and profiling stopped) before returning so partial runs still
// produce a readable profile.
func withPerf(workers int, cpuprofile string, fn func() error) error {
	if workers > 0 {
		runtime.GOMAXPROCS(workers)
	}
	if cpuprofile != "" {
		f, err := os.Create(cpuprofile)
		if err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer pprof.StopCPUProfile()
	}
	return fn()
}

func cmdRun(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("run", flag.ContinueOnError)
	quick := fs.Bool("quick", false, "reduced resolution for a fast run")
	seed := fs.Int64("seed", 1, "simulation seed")
	artifacts := fs.String("artifacts", "", "also write <dir>/<id>.txt and <dir>/<id>.csv canonical artifacts")
	workers, cpuprofile := perfFlags(fs)
	timeout := timeoutFlag(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() < 1 {
		return fmt.Errorf("run takes an experiment id (see 'bcc list')")
	}
	id := fs.Arg(0)
	// Allow flags after the positional id too: bcc run fig3 -quick.
	if err := fs.Parse(fs.Args()[1:]); err != nil {
		return err
	}
	ctx, cancel := withDeadline(ctx, *timeout)
	defer cancel()
	return withPerf(*workers, *cpuprofile, func() error {
		if *artifacts == "" {
			return eng.RunExperiment(ctx, id, *quick, *seed, os.Stdout)
		}
		return writeArtifacts(ctx, *artifacts, id, *quick, *seed)
	})
}

// writeArtifacts runs the experiment once through the canonical artifact
// pipeline, writing <dir>/<id>.txt (also echoed to stdout) and
// <dir>/<id>.csv — the same byte streams the golden-file tests pin.
func writeArtifacts(ctx context.Context, dir, id string, quick bool, seed int64) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	text, err := os.Create(filepath.Join(dir, id+".txt"))
	if err != nil {
		return err
	}
	defer text.Close()
	csv, err := os.Create(filepath.Join(dir, id+".csv"))
	if err != nil {
		return err
	}
	defer csv.Close()
	if err := eng.RunExperimentArtifacts(ctx, id, quick, seed, io.MultiWriter(os.Stdout, text), csv); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "wrote %s and %s\n", text.Name(), csv.Name())
	return nil
}

func cmdAll(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("all", flag.ContinueOnError)
	quick := fs.Bool("quick", false, "reduced resolution for a fast run")
	seed := fs.Int64("seed", 1, "simulation seed")
	workers, cpuprofile := perfFlags(fs)
	timeout := timeoutFlag(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	ctx, cancel := withDeadline(ctx, *timeout)
	defer cancel()
	return withPerf(*workers, *cpuprofile, func() error {
		ids := bicoop.Experiments()
		for i, id := range ids {
			if err := eng.RunExperiment(ctx, id, *quick, *seed, os.Stdout); err != nil {
				if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
					fmt.Printf("\n(stopped after %d of %d experiments)\n", i, len(ids))
				}
				return err
			}
			fmt.Println()
		}
		return nil
	})
}

func cmdBounds(args []string) error {
	fs := flag.NewFlagSet("bounds", flag.ContinueOnError)
	p, gab, gar, gbr := scenarioFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	s := bicoop.Scenario{PowerDB: *p, GabDB: *gab, GarDB: *gar, GbrDB: *gbr}
	fmt.Printf("scenario: P=%.1f dB, Gab=%.1f dB, Gar=%.1f dB, Gbr=%.1f dB\n\n", *p, *gab, *gar, *gbr)
	fmt.Printf("%-8s %-7s %10s %10s %10s   %s\n", "protocol", "bound", "Ra", "Rb", "Ra+Rb", "durations")
	for _, proto := range bicoop.AllProtocols() {
		for _, b := range []bicoop.Bound{bicoop.Inner, bicoop.Outer} {
			res, err := eng.SumRate(proto, b, s)
			if err != nil {
				return err
			}
			durs := make([]string, len(res.Durations))
			for i, d := range res.Durations {
				durs[i] = fmt.Sprintf("%.3f", d)
			}
			fmt.Printf("%-8s %-7s %10.4f %10.4f %10.4f   [%s]\n",
				proto, b, res.Point.Ra, res.Point.Rb, res.Sum, strings.Join(durs, " "))
		}
	}
	fmt.Println("\nnote: DT/Naive4/MABC outer = inner (tight); HBC outer is the independent-input heuristic (see go doc bicoop.Outer).")
	return nil
}

func cmdRegion(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("region", flag.ContinueOnError)
	p, gab, gar, gbr := scenarioFlags(fs)
	protoName := fs.String("proto", "HBC", "protocol: DT, Naive4, MABC, TDBC, HBC")
	boundName := fs.String("bound", "inner", "bound: inner or outer")
	csv := fs.Bool("csv", false, "emit the frontier as CSV instead of a table")
	if err := fs.Parse(args); err != nil {
		return err
	}
	proto, err := bicoop.ParseProtocol(*protoName)
	if err != nil {
		return err
	}
	bound, err := bicoop.ParseBound(*boundName)
	if err != nil {
		return err
	}
	s := bicoop.Scenario{PowerDB: *p, GabDB: *gab, GarDB: *gar, GbrDB: *gbr}
	// The run context flows into the region computation, so Ctrl-C stops
	// it before its next curve.
	r, err := eng.Region(ctx, proto, bound, s)
	if err != nil {
		return err
	}
	if *csv {
		fmt.Println("Ra,Rb")
		for _, v := range r.Vertices() {
			fmt.Printf("%g,%g\n", v.Ra, v.Rb)
		}
		return nil
	}
	fmt.Printf("%v %v region at P=%.1f dB: maxRa=%.4f maxRb=%.4f maxSum=%.4f area=%.4f\n",
		proto, bound, *p, r.MaxRa(), r.MaxRb(), r.MaxSumRate(), r.Area())
	fmt.Println("vertices (counter-clockwise):")
	for _, v := range r.Vertices() {
		fmt.Printf("  (%.4f, %.4f)\n", v.Ra, v.Rb)
	}
	return nil
}

func cmdPlace(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("place", flag.ContinueOnError)
	p := fs.Float64("p", 15, "per-node transmit power in dB")
	pos := fs.Float64("pos", 0.3, "relay position on the a-b segment (0,1)")
	gamma := fs.Float64("gamma", 3, "path-loss exponent")
	if err := fs.Parse(args); err != nil {
		return err
	}
	// One-point sweep over the relay-placement axis: the engine resolves the
	// geometry to gains and streams each protocol's optimum as it solves.
	spec := bicoop.SweepSpec{
		PowersDB:   []float64{*p},
		Placements: []bicoop.RelayPlacement{{Pos: *pos, Exponent: *gamma}},
	}
	header := false
	return eng.Sweep(ctx, spec, func(pt bicoop.SweepPoint) error {
		if !header {
			fmt.Printf("relay at %.2f (gamma %.1f): Gab=%.2f dB Gar=%.2f dB Gbr=%.2f dB\n\n",
				*pos, *gamma, pt.Scenario.GabDB, pt.Scenario.GarDB, pt.Scenario.GbrDB)
			fmt.Printf("%-8s %10s\n", "protocol", "sum rate")
			header = true
		}
		fmt.Printf("%-8s %10.4f\n", pt.Protocol, pt.Result.Sum)
		return nil
	})
}

// cmdSweep evaluates a power × placement × protocol grid and streams it as
// CSV — the CLI face of Engine.Sweep, and the resilience showcase: -timeout
// bounds the run (exit 124) and -checkpoint makes the sweep resumable. An
// interrupted checkpointed sweep, rerun with the same arguments, picks up
// where the delivered prefix ended and the final CSV is byte-identical to an
// uninterrupted run's.
func cmdSweep(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("sweep", flag.ContinueOnError)
	gab := fs.Float64("gab", -7, "direct link gain Gab in dB (base gains, and reference for -places)")
	gar := fs.Float64("gar", 0, "a-relay link gain Gar in dB (base gains)")
	gbr := fs.Float64("gbr", 5, "b-relay link gain Gbr in dB (base gains)")
	powers := fs.String("powers", "0:20:1", fmt.Sprintf("power axis in dB: lo:hi:step or a comma list, at most %d points", maxPowers))
	places := fs.Int("places", 0, fmt.Sprintf("relay placements spread over the a-b segment, at most %d (0 = evaluate the base gains)", maxPlaces))
	gamma := fs.Float64("gamma", 3, "path-loss exponent for -places")
	protos := fs.String("protos", "", "comma-separated protocols (default: all five)")
	boundName := fs.String("bound", "inner", "bound: inner or outer")
	out := fs.String("o", "", "write CSV to this file (default stdout)")
	ckPath := fs.String("checkpoint", "", "checkpoint file enabling resume across reruns; requires -o")
	workers := fs.Int("workers", 0, "goroutines sharding the grid (0 = GOMAXPROCS)")
	cacheCap := fs.Int("cache", 0, "in-process result-cache capacity in entries; repeated points (e.g. across placements) are served from cache (0 = off)")
	timeout := timeoutFlag(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	spec := bicoop.SweepSpec{Base: bicoop.Scenario{GabDB: *gab, GarDB: *gar, GbrDB: *gbr}, Workers: *workers}
	var err error
	if spec.PowersDB, err = parsePowers(*powers); err != nil {
		return err
	}
	if *places < 0 || *places > maxPlaces {
		return fmt.Errorf("-places %d: need 0 to %d placements", *places, maxPlaces)
	}
	if n, m := len(spec.PowersDB), max(*places, 1); n > bicoop.MaxSweepScenarios/m {
		return fmt.Errorf("-powers x -places: %d x %d scenarios, at most %d", n, m, bicoop.MaxSweepScenarios)
	}
	for i := 0; i < *places; i++ {
		pos := 0.5
		if *places > 1 {
			pos = 0.05 + 0.9*float64(i)/float64(*places-1)
		}
		spec.Placements = append(spec.Placements, bicoop.RelayPlacement{Pos: pos, Exponent: *gamma, GabDB: *gab})
	}
	if *protos != "" {
		for _, name := range strings.Split(*protos, ",") {
			p, err := bicoop.ParseProtocol(strings.TrimSpace(name))
			if err != nil {
				return err
			}
			spec.Protocols = append(spec.Protocols, p)
		}
	}
	if spec.Bound, err = bicoop.ParseBound(*boundName); err != nil {
		return err
	}
	ctx, cancel := withDeadline(ctx, *timeout)
	defer cancel()
	sweepEng := eng
	if *cacheCap > 0 {
		// A dedicated engine carrying the result cache. Every solve is
		// position-independent, so the CSV is byte-identical to a
		// cache-off run's whether points hit or miss.
		sweepEng = bicoop.NewEngine(bicoop.WithCache(*cacheCap))
	}
	return runSweepCSV(ctx, sweepEng, spec, *out, *ckPath)
}

// maxPowers caps the points of a -powers axis, so a step far below the range
// is an error instead of an allocation that exhausts memory. maxPlaces caps
// -places for the same reason; the power × placement pairs, which the sweep
// resolves up front, are capped by bicoop.MaxSweepScenarios.
const (
	maxPowers = 1 << 16
	maxPlaces = 1 << 16
)

// parsePowers parses the power axis: "lo:hi:step" (inclusive) or a comma
// list. Every point must be finite, and an axis holds at most maxPowers
// points.
func parsePowers(s string) ([]float64, error) {
	if parts := strings.Split(s, ":"); len(parts) == 3 {
		var lo, hi, step float64
		for i, dst := range []*float64{&lo, &hi, &step} {
			v, err := strconv.ParseFloat(strings.TrimSpace(parts[i]), 64)
			if err != nil {
				return nil, fmt.Errorf("-powers %q: %w", s, err)
			}
			// NaN defeats both range checks below and an infinite bound
			// has no point count, so neither may reach them.
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return nil, fmt.Errorf("-powers %q: lo, hi and step must be finite", s)
			}
			*dst = v
		}
		if step <= 0 || hi < lo {
			return nil, fmt.Errorf("-powers %q: need lo <= hi and step > 0", s)
		}
		// The axis is lo + i*step for every i whose point is at most
		// hi+1e-9. The quotient counts those points before anything is
		// allocated (an overflowing hi-lo makes it +Inf). Rounding can move
		// the last point across hi+1e-9, so the loop allows one index more
		// and decides by the point itself; points are index-stepped so
		// resumed runs rebuild the identical axis (no accumulated drift).
		q := (hi + 1e-9 - lo) / step
		if !(q < maxPowers) {
			return nil, fmt.Errorf("-powers %q: more than %d points", s, maxPowers)
		}
		last := int(q)
		out := make([]float64, 0, last+2)
		for i := 0; i <= last+1; i++ {
			p := lo + float64(i)*step
			if p > hi+1e-9 {
				break
			}
			if i > 0 && p == out[i-1] {
				// The step is below the resolution of p: past the counted
				// points that is only the rounding slot, before them the
				// axis cannot be represented.
				if i > last {
					break
				}
				return nil, fmt.Errorf("-powers %q: step %g does not advance the axis past %g", s, step, p)
			}
			out = append(out, p)
		}
		if len(out) > maxPowers { // only through the rounding slot
			return nil, fmt.Errorf("-powers %q: more than %d points", s, maxPowers)
		}
		return out, nil
	}
	if strings.Count(s, ",") >= maxPowers {
		return nil, fmt.Errorf("-powers %q: more than %d points", s, maxPowers)
	}
	var out []float64
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
		if err != nil {
			return nil, fmt.Errorf("-powers %q: %w", s, err)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("-powers %q: every point must be finite", s)
		}
		out = append(out, v)
	}
	return out, nil
}

// runSweepCSV streams the sweep as CSV through the shared ResultLog — the
// same byte-offset checkpoint/resume implementation the bccd job service
// uses — wiring the resume recipe when ckPath is set.
func runSweepCSV(ctx context.Context, eng *bicoop.Engine, spec bicoop.SweepSpec, out, ckPath string) error {
	var log *service.ResultLog
	var err error
	switch {
	case ckPath != "":
		if out == "" {
			return fmt.Errorf("-checkpoint requires -o (resume needs to truncate and append the output file)")
		}
		log, err = service.OpenResultLog(out, ckPath)
	case out != "":
		log, err = service.OpenResultLog(out, "")
	default:
		log = service.NewResultLog(os.Stdout)
	}
	if err != nil {
		return err
	}
	// RunSweep flushes before returning, so rows streamed past the last
	// checkpoint survive an early stop as valid partial output; a resume
	// truncates them away before rewriting.
	runErr := service.RunSweep(ctx, eng, spec, log)
	if err := log.Close(); err != nil && runErr == nil {
		runErr = err
	}
	return runErr
}

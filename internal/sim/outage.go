// Package sim provides the Monte Carlo layer of the reproduction: a
// quasi-static Rayleigh block-fading simulator for the Gaussian model of
// Section IV (ergodic adaptive-rate throughput and fixed-rate outage), and a
// bit-true simulator of the TDBC protocol over an erasure network that
// executes the actual random-coding/binning/XOR machinery of Theorem 3 with
// random linear codes.
//
// All simulators are deterministic given a seed: trials are sharded across a
// bounded worker pool, each worker owning a private RNG derived from the
// seed, and partial results are merged after the pool drains. Each worker
// also owns a protocols.Evaluator and accumulates into preallocated slices,
// so the per-block path (draw fading, re-solve the duration LP per protocol,
// probe target feasibility) performs no steady-state heap allocation.
package sim

import (
	"context"
	"errors"
	"fmt"
	"math/rand"

	"bicoop/internal/channel"
	"bicoop/internal/protocols"
)

// Errors returned by this package. The bicoop facade re-exports
// ErrInvalidTrials, ErrInvalidBlockLength and ErrInvalidRates, so errors.Is
// matches them at every layer.
var (
	// ErrInvalidTrials reports a trial count that is not positive.
	ErrInvalidTrials = errors.New("sim: invalid trial count")
	// ErrNoTargets reports a fading run with no protocols.
	ErrNoTargets = errors.New("sim: no protocols requested")
	// ErrInvalidBlockLength reports a bit-true block length outside 1 to
	// maxBlockLength.
	ErrInvalidBlockLength = errors.New("sim: invalid block length")
	// ErrInvalidRates reports a bit-true rate outside [0, 1], or rates that
	// give no message bit at the block length; the facade also raises it
	// for a NaN or infinite target rate.
	ErrInvalidRates = errors.New("sim: invalid rates")
	// ErrInfeasibleRates reports TDBC rates outside the inner bound when the
	// durations are left to the simulator.
	ErrInfeasibleRates = errors.New("sim: target rates outside the TDBC inner bound")
)

// workerSeedStride separates the deterministic per-worker RNG streams: every
// sharded simulator in this package seeds worker w with Seed + w*stride, so
// worker 0 of any pool reproduces the corresponding sequential run.
const workerSeedStride int64 = 0x9e3779b9

// OutageConfig parameterizes a fading Monte Carlo run.
type OutageConfig struct {
	// Mean holds the mean link gains; per block, each link fades
	// independently (Rayleigh) around its mean.
	Mean channel.Gains
	// P is the per-node transmit power.
	P float64
	// Protocols to simulate (inner bounds). Empty is an error.
	Protocols []protocols.Protocol
	// Target is the fixed rate pair used for outage probability; a zero
	// pair disables outage accounting.
	Target protocols.RatePair
	// Trials is the number of fading blocks.
	Trials int
	// Seed makes the run reproducible.
	Seed int64
	// Workers bounds the worker pool; non-positive means GOMAXPROCS.
	Workers int
	// Progress, when non-nil, is invoked with the cumulative completed trial
	// count at stride granularity (see runGate). Invocations are serialized
	// and the reported count is strictly increasing.
	Progress func(done, total int)
}

// OutageStats aggregates per-protocol results of a run.
type OutageStats struct {
	// MeanOptSumRate is the mean over fading blocks of the CSI-adaptive
	// optimal sum rate (the expected throughput of a system that re-solves
	// the duration LP every block).
	MeanOptSumRate float64
	// OutageProb is the fraction of blocks in which the fixed Target rate
	// pair was infeasible. Zero if no target was set.
	OutageProb float64
	// Trials echoes the trial count for downstream confidence intervals.
	Trials int
}

// OutageResult is the full result of RunOutage.
type OutageResult struct {
	ByProtocol map[protocols.Protocol]OutageStats
}

// hasTarget reports whether outage accounting is enabled — the single
// definition used by both the workers and the result merge.
func (cfg OutageConfig) hasTarget() bool {
	return cfg.Target.Ra > 0 || cfg.Target.Rb > 0
}

// outageWorker owns one goroutine's share of the Monte Carlo: a private
// fading stream, a reusable protocol evaluator, and accumulation buffers
// indexed by protocol position (not maps) so a trial costs no allocation.
type outageWorker struct {
	protos    []protocols.Protocol
	p         float64
	target    protocols.RatePair
	hasTarget bool
	ev        *protocols.Evaluator
	fading    *channel.Fading
	sum       []float64
	outages   []int
	trials    int
}

// newOutageWorker builds a worker whose fading stream is drawn from seed.
func newOutageWorker(cfg OutageConfig, seed int64) (*outageWorker, error) {
	rng := rand.New(rand.NewSource(seed))
	fading, err := channel.NewFading(cfg.Mean, rng)
	if err != nil {
		return nil, err
	}
	return &outageWorker{
		protos:    cfg.Protocols,
		p:         cfg.P,
		target:    cfg.Target,
		hasTarget: cfg.hasTarget(),
		ev:        protocols.NewEvaluator(),
		fading:    fading,
		sum:       make([]float64, len(cfg.Protocols)),
		outages:   make([]int, len(cfg.Protocols)),
	}, nil
}

// runTrial simulates one fading block: draw instantaneous gains, evaluate
// the closed-form link informations once, then re-solve the optimal-duration
// sum-rate LP for every protocol and probe the fixed target's feasibility.
// This is the per-block kernel the allocation regression tests and
// BenchmarkOutageTrial measure.
func (w *outageWorker) runTrial() error {
	inst := w.fading.Draw()
	li, err := protocols.LinkInfosFromScenario(protocols.Scenario{P: w.p, G: inst})
	if err != nil {
		return err
	}
	for pi, proto := range w.protos {
		v, err := w.ev.SumRateLinks(proto, protocols.BoundInner, li)
		if err != nil {
			return err
		}
		w.sum[pi] += v
		if w.hasTarget {
			feas, err := w.ev.FeasibleLinks(proto, protocols.BoundInner, li, w.target)
			if err != nil {
				return err
			}
			if !feas {
				w.outages[pi]++
			}
		}
	}
	w.trials++
	return nil
}

// RunOutage executes the fading Monte Carlo. Cancelling ctx stops every
// worker within one trial; the merged statistics over the trials completed
// so far are returned alongside the (wrapped) context error, so callers can
// report partial results.
func RunOutage(ctx context.Context, cfg OutageConfig) (OutageResult, error) {
	if cfg.Trials <= 0 {
		return OutageResult{}, fmt.Errorf("%w: %d", ErrInvalidTrials, cfg.Trials)
	}
	if len(cfg.Protocols) == 0 {
		return OutageResult{}, ErrNoTargets
	}
	if err := (protocols.Scenario{P: cfg.P, G: cfg.Mean}).Validate(); err != nil {
		return OutageResult{}, fmt.Errorf("sim: %w", err)
	}
	hasTarget := cfg.hasTarget()
	parts, err := shardTrials(ctx, cfg.Trials, cfg.Workers, cfg.Seed, cfg.Progress,
		func(seed int64) (*outageWorker, error) { return newOutageWorker(cfg, seed) },
		(*outageWorker).runTrial)
	if err != nil {
		return OutageResult{}, fmt.Errorf("sim: worker failed: %w", err)
	}
	out := OutageResult{ByProtocol: make(map[protocols.Protocol]OutageStats, len(cfg.Protocols))}
	total := 0
	for _, pt := range parts {
		total += pt.trials
	}
	for pi, proto := range cfg.Protocols {
		var sum float64
		var outs int
		for _, pt := range parts {
			sum += pt.sum[pi]
			outs += pt.outages[pi]
		}
		st := OutageStats{Trials: total}
		if total > 0 {
			st.MeanOptSumRate = sum / float64(total)
			if hasTarget {
				st.OutageProb = float64(outs) / float64(total)
			}
		}
		out.ByProtocol[proto] = st
	}
	if err := CtxErr(ctx); err != nil {
		return out, fmt.Errorf("sim: %w", err)
	}
	return out, nil
}

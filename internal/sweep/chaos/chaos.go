// Package chaos injects deterministic faults into sweep workloads, for
// testing the fault handling of internal/sweep (panic containment,
// checkpoint/resume) without any real failure source. Every injection
// decision is a pure function of (Seed, chunk start) — never of timing,
// worker identity, worker count, or how often a chunk has run — so a
// delay-injected run produces results bit-identical to a fault-free run at
// every Workers setting, and a faulted chunk fails the same way on every
// run, which are exactly the properties the resilience tests pin.
//
// Downstream packages use it the same way the sweep tests do: wrap the do
// function handed to sweep.RunCore,
//
//	inj := chaos.Injector{Seed: 7, DelayRate: 0.2, Delay: time.Millisecond}
//	_, err := sweep.RunCore(ctx, n, chunkSize, opts, hooks, chaos.Wrap(&inj, do), emit)
//
// and assert the results match an unwrapped run.
package chaos

import (
	"errors"
	"fmt"
	"time"
)

// ErrPermanent is the fault injected at PermanentStarts.
var ErrPermanent = errors.New("chaos: injected permanent fault")

// Injector configures deterministic fault injection, keyed by the start
// index of each chunk (the lo argument of do), which identifies a chunk
// independently of worker count and chunk size.
type Injector struct {
	// Seed drives the per-chunk delay draws.
	Seed int64
	// PanicStarts lists chunk start indices whose do call panics.
	PanicStarts []int
	// PermanentStarts lists chunk start indices whose do call fails with
	// ErrPermanent.
	PermanentStarts []int
	// DelayRate and Delay inject latency: each chunk drawn at DelayRate
	// sleeps Delay before running. Delays perturb scheduling only, never
	// results.
	DelayRate float64
	Delay     time.Duration
}

// delayed reports whether the chunk starting at lo is drawn for a delay — a
// pure function of (Seed, lo), identical for every worker count.
func (inj *Injector) delayed(lo int) bool {
	x := splitmix64(uint64(inj.Seed) ^ uint64(lo)*0x9E3779B97F4A7C15)
	return float64(x>>11)/float64(1<<53) < inj.DelayRate
}

// splitmix64 is the standard splitmix64 finalizer.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// Wrap returns a do function that injects inj's faults before delegating to
// do. A faulted chunk fails before any workload code runs, so caller
// storage is untouched.
//
//bicoop:allow deadexport — fault injection for the sweep and sweep/chaos tests
func Wrap[W any](inj *Injector, do func(W, int, int) error) func(W, int, int) error {
	panics := indexSet(inj.PanicStarts)
	perms := indexSet(inj.PermanentStarts)
	return func(w W, lo, hi int) error {
		if inj.Delay > 0 && inj.delayed(lo) {
			time.Sleep(inj.Delay)
		}
		if perms[lo] {
			return fmt.Errorf("chunk [%d,%d): %w", lo, hi, ErrPermanent)
		}
		if panics[lo] {
			panic(fmt.Sprintf("chaos: injected panic at chunk [%d,%d)", lo, hi))
		}
		return do(w, lo, hi)
	}
}

func indexSet(idx []int) map[int]bool {
	if len(idx) == 0 {
		return nil
	}
	set := make(map[int]bool, len(idx))
	for _, i := range idx {
		set[i] = true
	}
	return set
}

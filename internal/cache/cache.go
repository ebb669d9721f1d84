// Package cache is the scenario-keyed result cache behind the Engine and
// the bccd daemon. The analytic bounds are pure functions of (protocol,
// bound, scenario), so a repeat sweep point can be served from a keyed
// store instead of re-solving its LP.
//
// Keys are exact: every real coordinate (dB gains and powers, erasure
// probabilities, support-direction weights) enters its key as its IEEE-754
// bit pattern through the single Quantize chokepoint, with -0 folded onto
// +0, so two scenarios share a key only when they are the same scenario
// and keys are byte-stable across platforms. The cachekey analyzer
// (internal/lint/analyzers) enforces that no other package assembles a
// Key by hand.
//
// Store.Solve is the only lookup/fill site of the engine and the grid
// kernels: it serves a hit or runs the caller's solve and stores the
// result, and a nil *Store is the cache-off engine, which always solves
// and stores nothing. Cached values are the same cold solves an uncached
// run performs: every LP solve depends only on its own point, never on
// the points solved before it, so hits, misses and worker counts cannot
// change a single output bit.
//
// The Store is the in-process tier: sharded by key hash, per-shard
// mutex, fixed-size entry arrays with second-chance (clock) eviction,
// zero allocations on the hit path. The durable shared tier — an
// append-only record log replayed at startup — lives in internal/service
// next to the job store; this package only defines the record codec.
package cache

import (
	"math"

	"bicoop/internal/protocols"
)

// KeyVersion is the current key-layout version. It is part of every key
// and every durable record, so a change to the coordinate encoding or
// field layout silently invalidates old entries instead of aliasing them.
// Version 1 keyed coordinates on a 1e-9 grid; version 2 keys them exactly.
const KeyVersion = 2

// Key kinds: which constructor produced the key, and hence how its
// coordinate fields are to be read.
const (
	// KindWeighted keys a Gaussian-scenario weighted-sum-rate solve:
	// A..D hold the keyed scenario (PowerDB, GabDB, GarDB, GbrDB) and
	// MuA/MuB the keyed support-direction weights (1,1 for sum rate).
	KindWeighted = 1
	// KindErasure keys a TDBC/inner erasure-relaying solve: A..C hold the
	// keyed erasure probabilities (AR, BR, AB) and D, MuA, MuB are 0.
	KindErasure = 2
)

// Quantize maps one real key coordinate to its key field: the IEEE-754
// bit pattern, with -0 folded onto +0 (the two compare equal and solve
// identically). Distinct coordinates therefore never share a key field,
// so a hit can only serve the exact scenario that was solved. All key
// construction funnels through here (enforced by the cachekey analyzer).
func Quantize(v float64) int64 {
	if v == 0 {
		v = 0
	}
	return int64(math.Float64bits(v))
}

// A Key identifies one solve. Keys are comparable values; equal solves
// (same protocol, bound and coordinates) produce equal keys. Fields are
// exported only for the codec and tests — build keys with WeightedKey,
// SumRateKey or ErasureKey, never by hand (the cachekey analyzer flags
// hand-assembled keys outside this package).
type Key struct {
	Version uint8
	Kind    uint8
	Proto   uint8
	Bound   uint8
	MuA     int64
	MuB     int64
	A       int64
	B       int64
	C       int64
	D       int64
}

// WeightedKey keys the weighted-sum-rate solve max muA·Ra + muB·Rb for a
// Gaussian scenario given in dB, the shape solved by rate-region support
// directions.
func WeightedKey(p protocols.Protocol, b protocols.Bound, powerDB, gabDB, garDB, gbrDB, muA, muB float64) Key {
	return Key{
		Version: KeyVersion,
		Kind:    KindWeighted,
		Proto:   uint8(p),
		Bound:   uint8(b),
		MuA:     Quantize(muA),
		MuB:     Quantize(muB),
		A:       Quantize(powerDB),
		B:       Quantize(gabDB),
		C:       Quantize(garDB),
		D:       Quantize(gbrDB),
	}
}

// SumRateKey keys the sum-rate solve (the muA = muB = 1 weighted solve)
// of a Gaussian scenario given in dB.
func SumRateKey(p protocols.Protocol, b protocols.Bound, powerDB, gabDB, garDB, gbrDB float64) Key {
	return WeightedKey(p, b, powerDB, gabDB, garDB, gbrDB, 1, 1)
}

// ErasureKey keys the TDBC inner-bound erasure-relaying solve for the
// given per-link erasure probabilities.
func ErasureKey(epsAR, epsBR, epsAB float64) Key {
	return Key{
		Version: KeyVersion,
		Kind:    KindErasure,
		Proto:   uint8(protocols.TDBC),
		Bound:   uint8(protocols.BoundInner),
		A:       Quantize(epsAR),
		B:       Quantize(epsBR),
		C:       Quantize(epsAB),
	}
}

// A Value is one cached solve: the objective, the rate point, and the
// optimizing phase durations. Fixed-size (no slice) so entries live in
// flat shard arrays and the hit path allocates nothing.
type Value struct {
	Sum  float64
	Ra   float64
	Rb   float64
	NDur uint8
	Dur  [protocols.MaxPhases]float64
}

// MakeValue packs a solve into a Value. Durations beyond MaxPhases (which
// no compiled bound produces) are truncated.
func MakeValue(sum, ra, rb float64, durations []float64) Value {
	v := Value{Sum: sum, Ra: ra, Rb: rb}
	n := len(durations)
	if n > protocols.MaxPhases {
		n = protocols.MaxPhases
	}
	v.NDur = uint8(n)
	copy(v.Dur[:n], durations)
	return v
}

// Durations returns the cached phase durations as a freshly allocated
// slice (callers that must not allocate slice from v.Dur directly).
func (v Value) Durations() []float64 {
	if v.NDur == 0 {
		return nil
	}
	out := make([]float64, v.NDur)
	copy(out, v.Dur[:v.NDur])
	return out
}

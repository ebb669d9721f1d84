package sim

import (
	"context"
	"math"
	"math/bits"
	"math/rand"

	"bicoop/internal/gf2"
	"bicoop/internal/prob"
)

// MABCBitTrueConfig parameterizes the bit-true two-phase compute-and-forward
// simulation. It realizes the remark after Theorem 2: the relay is NOT
// required to decode both messages — it decodes only the XOR wa ⊕ wb and
// rebroadcasts it, which the erasure abstraction of the multiple-access
// phase makes exact: when both terminals transmit the same random linear
// code's parities of their own messages simultaneously, the relay observes
// the parity of the XOR (physical-layer network coding), erased with
// probability EpsMAC. Its fields obey the rules that Validate checks.
type MABCBitTrueConfig struct {
	// EpsMAC is the erasure probability of the multiple-access phase at the
	// relay; EpsRA and EpsRB are the broadcast-phase erasure probabilities
	// of the r-a and r-b links.
	EpsMAC, EpsRA, EpsRB float64
	// Rate is the common per-terminal message rate (bits per channel use);
	// compute-and-forward requires equal-length messages.
	Rate float64
	// Durations are the two phase durations, each in [0,1] and summing to 1
	// within 1e-9 (see CheckDurations); nil derives the optimal split from
	// the rate constraints.
	Durations []float64
	// BlockLength is the total number of channel uses.
	BlockLength int
	// Trials is the number of independent blocks.
	Trials int
	// Seed drives the run deterministically for a fixed (Seed, Trials,
	// Workers) triple.
	Seed int64
	// Workers bounds the worker pool sharding the trials; non-positive
	// means GOMAXPROCS. Worker seeding follows the same scheme as the
	// other simulators (Seed + w*workerSeedStride): results are a pure
	// function of (Seed, Trials, Workers), and changing Workers only
	// reshards the trials. Erasures follow the word-parallel canonical
	// stream (see erasure.go); seeds from the retired scalar stream
	// produce different — equally valid — sample paths.
	Workers int
	// Progress, when non-nil, is invoked with the cumulative completed trial
	// count at stride granularity (see runGate). Invocations are serialized
	// and the reported count is strictly increasing.
	Progress func(done, total int)
}

// Validate checks the config without running it, by the rules of
// BitTrueConfig.Validate: EpsMAC, EpsRA and EpsRB are the erasure
// probabilities, Rate is the one rate, and pinned Durations have two
// entries. A config that passes does not fail at run time.
func (cfg MABCBitTrueConfig) Validate() error {
	if err := checkErasures(cfg.EpsMAC, cfg.EpsRA, cfg.EpsRB); err != nil {
		return err
	}
	return checkBitTrue("MABC", cfg.Trials, cfg.BlockLength, cfg.Durations, 2, cfg.Rate)
}

// MABCComputeForwardBound returns the symmetric-rate bound of the
// compute-and-forward MABC scheme on the erasure abstraction: the relay
// needs Δ1·(1-EpsMAC) ≥ R to decode the XOR, and each terminal needs
// Δ2·(1-eps_own_link) ≥ R to decode the broadcast, so
//
//	R* = max over Δ of min(Δ·(1-EpsMAC), (1-Δ)·(1-EpsRA), (1-Δ)·(1-EpsRB)).
//
// Dropping the relay's decode-both requirement is exactly what removes
// Theorem 2's MAC sum constraint (the paper's remark); the per-user
// constraints keep the same shape.
func MABCComputeForwardBound(epsMAC, epsRA, epsRB float64) (rate float64, durations []float64) {
	cMAC := 1 - epsMAC
	cBC := math.Min(1-epsRA, 1-epsRB)
	if cMAC <= 0 || cBC <= 0 {
		return 0, []float64{0.5, 0.5}
	}
	// min(Δ·cMAC, (1-Δ)·cBC) is maximized where the two meet.
	d1 := cBC / (cMAC + cBC)
	return d1 * cMAC, []float64{d1, 1 - d1}
}

// RunBitTrueMABC executes the compute-and-forward MABC protocol bit by bit,
// deciding each decode by the rank of the surviving rows (see
// mabcWorker.runBlock) and sharding trials across cfg.Workers goroutines
// with per-worker RNGs, codes, and elimination scratch. Cancelling ctx stops
// every worker within one block; the counts over the blocks completed so far
// are returned alongside the (wrapped) context error.
func RunBitTrueMABC(ctx context.Context, cfg MABCBitTrueConfig) (BitTrueResult, error) {
	if err := cfg.Validate(); err != nil {
		return BitTrueResult{}, err
	}
	durations := cfg.Durations
	if durations == nil {
		_, durations = MABCComputeForwardBound(cfg.EpsMAC, cfg.EpsRA, cfg.EpsRB)
	}
	n := cfg.BlockLength
	n1 := int(math.Round(durations[0] * float64(n)))
	k := messageBits(cfg.Rate, n)
	// Neither a worker constructor nor a block can fail, so the sharder
	// returns no error.
	parts, _ := shardTrials(ctx, cfg.Trials, cfg.Workers, cfg.Seed, cfg.Progress,
		func(seed int64) (*mabcWorker, error) { return newMABCWorker(cfg, k, n1, n-n1, seed), nil },
		func(wk *mabcWorker) error { wk.record(wk.runBlock()); return nil })
	return bitTrueResult(ctx, parts, durations)
}

// mabcWorker owns one goroutine's share of the compute-and-forward Monte
// Carlo: a seed-derived RNG, two preallocated generators re-randomized in
// place per block, the message buffers, a pre-reserved gf2.Solver, and the
// row accumulator. Rows are shared generator views (RowView): read-only
// here, consumed in place by the solver. Steady-state blocks perform no
// heap allocation (gated by TestBitTrueMABCBlockZeroAllocs).
type mabcWorker struct {
	k, n1, n2 int
	rng       *rand.Rand

	// maskMAC, maskRA, maskRB draw 64 link erasures per call (see
	// erasure.go).
	maskMAC, maskRA, maskRB prob.WordBernoulli

	// codeMAC, codeBC are the generator matrices of the two random linear
	// codes, redrawn in place every block.
	codeMAC, codeBC gf2.Matrix
	// wa, wb are drawn every block only to keep the random stream of the
	// codes and erasures in its canonical order (see runBlock).
	wa, wb gf2.Vector
	solver gf2.Solver

	// survA, survB and both hold one survivor word per 64 positions of a
	// phase: the relay's in phase 1 (survA), then terminal a's, terminal
	// b's and their intersection in phase 2.
	survA, survB, both []uint64
	rows               []gf2.Vector

	tally
}

// newMABCWorker allocates a worker with every buffer at its maximum size.
func newMABCWorker(cfg MABCBitTrueConfig, k, n1, n2 int, seed int64) *mabcWorker {
	maxN := n1
	if n2 > maxN {
		maxN = n2
	}
	w := &mabcWorker{
		k: k, n1: n1, n2: n2,
		rng:     rand.New(rand.NewSource(seed)),
		maskMAC: prob.NewWordBernoulli(cfg.EpsMAC),
		maskRA:  prob.NewWordBernoulli(cfg.EpsRA),
		maskRB:  prob.NewWordBernoulli(cfg.EpsRB),
		codeMAC: gf2.NewMatrix(n1, k),
		codeBC:  gf2.NewMatrix(n2, k),
		wa:      gf2.NewVector(k),
		wb:      gf2.NewVector(k),
		survA:   make([]uint64, (maxN+63)/64),
		survB:   make([]uint64, (n2+63)/64),
		both:    make([]uint64, (n2+63)/64),
		rows:    make([]gf2.Vector, 0, maxN),
	}
	w.solver.Reserve(maxN, k)
	return w
}

// runBlock simulates one block. Returns (success, relayDecoded). Erasures
// are drawn 64 positions per mask in the canonical batch order documented
// in erasure.go, so results are bit-reproducible for a fixed (Seed, Trials,
// Workers).
//
// Every decode is decided by rank alone. The relay observes true parities
// of s = wa ⊕ wb and, once it holds s, each terminal observes true parities
// of s again, so every system is consistent and s is one of its solutions;
// elimination returns s exactly when the solution is unique, i.e. when the
// rank equals k — and a terminal holding s recovers the peer message as
// s ⊕ own. The parity values never influence an outcome, so no codeword is
// encoded and no right-hand side is built. The messages are still drawn:
// dropping their Uint64 draws would shift every later code and erasure
// draw and change each seed's counts.
//
// Both terminals decode rows of the one broadcast code, so phase 2 is first
// decided by one elimination over the rows that survived both r-a and r-b.
// Those rows are a subset of each terminal's rows, and a set of rows that
// spans GF(2)^k still spans when rows are added, so if they span, both
// terminals decode. Only when they fall short is each terminal decided on
// its own. Near the bound the shared rows rarely number k, and fewer than
// k cost no elimination (FullRank's row-count exit), so the shortcut costs
// those blocks only the gathering of row views. Every mask is drawn before
// either decision, in the order the per-terminal decodes alone would draw
// them, so no count changes.
//
//bicoop:noalloc
func (w *mabcWorker) runBlock() (bool, bool) {
	w.wa.Randomize(w.rng)
	w.wb.Randomize(w.rng)

	// Phase 1 (MAC): both terminals encode with the SAME shared generator
	// (agreed via common randomness, as in physical-layer network coding);
	// the relay observes parities of the XOR message through erasures.
	w.codeMAC.Rerandomize(w.rng)
	if !w.spans(w.codeMAC, w.receive(w.survA, w.n1, w.maskMAC)) {
		return false, false
	}

	// Phase 2 (broadcast): the relay re-encodes the XOR with a fresh code;
	// each terminal decodes it through its own link's erasures and strips
	// its own message.
	w.codeBC.Rerandomize(w.rng)
	atA := w.receive(w.survA, w.n2, w.maskRA)
	atB := w.receive(w.survB, w.n2, w.maskRB)
	for i := range w.both {
		w.both[i] = atA[i] & atB[i]
	}
	if w.spans(w.codeBC, w.both) {
		return true, true
	}
	return w.spans(w.codeBC, atA) && w.spans(w.codeBC, atB), true
}

// receive draws the erasures of an n-use phase through mask, one word per
// 64 positions, into surv and returns the survivor words.
//
//bicoop:noalloc
func (w *mabcWorker) receive(surv []uint64, n int, mask prob.WordBernoulli) []uint64 {
	surv = surv[:(n+63)/64]
	for i := range surv {
		surv[i] = ^mask.Mask(w.rng) & liveLanes(i<<6, n)
	}
	return surv
}

// spans reports whether the rows of generator g at the surviving positions
// determine the k-bit message.
//
//bicoop:noalloc
func (w *mabcWorker) spans(g gf2.Matrix, surv []uint64) bool {
	w.rows = w.rows[:0]
	for i, s := range surv {
		for m := s; m != 0; m &= m - 1 {
			w.rows = append(w.rows, g.RowView(i<<6+bits.TrailingZeros64(m)))
		}
	}
	return w.solver.FullRank(w.k, w.rows)
}

package sim

import (
	"context"
	"fmt"
	"math"
	"math/bits"
	"math/rand"

	"bicoop/internal/gf2"
	"bicoop/internal/prob"
	"bicoop/internal/protocols"
)

// ErasureNetwork instantiates the paper's three-node half-duplex network
// with binary erasure links: link (i,j) delivers each transmitted bit with
// probability 1-ε(i,j), so its per-use mutual information is 1-ε. The
// channels are reciprocal, mirroring the Gaussian model.
type ErasureNetwork struct {
	// EpsAR, EpsBR, EpsAB are the erasure probabilities of the a-r, b-r and
	// a-b links.
	EpsAR, EpsBR, EpsAB float64
}

// Validate checks the erasure probabilities.
func (n ErasureNetwork) Validate() error {
	return checkErasures(n.EpsAR, n.EpsBR, n.EpsAB)
}

// checkErasures checks that each erasure probability is in [0,1].
func checkErasures(eps ...float64) error {
	for _, e := range eps {
		if !(e >= 0 && e <= 1) {
			return fmt.Errorf("sim: erasure probability %g out of [0,1]", e)
		}
	}
	return nil
}

// LinkInfos maps the erasure network to the mutual-information terms of the
// protocol theorems: every point-to-point term is 1-ε, the broadcast
// observations are independent, and the SIMO terms combine erasures as
// 1-ε1·ε2 (the bit survives unless both copies are erased). The MAC terms
// are not meaningful for this orthogonal-erasure abstraction and are set to
// the values that make TDBC — the protocol the bit-true simulator executes —
// exactly evaluable.
func (n ErasureNetwork) LinkInfos() protocols.LinkInfos {
	return protocols.LinkInfos{
		AtoR:       1 - n.EpsAR,
		BtoR:       1 - n.EpsBR,
		AtoB:       1 - n.EpsAB,
		BtoA:       1 - n.EpsAB,
		RtoA:       1 - n.EpsAR,
		RtoB:       1 - n.EpsBR,
		MACAGivenB: 1 - n.EpsAR,
		MACBGivenA: 1 - n.EpsBR,
		MACSum:     math.Max(1-n.EpsAR, 1-n.EpsBR),
		AtoRB:      1 - n.EpsAR*n.EpsAB,
		BtoRA:      1 - n.EpsBR*n.EpsAB,
	}
}

// BitTrueConfig parameterizes a bit-true TDBC run. Its fields obey the
// rules that Validate checks.
type BitTrueConfig struct {
	// Net is the erasure network.
	Net ErasureNetwork
	// Rates is the target message rate pair in bits per channel use.
	Rates protocols.RatePair
	// Durations are the phase durations: 3 entries in [0,1] summing to 1
	// within 1e-9 (see CheckDurations). Nil asks the simulator to derive
	// them from the TDBC inner bound via LP.
	Durations []float64
	// BlockLength is the total number of channel uses n.
	BlockLength int
	// Trials is the number of independent blocks.
	Trials int
	// Seed makes the run reproducible: results are deterministic for a
	// fixed (Seed, Trials, Workers) triple.
	Seed int64
	// Workers bounds the worker pool sharding the trials; non-positive
	// means GOMAXPROCS. Each worker owns an RNG derived from Seed (worker
	// w uses Seed + w*workerSeedStride), its own codes, and its own
	// elimination scratch, so results are a pure function of (Seed,
	// Trials, Workers); changing Workers reshards the trials and changes
	// the per-trial stream, exactly as the fading Monte Carlo documents
	// for its workers. The canonical stream draws erasures 64 positions
	// at a time (see erasure.go); seeds from releases with the scalar
	// per-position stream produce different — equally valid — sample
	// paths.
	Workers int
	// Progress, when non-nil, is invoked with the cumulative completed trial
	// count at stride granularity (see runGate). Invocations are serialized
	// and the reported count is strictly increasing.
	Progress func(done, total int)
}

// maxBlockLength caps a bit-true block length. Each worker holds its codes'
// generator matrices and its elimination scratch, O(n²) bits in all: at
// the cap and rates of 1, a TDBC worker holds about 190 MiB (every channel
// use in phase 3) and an MABC worker about 100 MiB (every channel use in
// phase 1), against about 11 MiB and 6 MiB at n = 4000, the longest block
// any experiment, example or benchmark runs.
const maxBlockLength = 1 << 14

// Validate checks the config without running it. These are the rules of
// both bit-true simulators (MABCBitTrueConfig.Validate applies them to its
// own fields):
//   - Trials is positive (ErrInvalidTrials);
//   - every erasure probability is in [0,1];
//   - BlockLength is 1 to 16384 (ErrInvalidBlockLength), which with the
//     rate bound caps a worker's memory (see maxBlockLength);
//   - every rate is in [0,1], and the rates give at least one message bit
//     at BlockLength (ErrInvalidRates);
//   - pinned Durations pass CheckDurations.
//
// A config that passes can fail at run time in one way only: a TDBC config
// whose durations are derived (nil Durations) and whose rates fall outside
// the Theorem 3 inner bound returns ErrInfeasibleRates.
func (cfg BitTrueConfig) Validate() error {
	if err := cfg.Net.Validate(); err != nil {
		return err
	}
	return checkBitTrue("TDBC", cfg.Trials, cfg.BlockLength, cfg.Durations, 3, cfg.Rates.Ra, cfg.Rates.Rb)
}

// checkBitTrue checks the rules of BitTrueConfig.Validate that both
// bit-true configs share.
func checkBitTrue(protocol string, trials, n int, durations []float64, phases int, rates ...float64) error {
	if trials <= 0 {
		return fmt.Errorf("%w: bit-true simulation needs a positive Trials, got %d", ErrInvalidTrials, trials)
	}
	if n <= 0 || n > maxBlockLength {
		return fmt.Errorf("%w: %d, want 1 to %d", ErrInvalidBlockLength, n, maxBlockLength)
	}
	bits := 0
	for _, r := range rates {
		if !(r >= 0 && r <= 1) {
			return fmt.Errorf("%w: bit-true rate %g outside [0, 1]", ErrInvalidRates, r)
		}
		bits += messageBits(r, n)
	}
	if bits == 0 {
		return fmt.Errorf("%w: rates %v give no message bit in a block of %d", ErrInvalidRates, rates, n)
	}
	if durations == nil {
		return nil
	}
	return CheckDurations(protocol, durations, phases)
}

// messageBits is the length of a message at rate r in a block of n channel
// uses.
func messageBits(r float64, n int) int { return int(math.Floor(r * float64(n))) }

// BitTrueResult reports bit-true decoding outcomes.
type BitTrueResult struct {
	// SuccessProb is the fraction of blocks where both terminals recovered
	// the peer message exactly.
	SuccessProb float64
	// RelayFailures counts blocks lost because the relay could not decode.
	RelayFailures int
	// TerminalFailures counts blocks lost at a terminal despite relay
	// success.
	TerminalFailures int
	// Trials is the number of trials actually completed — the configured
	// count unless the run's context was cancelled mid-flight.
	Trials int
	// Durations echoes the durations used (after LP derivation if any).
	Durations []float64
}

// tally counts one worker's block outcomes. Both bit-true workers embed it,
// and bitTrueResult merges the workers' tallies into the run's result.
type tally struct {
	successes, relayFailures, terminalFailures int
}

// record counts one block from its (success, relayDecoded) outcome.
//
//bicoop:noalloc
func (t *tally) record(ok, relayOK bool) {
	switch {
	case ok:
		t.successes++
	case !relayOK:
		t.relayFailures++
	default:
		t.terminalFailures++
	}
}

// counts exposes the embedded tally to bitTrueResult.
func (t *tally) counts() *tally { return t }

// bitTrueResult merges the workers' tallies into the run's result. A run
// whose context ended keeps the counts of the blocks completed so far and
// reports the (wrapped) context error beside them.
func bitTrueResult[W interface{ counts() *tally }](ctx context.Context, parts []W, durations []float64) (BitTrueResult, error) {
	var sum tally
	for _, wk := range parts {
		t := wk.counts()
		sum.successes += t.successes
		sum.relayFailures += t.relayFailures
		sum.terminalFailures += t.terminalFailures
	}
	res := BitTrueResult{
		RelayFailures:    sum.relayFailures,
		TerminalFailures: sum.terminalFailures,
		Trials:           sum.successes + sum.relayFailures + sum.terminalFailures,
		Durations:        durations,
	}
	if res.Trials > 0 {
		res.SuccessProb = float64(sum.successes) / float64(res.Trials)
	}
	if err := CtxErr(ctx); err != nil {
		return res, fmt.Errorf("sim: %w", err)
	}
	return res, nil
}

// tdbcParams are the integer block dimensions of one TDBC run, derived once
// from the config and shared by every worker.
type tdbcParams struct {
	ka, kb, kr int
	n1, n2, n3 int
}

// deriveTDBCParams validates the config and resolves durations and block
// dimensions.
func deriveTDBCParams(cfg BitTrueConfig) (tdbcParams, []float64, error) {
	if err := cfg.Validate(); err != nil {
		return tdbcParams{}, nil, err
	}
	durations := cfg.Durations
	if durations == nil {
		spec, err := protocols.Compile(protocols.TDBC, protocols.BoundInner, cfg.Net.LinkInfos())
		if err != nil {
			return tdbcParams{}, nil, err
		}
		durations, err = spec.DurationsFor(cfg.Rates)
		if err != nil {
			return tdbcParams{}, nil, fmt.Errorf("%w: %w", ErrInfeasibleRates, err)
		}
	}

	// Each phase is rounded on its own, so phase 2 is clamped to what phase
	// 1 leaves: two fractions that both round up (0.5, 0.5 at an odd n)
	// would otherwise overrun the block. Phase 3 takes the rest, so the
	// phases always fill exactly n channel uses.
	n := cfg.BlockLength
	p := tdbcParams{
		n1: int(math.Round(durations[0] * float64(n))),
		ka: messageBits(cfg.Rates.Ra, n),
		kb: messageBits(cfg.Rates.Rb, n),
	}
	p.n2 = min(int(math.Round(durations[1]*float64(n))), n-p.n1)
	p.n3 = n - p.n1 - p.n2
	p.kr = max(p.ka, p.kb)
	return p, durations, nil
}

// CheckDurations validates a pinned phase split of the named protocol: want
// entries, each finite and in [0,1], summing to 1 within 1e-9. The block
// dimensions are rounded from these fractions, so anything else would size
// a phase negative or past the block.
func CheckDurations(protocol string, durations []float64, want int) error {
	if len(durations) != want {
		return fmt.Errorf("sim: %s needs %d durations, got %d", protocol, want, len(durations))
	}
	sum := 0.0
	for _, d := range durations {
		if !(d >= 0 && d <= 1) {
			return fmt.Errorf("sim: %s duration %g out of [0,1]", protocol, d)
		}
		sum += d
	}
	if math.Abs(sum-1) > 1e-9 {
		return fmt.Errorf("sim: %s durations sum to %g, want 1", protocol, sum)
	}
	return nil
}

// RunBitTrueTDBC executes the TDBC protocol bit by bit: random linear codes
// at all three encoders, random erasures on every link, overheard side
// information retained at the terminals, XOR network coding at the relay
// (zero-padded to the longer message per the paper's group construction),
// and Gaussian-elimination decoding that pools all equations a node holds —
// decided by their rank, which for these noiseless systems is exactly
// decoding success (see tdbcWorker.runBlock). Trials are sharded across
// cfg.Workers goroutines and the per-worker counters merged after the pool
// drains. Cancelling ctx stops every worker
// within one block; the counts over the blocks completed so far are returned
// alongside the (wrapped) context error.
func RunBitTrueTDBC(ctx context.Context, cfg BitTrueConfig) (BitTrueResult, error) {
	p, durations, err := deriveTDBCParams(cfg)
	if err != nil {
		return BitTrueResult{}, err
	}

	// Neither a worker constructor nor a block can fail, so the sharder
	// returns no error.
	parts, _ := shardTrials(ctx, cfg.Trials, cfg.Workers, cfg.Seed, cfg.Progress,
		func(seed int64) (*tdbcWorker, error) { return newTDBCWorker(cfg.Net, p, seed), nil },
		func(wk *tdbcWorker) error { wk.record(wk.runBlock()); return nil })
	return bitTrueResult(ctx, parts, durations)
}

// tdbcWorker owns one goroutine's share of the bit-true Monte Carlo: a
// seed-derived RNG, three preallocated generator matrices re-randomized in
// place per block, the message buffers, a gf2.Solver with pre-reserved
// scratch, and the row accumulators of each decoder. After worker
// construction a block performs no heap allocation (gated by
// TestBitTrueTDBCBlockZeroAllocs).
//
// Rows appended to the accumulators are either generator views
// (gf2.Matrix.RowView) or pooled truncations — read-only until the next
// reset, which is all the solver needs.
type tdbcWorker struct {
	net ErasureNetwork
	p   tdbcParams
	rng *rand.Rand

	// maskAR, maskBR, maskAB draw 64 link erasures per call (see erasure.go).
	maskAR, maskBR, maskAB prob.WordBernoulli

	// codeA, codeB, codeR are the generator matrices of the three random
	// linear codes, redrawn in place every block.
	codeA, codeB, codeR gf2.Matrix
	// wa, wb are drawn every block only to keep the random stream of the
	// codes and erasures in its canonical order (see runBlock).
	wa, wb gf2.Vector
	solver gf2.Solver

	relayRowsA, relayRowsB []gf2.Vector
	// rowsForA accumulates everything terminal a decodes wb from (phase-2
	// overheard rows, then truncated relay rows); rowsForB likewise for
	// terminal b and wa.
	rowsForA, rowsForB []gf2.Vector
	// truncA/truncB hold the truncated relay rows destined for terminals a
	// and b (kb- and ka-bit rows), indexed by relay symbol position and
	// written through their row views: one allocation per side, whatever
	// the block length.
	truncA, truncB gf2.Matrix
	// survA, survB hold phase 3's survivor words at terminals a and b, one
	// per 64 relay symbols; shared accumulates the untruncated relay rows
	// both terminals received.
	survA, survB []uint64
	shared       []gf2.Vector

	tally
}

// newTDBCWorker allocates a worker with every buffer sized to its maximum:
// the accumulators can never outgrow the phase lengths, so steady-state
// blocks never re-slice beyond capacity.
func newTDBCWorker(net ErasureNetwork, p tdbcParams, seed int64) *tdbcWorker {
	w := &tdbcWorker{
		net: net,
		p:   p,
		rng: rand.New(rand.NewSource(seed)),

		maskAR: prob.NewWordBernoulli(net.EpsAR),
		maskBR: prob.NewWordBernoulli(net.EpsBR),
		maskAB: prob.NewWordBernoulli(net.EpsAB),

		codeA: gf2.NewMatrix(p.n1, p.ka),
		codeB: gf2.NewMatrix(p.n2, p.kb),
		codeR: gf2.NewMatrix(p.n3, p.kr),
		wa:    gf2.NewVector(p.ka),
		wb:    gf2.NewVector(p.kb),

		relayRowsA: make([]gf2.Vector, 0, p.n1),
		relayRowsB: make([]gf2.Vector, 0, p.n2),
		rowsForA:   make([]gf2.Vector, 0, p.n2+p.n3),
		rowsForB:   make([]gf2.Vector, 0, p.n1+p.n3),
		truncA:     gf2.NewMatrix(p.n3, p.kb),
		truncB:     gf2.NewMatrix(p.n3, p.ka),
		survA:      make([]uint64, (p.n3+63)/64),
		survB:      make([]uint64, (p.n3+63)/64),
		shared:     make([]gf2.Vector, 0, p.n3),
	}
	// The terminals' shapes have the most rows: reserving them first keeps
	// the later calls from growing the scratch again.
	w.solver.Reserve(p.n2+p.n3, p.kb)
	w.solver.Reserve(p.n1+p.n3, p.ka)
	w.solver.Reserve(p.n1, p.ka)
	w.solver.Reserve(p.n2, p.kb)
	w.solver.Reserve(p.n3, p.kr)
	return w
}

// reset prepares the accumulators for a new block without releasing storage.
//
//bicoop:noalloc
func (w *tdbcWorker) reset() {
	w.relayRowsA, w.relayRowsB = w.relayRowsA[:0], w.relayRowsB[:0]
	w.rowsForA, w.rowsForB = w.rowsForA[:0], w.rowsForB[:0]
	w.shared = w.shared[:0]
}

// runBlock simulates one block. Returns (success, relayDecoded). Erasures
// are drawn 64 positions per mask in the canonical batch/link order
// documented in erasure.go, so results are bit-reproducible for a fixed
// (Seed, Trials, Workers).
//
// Every decode is decided by rank alone. Each node's equations are true
// parities of the message it decodes — the channels erase but never flip
// bits, and at the terminals the relay parity g·(pad(wa) ⊕ pad(wb)) minus
// the known own-message part is exactly the truncated row times the peer
// message — so the system is consistent and the message is one of its
// solutions. Elimination returns that message exactly when the solution is
// unique, i.e. when the rank equals the message length. The parity values
// never influence an outcome, so no codeword is encoded and no right-hand
// side is built. The messages are still drawn: dropping their Uint64 draws
// would shift every later code and erasure draw and change each seed's
// counts.
//
// Both terminals decode from rows of the one relay code, so the terminal
// phase is first decided by one elimination over the untruncated relay rows
// that survived both a-r and b-r. If they span GF(2)^kr, their first-kb and
// first-ka projections span GF(2)^kb and GF(2)^ka, and those projections
// are among each terminal's rows; a set of rows that spans still spans when
// rows are added, so both terminals decode. Only when the shared rows fall
// short are the truncated rows built and each terminal decided on its own.
// The shortcut pays off only on blocks whose shared rows span, which takes
// at least kr of them. At the durations of the Theorem 3 optimum phase 3 is
// too short for that unless the rates drop below about 0.4 of the bound,
// because the terminals lean on their overheard rows. Fewer than kr shared
// rows cost no elimination (FullRank's row-count exit), so those blocks pay
// only for gathering row views. Neither path draws randomness, so every
// count is the one the two per-terminal decodes alone would give.
//
//bicoop:noalloc
func (w *tdbcWorker) runBlock() (bool, bool) {
	w.reset()
	p := w.p
	w.wa.Randomize(w.rng)
	w.wb.Randomize(w.rng)

	// Phase 1: a broadcasts n1 random parities of wa; r and b erase
	// independently (mask order per batch: a-r, then a-b).
	w.codeA.Rerandomize(w.rng)
	for base := 0; base < p.n1; base += 64 {
		live := liveLanes(base, p.n1)
		survAR := ^w.maskAR.Mask(w.rng) & live
		survAB := ^w.maskAB.Mask(w.rng) & live
		for m := survAR; m != 0; m &= m - 1 {
			w.relayRowsA = append(w.relayRowsA, w.codeA.RowView(base+bits.TrailingZeros64(m)))
		}
		for m := survAB; m != 0; m &= m - 1 {
			w.rowsForB = append(w.rowsForB, w.codeA.RowView(base+bits.TrailingZeros64(m)))
		}
	}

	// Phase 2: b broadcasts n2 random parities of wb; r and a erase
	// independently (mask order per batch: b-r, then a-b).
	w.codeB.Rerandomize(w.rng)
	for base := 0; base < p.n2; base += 64 {
		live := liveLanes(base, p.n2)
		survBR := ^w.maskBR.Mask(w.rng) & live
		survAB := ^w.maskAB.Mask(w.rng) & live
		for m := survBR; m != 0; m &= m - 1 {
			w.relayRowsB = append(w.relayRowsB, w.codeB.RowView(base+bits.TrailingZeros64(m)))
		}
		for m := survAB; m != 0; m &= m - 1 {
			w.rowsForA = append(w.rowsForA, w.codeB.RowView(base+bits.TrailingZeros64(m)))
		}
	}

	// Relay decodes both messages (decode-and-forward).
	if !w.solver.FullRank(p.ka, w.relayRowsA) || !w.solver.FullRank(p.kb, w.relayRowsB) {
		return false, false
	}

	// Relay XOR-combines in Z_2^kr (zero-padded) and broadcasts n3 random
	// parities of wr = pad(wa) ⊕ pad(wb). Each terminal converts every
	// surviving relay parity g·wr into an equation about the peer message:
	// g·pad(wb) = g·wr ⊕ g·pad(wa) at node a (which knows wa), and
	// symmetrically at node b. Since pad(w) is zero above the message
	// length, the effective row is g truncated to the peer's length.
	// Mask order per batch: a-r, then b-r.
	w.codeR.Rerandomize(w.rng)
	for b := range w.survA {
		base := b << 6
		live := liveLanes(base, p.n3)
		w.survA[b] = ^w.maskAR.Mask(w.rng) & live // a hears the relay via a-r
		w.survB[b] = ^w.maskBR.Mask(w.rng) & live // b hears the relay via b-r
		for m := w.survA[b] & w.survB[b]; m != 0; m &= m - 1 {
			w.shared = append(w.shared, w.codeR.RowView(base+bits.TrailingZeros64(m)))
		}
	}

	// Shared rows that span decide both terminals (see above); otherwise
	// each terminal decodes from its overheard and truncated relay rows.
	if w.solver.FullRank(p.kr, w.shared) {
		return true, true
	}
	for b := range w.survA {
		base := b << 6
		for m := w.survA[b]; m != 0; m &= m - 1 {
			i := base + bits.TrailingZeros64(m)
			row := w.truncA.RowView(i)
			row.CopyPrefix(w.codeR.RowView(i))
			w.rowsForA = append(w.rowsForA, row)
		}
		for m := w.survB[b]; m != 0; m &= m - 1 {
			i := base + bits.TrailingZeros64(m)
			row := w.truncB.RowView(i)
			row.CopyPrefix(w.codeR.RowView(i))
			w.rowsForB = append(w.rowsForB, row)
		}
	}

	if !w.solver.FullRank(p.kb, w.rowsForA) || !w.solver.FullRank(p.ka, w.rowsForB) {
		return false, true
	}
	return true, true
}

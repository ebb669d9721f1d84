package sim

// Word-parallel erasure sampling. The bit-true simulators draw link erasures
// 64 channel uses at a time: one prob.WordBernoulli mask per link per batch,
// where mask bit j set means position base+j was erased, so the survivors of
// the batch are ^mask restricted to the live lanes. Each surviving position
// is then visited with a TrailingZeros64 scan — the per-position work
// (appending a generator row view and an observed bit) is unchanged from the
// scalar engine; only the coin flips are batched.
//
// This defines the canonical random stream: within a block the masks are
// drawn batch by batch in phase order, and within a batch in a fixed
// documented link order (TDBC: a-r then a-b in phase 1, b-r then a-b in
// phase 2, a-r then b-r in phase 3). MABC draws each link's masks for a
// whole phase at once: the MAC masks, then every r-a mask of phase 2, then
// every r-b mask. The
// stream differs from the retired scalar engine's one-Float64-per-position
// stream, so a given seed produces a different — equally valid — sample
// path than releases that predate the word-parallel kernel. Determinism is
// unchanged: results are a pure function of (Seed, Trials, Workers).

// liveLanes returns the live-lane mask for the 64-lane batch starting at
// base in a length-n phase: all ones except in the final partial batch.
//
//bicoop:noalloc
func liveLanes(base, n int) uint64 {
	if rem := n - base; rem < 64 {
		return 1<<uint(rem) - 1
	}
	return ^uint64(0)
}

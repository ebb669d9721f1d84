package gf2

import "math/bits"

// Dense multi-column elimination — the "method of four Russians" (M4RI)
// path of Solver. The incremental basis (solver.go) eliminates one pivot
// column per row XOR; past ~10^3 unknowns most of the solve is spent
// re-XORing long rows one pivot at a time. This path loads the equations
// into a dense tableau and reduces it to row echelon form m4riStripe pivot
// columns per pass: the stripe's pivot rows are found and reduced to a
// local reduced row echelon form, all 2^m4riStripe combinations of them are
// precomputed into a table, and every row below the pivot block then clears
// the whole stripe with ONE table lookup + row XOR instead of up to
// m4riStripe pivot XORs. Rows above the pivot block are never touched: the
// rank needs only the echelon form, and SolveInto extracts the solution by
// back-substitution (Solver.backSubstitute, shared with the incremental
// basis).
//
// Two invariants keep the echelon form exact:
//
//   - after a stripe is processed, every row below its pivot block has zero
//     bits in all of the stripe's columns;
//   - pivot rows are drawn from below the previous pivot blocks, so by the
//     first invariant they are zero on every earlier stripe — each pivot
//     row's lowest set bit is its own pivot column, and the table (built
//     from pivot rows) never re-contaminates earlier columns.
//
// How the first invariant is reached depends on the pivot search:
//
//   - found == ge (every stripe column is a pivot — the usual case for
//     random rows): local RREF makes pivot row j zero on every stripe
//     column except its own, so the XOR of the pivot rows whose columns are
//     set in a row's stripe bits clears them exactly. The table is
//     therefore indexed by the raw stripe bits, and a row's index is one
//     shift and mask of the word holding the stripe (m4riStripe divides
//     64, so a stripe never straddles words).
//   - found < ge: the search ran out of candidate rows, so it examined every
//     row below the block and reduced each non-pivot row to a zero stripe
//     on the way. Nothing is left to clear; the table is neither built nor
//     applied.
//
// The invariants also bound the work: when stripe c0 is processed, every row
// XOR — pivot search, table build and table application alike — involves
// only rows that are zero on all words before c0's word, so the inner loops
// start there and the average row operation touches half the row.
//
// At the end every row below the last pivot block is zero on every column,
// so in SolveInto a surviving RHS bit there is exactly an inconsistency.

const (
	// m4riStripe is the number of pivot columns eliminated per table pass.
	// The stripe always fits one word (8 divides 64), the table holds
	// 2^8 = 256 rows, and a row's table index is one shift and mask — past
	// the cutover the table build amortizes to well under one row XOR per
	// row per stripe.
	m4riStripe = 8
	// m4riMinCols is the automatic cutover: systems with at least this
	// many unknowns eliminate densely, shorter blocks keep the incremental
	// basis (whose early-exit and truncated XORs win on small systems).
	m4riMinCols = 512
	// m4riSlack is the number of surplus equations FullRank loads beyond
	// the unknown count: random systems reach full rank within a handful
	// of extra rows, so processing the full equation set (the incremental
	// path's early-exit advantage) is not needed; the rare rank-deficient
	// prefix falls back to the incremental path.
	m4riSlack = 64
)

// reserveDense pre-grows the dense tableau and combination table so the
// steady state allocates nothing (companion of Reserve). It sizes rows with
// the RHS word, the wider of the two tableau layouts.
//
//bicoop:allow noalloc — scratch grower: allocates here so solves never do
func (s *Solver) reserveDense(rows, cols int) {
	stride := wordsFor(cols) + 1
	if need := rows * stride; cap(s.dense) < need {
		s.dense = make([]uint64, 0, need)
	}
	if need := (1 << m4riStripe) * stride; cap(s.table) < need {
		s.table = make([]uint64, 0, need)
	}
}

// beginDense loads the first n equations over cols unknowns into the dense
// tableau. With bits non-nil every row carries its RHS bit in one trailing
// word (SolveInto); with bits nil the tableau holds the coefficients only
// (FullRank).
//
//bicoop:allow noalloc — scratch grower: allocates only on first use per shape
func (s *Solver) beginDense(n, cols int, rows []Vector, bits []int) {
	s.cols = cols
	wpr := wordsFor(cols)
	s.stride = wpr
	if bits != nil {
		s.stride++
	}
	if need := n * s.stride; cap(s.dense) < need {
		s.dense = make([]uint64, need)
	} else {
		s.dense = s.dense[:need]
	}
	if need := (1 << m4riStripe) * s.stride; cap(s.table) < need {
		s.table = make([]uint64, need)
	} else {
		s.table = s.table[:need]
	}
	if cap(s.colRow) < cols {
		s.colRow = make([]int32, cols)
	} else {
		s.colRow = s.colRow[:cols]
	}
	for i := range s.colRow {
		s.colRow[i] = -1
	}
	for i := 0; i < n; i++ {
		t := s.dense[i*s.stride : (i+1)*s.stride]
		copy(t[:wpr], rows[i].words)
		for w := len(rows[i].words); w < wpr; w++ {
			t[w] = 0
		}
		if bits != nil {
			t[wpr] = uint64(bits[i] & 1)
		}
	}
}

// solveRowsDense is SolveInto's multi-column engine: echelon form over every
// equation, the inconsistency scan over the leftover rows, then
// back-substitution.
//
//bicoop:noalloc
func (s *Solver) solveRowsDense(dst *Vector, k int, rows []Vector, bits []int) error {
	n := len(rows)
	s.beginDense(n, k, rows, bits)
	rank := s.eliminateDense(n)
	wpr := s.stride - 1
	inconsistent := false
	for i := rank; i < n; i++ {
		if s.dense[i*s.stride+wpr]&1 != 0 {
			inconsistent = true
			break
		}
	}
	return s.finishSolve(dst, s.dense, rank, inconsistent)
}

// fullRankDense is FullRank's multi-column engine. It loads only
// k+m4riSlack equations — enough for full rank on all but adversarial
// systems — and falls back to the incremental path over the complete set
// when that prefix is rank deficient, so the answer is always the rank of
// every equation.
//
//bicoop:noalloc
func (s *Solver) fullRankDense(k int, rows []Vector) bool {
	n := len(rows)
	if lim := k + m4riSlack; n > lim {
		n = lim
	}
	s.beginDense(n, k, rows, nil)
	if s.eliminateDense(n) == k {
		return true
	}
	// The loaded prefix fell short of full rank; the surplus equations may
	// still complete it.
	return n < len(rows) && s.fullRankIncremental(k, rows)
}

// eliminateDense reduces the n-row dense tableau to row echelon form,
// m4riStripe pivot columns per pass, records each pivot column's row in
// colRow and returns the rank.
//
//bicoop:noalloc
func (s *Solver) eliminateDense(n int) (rank int) {
	stride := s.stride
	var cols [m4riStripe]int // this stripe's pivot columns, discovery order
	var at [m4riStripe]int   // stripe column offset -> pivot block offset
	for c0 := 0; c0 < s.cols && rank < n; c0 += m4riStripe {
		ge := m4riStripe
		if s.cols-c0 < ge {
			ge = s.cols - c0
		}
		w0, shift := c0>>6, uint(c0&63)
		stripeMask := uint64(1)<<uint(ge) - 1

		// Pivot search: Gaussian elimination restricted to the stripe.
		// Each candidate is reduced against the stripe pivots found so
		// far; its lowest surviving stripe bit becomes a new pivot column,
		// the found pivots are back-reduced against it (local RREF), and
		// the row is swapped up to the pivot block.
		found := 0
		for i := rank; i < n && found < ge; i++ {
			// Candidate rows sit below every processed stripe, so they are
			// zero before word w0 and every XOR here can start there.
			row := s.dense[i*stride+w0 : (i+1)*stride]
			for j := 0; j < found; j++ {
				if row[0]>>uint(cols[j]&63)&1 != 0 {
					xorWords(row, s.dense[(rank+j)*stride+w0:])
				}
			}
			v := row[0] >> shift & stripeMask
			if v == 0 {
				continue
			}
			c := c0 + bits.TrailingZeros64(v)
			for j := 0; j < found; j++ {
				piv := s.dense[(rank+j)*stride+w0 : (rank+j+1)*stride]
				if piv[0]>>uint(c&63)&1 != 0 {
					xorWords(piv, row)
				}
			}
			if top := rank + found; i != top {
				other := s.dense[top*stride+w0 : (top+1)*stride]
				for w := range row {
					row[w], other[w] = other[w], row[w]
				}
			}
			cols[found] = c
			at[c-c0] = found
			s.colRow[c] = int32(rank + found)
			found++
		}
		if found < ge {
			// Every row below the block was examined and reduced to a zero
			// stripe: there is nothing left to clear.
			rank += found
			continue
		}

		// Direct-indexed combination table: entry b is the XOR of the pivot
		// rows whose stripe columns are set in b, built in one row XOR each
		// off the entry without b's lowest bit. Entries are built (and
		// applied) from word w0 on; the words below keep stale bits from
		// earlier stripes that nothing reads.
		tw := s.table[w0:stride]
		for w := range tw {
			tw[w] = 0
		}
		for b := 1; b < 1<<uint(ge); b++ {
			piv := s.dense[(rank+at[bits.TrailingZeros64(uint64(b))])*stride+w0:]
			prev := s.table[(b&(b-1))*stride+w0:]
			t := s.table[b*stride+w0 : (b+1)*stride]
			piv, prev = piv[:len(t)], prev[:len(t)]
			for w := range t {
				t[w] = prev[w] ^ piv[w]
			}
		}

		// One shift, mask, lookup and XOR clears the whole stripe in every
		// row below the pivot block.
		rank += found
		for i := rank; i < n; i++ {
			row := s.dense[i*stride+w0 : (i+1)*stride]
			if idx := int(row[0] >> shift & stripeMask); idx != 0 {
				xorWords(row, s.table[idx*stride+w0:])
			}
		}
	}
	return rank
}

// xorWords XORs src into dst word by word (src at least as long as dst).
//
//bicoop:noalloc
func xorWords(dst, src []uint64) {
	src = src[:len(dst)]
	for w := range dst {
		dst[w] ^= src[w]
	}
}

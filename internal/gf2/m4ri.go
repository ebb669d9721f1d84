package gf2

import "math/bits"

// Dense multi-column elimination — the "method of four Russians" (M4RI)
// path of Solver. The incremental basis (solver.go) eliminates one pivot
// column per row XOR; past ~10^3 unknowns most of the solve is spent
// re-XORing long rows one pivot at a time. This path loads the equations
// into a dense tableau and reduces it to row echelon form m4riBlock pivot
// columns per pass: the block's pivot rows are found and reduced to a local
// reduced row echelon form, the combinations of each m4riNibble of them are
// precomputed into one small table per nibble (Albrecht, Bard & Hart,
// "Algorithm 898", ACM TOMS 2010, use several tables the same way), and
// every row below the pivot block then clears the whole block with one
// lookup per table and ONE row XOR of the looked-up entries instead of up
// to m4riBlock pivot XORs. Rows above the pivot block are never touched:
// the rank needs only the echelon form, and SolveInto extracts the solution
// by back-substitution (Solver.backSubstitute, shared with the incremental
// basis).
//
// Two invariants keep the echelon form exact:
//
//   - after a block is processed, every row below its pivot block has zero
//     bits in all of the block's columns;
//   - pivot rows are drawn from below the previous pivot blocks, so by the
//     first invariant they are zero on every earlier block — each pivot
//     row's lowest set bit is its own pivot column, and the tables (built
//     from pivot rows) never re-contaminate earlier columns.
//
// How the first invariant is reached depends on the pivot search:
//
//   - found == ge (every block column is a pivot — the usual case for
//     random rows): local RREF makes pivot row j zero on every block column
//     except its own, so the XOR of the pivot rows whose columns are set in
//     a row's block bits clears them exactly. Each nibble of those raw bits
//     therefore indexes its own table directly, and a row's four indices
//     come from one shift and mask of the word holding the block
//     (m4riBlock divides 64, so a block never straddles words). In a
//     partial last block the missing nibbles are zero and index each
//     table's zero entry.
//   - found < ge: the search ran out of candidate rows, so it examined every
//     row below the block and reduced each non-pivot row to a zero block on
//     the way. Nothing is left to clear; the tables are neither built nor
//     applied.
//
// The invariants also bound the work: when block c0 is processed, every row
// XOR — pivot search, table build and table application alike — involves
// only rows that are zero on all words before c0's word w0, so the inner
// loops start there, the tables hold only words w0 on, and the average row
// operation touches half the row.
//
// At the end every row below the last pivot block is zero on every column,
// so in SolveInto a surviving RHS bit there is exactly an inconsistency.
//
// Clearing the rows below each pivot block (clearBlock) is most of the
// dense path's time, so it has two kernels, chosen once at package init:
//
//   - clearBlockAVX2 (m4ri_amd64.s) when haveAVX2: the CPU reports AVX2
//     (CPUID leaf 7, EBX bit 5) and AVX with OSXSAVE, and XCR0 shows the OS
//     saving the XMM and YMM state. It XORs the four table entries into a
//     row four words per VPXOR, with a scalar tail.
//   - clearBlockGo everywhere else: off amd64, on CPUs without AVX2 and
//     under the purego build tag. It is also the AVX2 kernel's test oracle
//     (FuzzClearBlockMatchesGo).
//
// The assembly kernel checks no bounds, so clearBlock checks the slice
// shapes once per call before either kernel runs. Its Go declaration is
// bodyless, which the noalloc analyzer skips; the kernel allocates nothing,
// so the package's //bicoop:noalloc contract holds on both paths.

const (
	// m4riBlock is the number of pivot columns eliminated per pass. The
	// block always fits one word (16 divides 64), so a row's table indices
	// are one shift and mask away.
	m4riBlock = 16
	// m4riNibble is the number of block columns one table covers: the
	// block's m4riTables tables hold m4riEntries rows each, 64 in all
	// against the 2^16 of a single table over the block, so the build
	// costs under four row XORs per block column while the application
	// still clears the block in one pass over each row.
	m4riNibble  = 4
	m4riTables  = m4riBlock / m4riNibble
	m4riEntries = 1 << m4riNibble
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

// reserveDense pre-grows the dense tableau and combination tables so the
// steady state allocates nothing (companion of Reserve). It sizes rows with
// the RHS word, the wider of the two tableau layouts.
//
//bicoop:allow noalloc — scratch grower: allocates here so solves never do
func (s *Solver) reserveDense(rows, cols int) {
	stride := wordsFor(cols) + 1
	if need := rows * stride; cap(s.dense) < need {
		s.dense = make([]uint64, 0, need)
	}
	if need := m4riTables * m4riEntries * stride; cap(s.table) < need {
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
	if need := m4riTables * m4riEntries * s.stride; cap(s.table) < need {
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
// m4riBlock pivot columns per pass, records each pivot column's row in
// colRow and returns the rank.
//
//bicoop:noalloc
func (s *Solver) eliminateDense(n int) (rank int) {
	stride := s.stride
	var cols [m4riBlock]int // this block's pivot columns, discovery order
	var at [m4riBlock]int   // block column offset -> pivot block offset
	for c0 := 0; c0 < s.cols && rank < n; c0 += m4riBlock {
		ge := min(m4riBlock, s.cols-c0)
		w0, shift := c0>>6, uint(c0&63)
		blockMask := uint64(1)<<uint(ge) - 1

		// Pivot search: Gaussian elimination restricted to the block.
		// Each candidate is reduced against the block pivots found so
		// far; its lowest surviving block bit becomes a new pivot column,
		// the found pivots are back-reduced against it (local RREF), and
		// the row is swapped up to the pivot block.
		found := 0
		for i := rank; i < n && found < ge; i++ {
			// Candidate rows sit below every processed block, so they are
			// zero before word w0 and every XOR here can start there.
			row := s.dense[i*stride+w0 : (i+1)*stride]
			for j := 0; j < found; j++ {
				if row[0]>>uint(cols[j]&63)&1 != 0 {
					xorWords(row, s.dense[(rank+j)*stride+w0:])
				}
			}
			v := row[0] >> shift & blockMask
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
			// block: there is nothing left to clear.
			rank += found
			continue
		}

		// Direct-indexed combination tables, packed at the width tw of
		// words w0 on: entry b of table t is the XOR of the pivot rows
		// whose block columns 4t..4t+3 are set in b, built in one row XOR
		// each off the entry without b's lowest bit. Entry 0 of every
		// table is zero, which is what a partial last block's missing
		// nibbles index.
		tw := stride - w0
		tab := s.table[:m4riTables*m4riEntries*tw]
		for t := 0; t < m4riTables; t++ {
			base := t * m4riEntries * tw
			zero := tab[base : base+tw]
			for w := range zero {
				zero[w] = 0
			}
			nb := min(max(ge-t*m4riNibble, 0), m4riNibble)
			for b := 1; b < 1<<uint(nb); b++ {
				piv := s.dense[(rank+at[t*m4riNibble+bits.TrailingZeros(uint(b))])*stride+w0:]
				prev := tab[base+(b&(b-1))*tw:]
				e := tab[base+b*tw : base+(b+1)*tw]
				piv, prev = piv[:len(e)], prev[:len(e)]
				for w := range e {
					e[w] = prev[w] ^ piv[w]
				}
			}
		}

		if rank += found; rank < n {
			clearBlock(s.dense[rank*stride+w0:n*stride], stride, tw, shift, blockMask, tab)
		}
	}
	return rank
}

// clearBlock clears a fully pivoted block in every row of rows (row-major at
// stride, each row starting at the block's word) with the block's tables
// (m4riTables tables of m4riEntries entries of tw words, back to back): one
// shift and mask yields the four nibble indices, and one pass XORing the
// four looked-up entries into the row clears the whole block.
//
// It checks the shapes once per call — whole rows of tw words at stride,
// every table entry inside tab, a block index below 2^m4riBlock, a shift
// inside the word — so a caller bug panics here rather than letting the
// unchecked AVX2 kernel write out of bounds, then runs clearBlockAVX2 where
// haveAVX2 and clearBlockGo otherwise.
//
//bicoop:noalloc
func clearBlock(rows []uint64, stride, tw int, shift uint, blockMask uint64, tab []uint64) {
	if tw < 1 || stride < tw || len(rows) < tw || (len(rows)-tw)%stride != 0 ||
		len(tab) < m4riTables*m4riEntries*tw || blockMask>>m4riBlock != 0 || shift >= 64 {
		panic(ErrShape)
	}
	if haveAVX2 {
		clearBlockAVX2(rows, stride, tw, shift, blockMask, tab)
		return
	}
	clearBlockGo(rows, stride, tw, shift, blockMask, tab)
}

// clearBlockGo is clearBlock's portable kernel and the AVX2 kernel's test
// oracle. It is a function of its own so the compiler keeps the loop's
// slices in registers.
//
//bicoop:noalloc
func clearBlockGo(rows []uint64, stride, tw int, shift uint, blockMask uint64, tab []uint64) {
	for off := 0; off < len(rows); off += stride {
		v := int(rows[off] >> shift & blockMask)
		if v == 0 {
			continue
		}
		row := rows[off : off+tw]
		e0 := tab[(v&0xf)*tw:][:len(row)]
		e1 := tab[(m4riEntries+v>>4&0xf)*tw:][:len(row)]
		e2 := tab[(2*m4riEntries+v>>8&0xf)*tw:][:len(row)]
		e3 := tab[(3*m4riEntries+v>>12)*tw:][:len(row)]
		for w := range row {
			row[w] ^= e0[w] ^ e1[w] ^ e2[w] ^ e3[w]
		}
	}
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

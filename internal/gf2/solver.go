package gf2

import (
	"fmt"
	"math/bits"
)

// Solver performs Gaussian elimination over GF(2) in a persistent scratch
// tableau, so repeated eliminations (the bit-true simulators run two to five
// per block) reuse one allocation. SolveInto solves a system;
// FullRank only decides whether the rows span all k unknowns, which for a
// consistent system is exactly whether SolveInto would return the true
// solution, at a fraction of the work.
//
// The algorithm is an incremental word-level basis reduction: equations are
// consumed one at a time, each reduced against the pivot rows collected so
// far. A pivot row is stored with its leading column as pivot, so it has no
// set bit before that column and every XOR into a candidate row starts at
// the pivot's word. Leading columns are found with bits.TrailingZeros64 on
// the candidate's words (whose lower bits are zero by construction, so no
// per-bit scan is ever needed). Each tableau row carries the equation's RHS
// bit in one trailing word, riding along through every row operation. The
// basis can hold at most cols pivots, so the tableau is (cols+1) rows
// regardless of how many equations are fed in — dependent equations reduce
// to zero in the spare slot and are discarded (after their RHS bit is
// checked for consistency).
//
// Systems of at least m4riMinCols (64) unknowns are eliminated by the dense
// multi-column path in m4ri.go instead — same results, fewer row XORs, and
// less time from about 48 unknowns up; the incremental basis remains the
// path for narrower and underdetermined systems and the fallback after a
// rank-deficient dense FullRank prefix. Both paths stop at row echelon
// form, and SolveInto reads the solution off it with one shared
// back-substitution.
//
// The zero value is ready to use. A Solver is NOT safe for concurrent use;
// give each goroutine its own (the simulator's worker pool does).
type Solver struct {
	tab    []uint64 // basis rows plus one spare slot, row-major
	colRow []int32  // pivot column -> tab row index, or -1
	cols   int
	stride int // words per tableau row, including the trailing RHS word

	dense []uint64 // m4ri tableau: every equation, row-major
	// table holds m4ri's m4riTables × m4riEntries combination rows. Each
	// block uses them twice: first over the raw pivot rows, to rewrite
	// them as the reduced pivot rows, then, once those tables are dead,
	// over the reduced pivot rows indexed by block bits, to clear the rows
	// below. The second use reuses the first's rows, so the scratch stays
	// at 64 rows.
	table []uint64

	// force pins the elimination path for tests and benchmarks:
	// forceAuto (zero value) applies the size cutover.
	force int
}

// Elimination-path overrides for Solver.force.
const (
	forceAuto = iota
	forceIncremental
	forceDense
)

// Reserve grows the scratch so a subsequent rows-by-cols solve performs no
// allocation. Calling it for each system shape a worker will see makes the
// steady state strictly allocation-free (the AllocsPerRun gates in
// internal/sim rely on this). The dense tableau is sized for the
// cols+m4riSlack rows FullRank loads at most, so a dense SolveInto with
// more equations than that may grow it once.
//
//bicoop:allow noalloc — scratch grower: allocates here so solves never do
func (s *Solver) Reserve(rows, cols int) {
	basis := rows
	if cols < basis {
		basis = cols
	}
	if need := (basis + 1) * (wordsFor(cols) + 1); cap(s.tab) < need {
		s.tab = make([]uint64, 0, need)
	}
	if cap(s.colRow) < cols {
		s.colRow = make([]int32, 0, cols)
	}
	if cols >= m4riMinCols && rows >= cols {
		s.reserveDense(rows, cols)
	}
}

// begin sizes the tableau for a system with nrows equations over cols
// unknowns and clears the pivot index.
//
//bicoop:allow noalloc — scratch grower: allocates only on first use per shape
func (s *Solver) begin(nrows, cols int) {
	s.cols = cols
	s.stride = wordsFor(cols) + 1
	basis := nrows
	if cols < basis {
		basis = cols
	}
	need := (basis + 1) * s.stride
	if cap(s.tab) < need {
		s.tab = make([]uint64, need)
	} else {
		s.tab = s.tab[:need]
	}
	if cap(s.colRow) < cols {
		s.colRow = make([]int32, cols)
	} else {
		s.colRow = s.colRow[:cols]
	}
	for i := range s.colRow {
		s.colRow[i] = -1
	}
}

// loadSpare copies one equation (row words + RHS bit) into the spare slot
// after the current basis and returns the slot's words.
//
//bicoop:noalloc
func (s *Solver) loadSpare(rank int, words []uint64, rhs uint64) []uint64 {
	t := s.tab[rank*s.stride : (rank+1)*s.stride]
	wpr := s.stride - 1
	copy(t[:wpr], words)
	for w := len(words); w < wpr; w++ {
		t[w] = 0
	}
	t[wpr] = rhs
	return t
}

// reduce eliminates the spare row against the basis. It returns the row's
// leading column if the row is independent (the caller then promotes the
// spare slot to a pivot row), or -1 if the row reduced to zero; zero reports
// whether the surviving RHS bit is zero (consistency of a dependent row).
//
//bicoop:noalloc
func (s *Solver) reduce(cur []uint64) (lead int, zero bool) {
	wpr := s.stride - 1
	for w := 0; w < wpr; {
		if cur[w] == 0 {
			w++
			continue
		}
		c := w<<6 + bits.TrailingZeros64(cur[w])
		j := s.colRow[c]
		if j < 0 {
			return c, true
		}
		// XOR the pivot row in; its leading column is c, so words before w
		// cannot change, and bit c clears. Bits below c in word w are zero
		// by the reduction invariant, so the scan never moves backward.
		piv := s.tab[int(j)*s.stride : (int(j)+1)*s.stride]
		for i := w; i < s.stride; i++ {
			cur[i] ^= piv[i]
		}
	}
	return -1, cur[wpr]&1 == 0
}

// finishSolve turns the outcome of an elimination into the Solve semantics
// (inconsistency takes precedence over underdetermination) and extracts the
// solution from tab — the incremental basis or the dense echelon tableau —
// when it is unique.
//
//bicoop:noalloc
func (s *Solver) finishSolve(dst *Vector, tab []uint64, rank int, inconsistent bool) error {
	if inconsistent {
		return ErrInconsistent
	}
	if rank < s.cols {
		return ErrUnderdetermined
	}
	s.backSubstitute(dst, tab)
	return nil
}

// backSubstitute extracts the unique solution of a full-rank echelon
// tableau (row stride s.stride, trailing RHS word, pivot rows indexed by
// s.colRow) into dst. Both eliminators leave every pivot row zero below its
// own column, so pivot columns are processed in descending order: a pivot
// row's bits beyond its own column only involve columns whose solution bit
// is already known, and each step is one word-level dot product from the
// pivot's word.
//
//bicoop:noalloc
func (s *Solver) backSubstitute(dst *Vector, tab []uint64) {
	for w := range dst.words {
		dst.words[w] = 0
	}
	wpr := s.stride - 1
	for c := s.cols - 1; c >= 0; c-- {
		row := tab[int(s.colRow[c])*s.stride:]
		acc := row[wpr] & 1 // the equation's RHS bit
		var x uint64
		for w := c >> 6; w < wpr; w++ {
			x ^= row[w] & dst.words[w]
		}
		acc ^= uint64(bits.OnesCount64(x) & 1)
		dst.words[c>>6] |= acc << uint(c&63)
	}
}

// SolveInto solves rows[i]·x = bits[i] for a k-bit x, writing the solution
// into dst (which must have k bits; its contents are unspecified when an
// error is returned). It returns ErrInconsistent / ErrUnderdetermined
// unwrapped — the steady-state path, including decoding failures, performs
// zero allocations once the scratch has grown. It is the full decoder that
// FullRank is checked against.
//
//bicoop:noalloc
//bicoop:allow deadexport — reference decoder for the gf2 and sim tests
func (s *Solver) SolveInto(dst *Vector, k int, rows []Vector, bits []int) error {
	if len(rows) != len(bits) {
		return fmt.Errorf("%w: %d rows, %d bits", ErrShape, len(rows), len(bits))
	}
	if dst.n != k {
		return fmt.Errorf("%w: dst %d bits, want %d", ErrShape, dst.n, k)
	}
	for i, row := range rows {
		if row.n != k {
			return fmt.Errorf("%w: row %d has %d bits, want %d", ErrShape, i, row.n, k)
		}
	}
	if s.useDense(len(rows), k) {
		return s.solveRowsDense(dst, k, rows, bits)
	}
	return s.solveRowsIncremental(dst, k, rows, bits)
}

// FullRank reports whether rows (each k bits wide) span GF(2)^k. For a
// consistent system — e.g. noiseless erasure observations, every equation a
// true parity of the transmitted message — that is exactly "SolveInto
// returns the message", so a decoder that only compares its output against
// the message can skip the RHS and the solution extraction entirely. The
// incremental path stops at the k-th pivot; the dense path eliminates only
// the first k+m4riSlack rows and falls back to the incremental path when
// that prefix is rank deficient. Fewer than k rows cannot span, so they
// report false before any elimination; so does a row of any other width.
// Steady-state calls perform zero allocations once the scratch has grown.
//
//bicoop:noalloc
func (s *Solver) FullRank(k int, rows []Vector) bool {
	if len(rows) < k {
		return false
	}
	for _, row := range rows {
		if row.n != k {
			return false
		}
	}
	if s.useDense(len(rows), k) {
		return s.fullRankDense(k, rows)
	}
	return s.fullRankIncremental(k, rows)
}

// useDense applies the multi-column cutover: wide systems with at least as
// many equations as unknowns (anything narrower is underdetermined, which
// the incremental basis detects cheaply).
func (s *Solver) useDense(nrows, cols int) bool {
	switch s.force {
	case forceIncremental:
		return false
	case forceDense:
		return true
	}
	return cols >= m4riMinCols && nrows >= cols
}

// solveRowsIncremental is SolveInto's incremental engine. Once the basis
// holds k pivots the solution is unique, so it is extracted right away and
// every remaining equation is checked against it with one dot product
// instead of a full reduction.
//
//bicoop:noalloc
func (s *Solver) solveRowsIncremental(dst *Vector, k int, rows []Vector, bits []int) error {
	s.begin(len(rows), k)
	rank := 0
	inconsistent := false
	i := 0
	for ; i < len(rows) && rank < k; i++ {
		cur := s.loadSpare(rank, rows[i].words, uint64(bits[i]&1))
		lead, zero := s.reduce(cur)
		if lead >= 0 {
			s.colRow[lead] = int32(rank)
			rank++
		} else if !zero {
			inconsistent = true
		}
	}
	if err := s.finishSolve(dst, s.tab, rank, inconsistent); err != nil {
		return err
	}
	for ; i < len(rows); i++ {
		if Dot(rows[i], *dst) != bits[i]&1 {
			return ErrInconsistent
		}
	}
	return nil
}

// fullRankIncremental feeds rows into the incremental basis until it holds
// k pivots or the rows run out.
//
//bicoop:noalloc
func (s *Solver) fullRankIncremental(k int, rows []Vector) bool {
	s.begin(len(rows), k)
	rank := 0
	for i := 0; i < len(rows) && rank < k; i++ {
		cur := s.loadSpare(rank, rows[i].words, 0)
		if lead, _ := s.reduce(cur); lead >= 0 {
			s.colRow[lead] = int32(rank)
			rank++
		}
	}
	return rank == k
}

package gf2

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
)

// forceSolver returns a Solver pinned to the given elimination path; the
// force knob exists exactly so these tests and the solver benchmarks can
// exercise the dense path below the automatic cutover.
func forceSolver(mode int) *Solver {
	return &Solver{force: mode}
}

// TestDenseSolveMatchesReference is the dense twin of
// TestSolverMatchesReference: across the same randomized square, tall, wide,
// rank-deficient, consistent and inconsistent systems, the forced-dense
// eliminator must return exactly the reference solver's solution bit for bit
// or exactly its error class.
func TestDenseSolveMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(30))
	s := forceSolver(forceDense)
	counts := map[string]int{}
	for trial := 0; trial < 400; trial++ {
		kind := []string{"square", "tall", "wide"}[trial%3]
		m, b := randomSystem(t, r, kind)
		want, wantErr := refSolve(m, b)

		rows, _ := matrixRows(m)
		bits := make([]int, m.Rows())
		for i := range bits {
			bits[i] = b.Bit(i)
		}
		got := NewVector(m.Cols())
		err := s.SolveInto(&got, m.Cols(), rows, bits)

		switch {
		case wantErr == nil:
			counts["unique"]++
			if err != nil {
				t.Fatalf("trial %d (%s): dense SolveInto err %v, reference solved", trial, kind, err)
			}
			if !got.Equal(want) {
				t.Fatalf("trial %d (%s): dense solution mismatch", trial, kind)
			}
		case errors.Is(wantErr, ErrInconsistent):
			counts["inconsistent"]++
			if !errors.Is(err, ErrInconsistent) {
				t.Fatalf("trial %d (%s): err %v, want ErrInconsistent", trial, kind, err)
			}
		case errors.Is(wantErr, ErrUnderdetermined):
			counts["underdetermined"]++
			if !errors.Is(err, ErrUnderdetermined) {
				t.Fatalf("trial %d (%s): err %v, want ErrUnderdetermined", trial, kind, err)
			}
		default:
			t.Fatalf("trial %d: unexpected reference error %v", trial, wantErr)
		}
	}
	for _, class := range []string{"unique", "inconsistent", "underdetermined"} {
		if counts[class] == 0 {
			t.Errorf("no %s systems generated — dense property sweep lost coverage", class)
		}
	}
}

// TestDenseSolveWideColumns runs the two elimination paths side by side on
// square, tall and short systems at widths around the m4riBlock edges — one
// short of a block, a whole block, one past it — at blocks that start
// mid-word (80, 112, 144, 176), where a partial last block leaves whole
// nibbles missing, and at widths past one word, where the block index
// extraction moves across words.
func TestDenseSolveWideColumns(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	widths := []int{100, 112, 127, 128, 129, 144, 176, 200, 300}
	for m := 1; m <= 5; m++ {
		widths = append(widths, m4riBlock*m-1, m4riBlock*m, m4riBlock*m+1)
	}
	for _, k := range widths {
		for _, n := range []int{k - 3, k, k + r.Intn(40), k + m4riSlack} {
			name := fmt.Sprintf("k=%d n=%d", k, n)
			checkDenseMatchesIncremental(t, name, RandomMatrix(n, k, r), RandomVector(k, r))
		}
	}
}

// TestDenseConsistentMatchesIncremental pins FullRank across the two paths
// on planted-solution systems, the bit-true decoders' regime: the forced
// dense and forced incremental answers must agree with each other, with the
// reference rank, and with "SolveInto returns the planted solution".
func TestDenseConsistentMatchesIncremental(t *testing.T) {
	r := rand.New(rand.NewSource(32))
	dense := forceSolver(forceDense)
	inc := forceSolver(forceIncremental)
	counts := map[bool]int{}
	for trial := 0; trial < 200; trial++ {
		cols := 1 + r.Intn(150)
		rows := cols - 5 + r.Intn(150)
		m := RandomMatrix(rows, cols, r)
		rv, _ := matrixRows(m)
		want := refRank(m) == cols
		counts[want]++
		if got := dense.FullRank(cols, rv); got != want {
			t.Fatalf("trial %d: dense FullRank = %v, reference rank says %v", trial, got, want)
		}
		if got := inc.FullRank(cols, rv); got != want {
			t.Fatalf("trial %d: incremental FullRank = %v, reference rank says %v", trial, got, want)
		}
		x := RandomVector(cols, r)
		got := NewVector(cols)
		solved := dense.SolveInto(&got, cols, rv, planted(rv, x)) == nil && got.Equal(x)
		if solved != want {
			t.Fatalf("trial %d: dense SolveInto recovered the planted solution = %v, FullRank = %v", trial, solved, want)
		}
	}
	if counts[true] == 0 || counts[false] == 0 {
		t.Errorf("full-rank/deficient mix %v lost coverage", counts)
	}
}

// TestDenseConsistentFallback forces the rank-deficient-prefix escape hatch:
// the first cols+m4riSlack equations are copies of one row, so the dense
// prefix cannot reach full rank and FullRank must fall back to the
// incremental path over the complete set — which does reach it.
func TestDenseConsistentFallback(t *testing.T) {
	r := rand.New(rand.NewSource(33))
	const cols = 32
	dup := RandomVector(cols, r)

	var full Matrix
	for {
		full = RandomMatrix(cols, cols, r)
		if full.Rank() == cols {
			break
		}
	}
	nDup := cols + m4riSlack
	rows := make([]Vector, 0, nDup+cols)
	for i := 0; i < nDup; i++ {
		rows = append(rows, dup)
	}
	for i := 0; i < cols; i++ {
		rows = append(rows, full.RowView(i))
	}

	s := forceSolver(forceDense)
	if !s.FullRank(cols, rows) {
		t.Fatal("FullRank missed the full rank reached past the dense prefix")
	}
	if s.FullRank(cols, rows[:nDup+cols-1]) {
		t.Fatal("FullRank reported full rank one row short of it")
	}
}

// planted returns the RHS bits rows·x of a consistent system.
func planted(rows []Vector, x Vector) []int {
	bits := make([]int, len(rows))
	for i, row := range rows {
		bits[i] = Dot(row, x)
	}
	return bits
}

// TestFullRankMatchesSolveInto pins the rank path to the solution path on
// consistent systems at widths around every word and cutover boundary, with
// both elimination paths forced: FullRank must be true exactly when
// SolveInto returns the planted solution, and the two paths must agree
// with each other on both answers. The system families cover full-rank
// random rows, duplicated rows (candidates that reduce to zero inside a
// block), a repeated column (a block whose pivot search finds fewer pivots
// than columns while rows below still carry its bits), one row short, and
// a rank-deficient k+m4riSlack prefix completed by later rows (the dense
// FullRank fallback).
func TestFullRankMatchesSolveInto(t *testing.T) {
	r := rand.New(rand.NewSource(35))
	paths := []struct {
		name string
		s    *Solver
	}{{"dense", forceSolver(forceDense)}, {"incremental", forceSolver(forceIncremental)}}
	for _, k := range []int{0, 1, 63, 64, 65, 200, 511, 512, 513, 800, 1000} {
		type family struct {
			name string
			rows []Vector
			want int // 1 full rank, 0 deficient, -1 unknown (paths must agree)
		}
		random := matrixRowsOf(RandomMatrix(k+m4riSlack, k, r))
		fams := []family{{"random", random, 1}}
		if k > 0 {
			dupRows := matrixRowsOf(RandomMatrix(k/2+1, k, r))
			dupRows = append(dupRows, dupRows...)
			dupRows = append(dupRows, matrixRowsOf(RandomMatrix(k/2+m4riSlack, k, r))...)
			r.Shuffle(len(dupRows), func(i, j int) { dupRows[i], dupRows[j] = dupRows[j], dupRows[i] })
			fams = append(fams,
				family{"duplicated rows", dupRows, 1},
				family{"one short", random[:k-1], 0})
		}
		if k > 1 {
			c := r.Intn(k - 1)
			fams = append(fams, family{"repeated column", repeatColumn(RandomMatrix(k+m4riSlack, k, r), c), 0})
			prefix := repeatColumn(RandomMatrix(k+m4riSlack, k, r), c)
			fams = append(fams, family{"deficient prefix", append(prefix, matrixRowsOf(RandomMatrix(k+8, k, r))...), -1})
		}
		for _, f := range fams {
			x := RandomVector(k, r)
			bits := planted(f.rows, x)
			var answers [2]bool
			for pi, path := range paths {
				full := path.s.FullRank(k, f.rows)
				got := NewVector(k)
				err := path.s.SolveInto(&got, k, f.rows, bits)
				if err != nil && !errors.Is(err, ErrUnderdetermined) {
					t.Fatalf("k=%d %s %s: SolveInto err %v on a consistent system", k, f.name, path.name, err)
				}
				if solved := err == nil && got.Equal(x); solved != full {
					t.Fatalf("k=%d %s %s: FullRank %v but SolveInto recovered the message = %v", k, f.name, path.name, full, solved)
				}
				if f.want >= 0 && full != (f.want == 1) {
					t.Fatalf("k=%d %s %s: FullRank %v, want %v", k, f.name, path.name, full, f.want == 1)
				}
				answers[pi] = full
			}
			if answers[0] != answers[1] {
				t.Fatalf("k=%d %s: dense FullRank %v, incremental %v", k, f.name, answers[0], answers[1])
			}
		}
	}
}

// matrixRowsOf returns the rows of m as views.
func matrixRowsOf(m Matrix) []Vector {
	rows, _ := matrixRows(m)
	return rows
}

// repeatColumn overwrites column c+1 of m with column c, capping the rank
// at cols-1, and returns the rows. The block holding c+1 then finds fewer
// pivots than columns whenever c and c+1 share it.
func repeatColumn(m Matrix, c int) []Vector {
	for i := 0; i < m.Rows(); i++ {
		m.Set(i, c+1, m.At(i, c))
	}
	return matrixRowsOf(m)
}

// checkDenseMatchesIncremental compares the two elimination paths on the
// rows of m: the dense echelon rank must equal the reference rank, forced
// dense and forced incremental FullRank must both report whether that rank
// is m's width, and SolveInto on both paths must return the same error
// class, and the same solution when it is unique, for the planted right-hand
// side m·x and for one with its last bit flipped (inconsistent whenever the
// last row depends on the others).
func checkDenseMatchesIncremental(t *testing.T, name string, m Matrix, x Vector) {
	t.Helper()
	k, n := m.Cols(), m.Rows()
	rows := matrixRowsOf(m)
	want := refRank(m)
	var s Solver
	s.beginDense(n, k, rows, nil)
	if got := s.eliminateDense(n); got != want {
		t.Fatalf("%s: dense rank %d, reference rank %d", name, got, want)
	}
	dense, inc := forceSolver(forceDense), forceSolver(forceIncremental)
	if d, i := dense.FullRank(k, rows), inc.FullRank(k, rows); d != i || d != (want == k) {
		t.Fatalf("%s: FullRank dense %v, incremental %v, reference rank %d of %d", name, d, i, want, k)
	}
	bits := planted(rows, x)
	for _, flip := range []bool{false, true} {
		if flip {
			bits[n-1] ^= 1
		}
		gd, gi := NewVector(k), NewVector(k)
		ed := dense.SolveInto(&gd, k, rows, bits)
		ei := inc.SolveInto(&gi, k, rows, bits)
		if errorClass(ed) != errorClass(ei) {
			t.Fatalf("%s (flip %v): dense SolveInto err %v, incremental %v", name, flip, ed, ei)
		}
		if ed == nil && !gd.Equal(gi) {
			t.Fatalf("%s (flip %v): dense and incremental solutions differ", name, flip)
		}
		if !flip && (ed == nil) != (want == k) {
			t.Fatalf("%s: SolveInto err %v on a consistent system of rank %d of %d", name, ed, want, k)
		}
		if !flip && ed == nil && !gd.Equal(x) {
			t.Fatalf("%s: dense SolveInto missed the planted solution", name)
		}
	}
}

// errorClass names SolveInto's outcome for comparing the two paths.
func errorClass(err error) string {
	switch {
	case err == nil:
		return "solved"
	case errors.Is(err, ErrInconsistent):
		return "inconsistent"
	case errors.Is(err, ErrUnderdetermined):
		return "underdetermined"
	}
	return err.Error()
}

// TestDenseDeficientBlock builds systems whose chosen 16-column block holds
// only p independent columns, p = 1..15: the block's other columns repeat a
// kept column or are zero, so its pivot search finds p pivots while the
// rows below still carry the block's bits (repeats) or carry none (zeros).
// The blocks before and after stay random, so the elimination must resume
// exactly after the short block.
func TestDenseDeficientBlock(t *testing.T) {
	r := rand.New(rand.NewSource(37))
	for _, k := range []int{48, 100, 200} {
		for p := 1; p < m4riBlock; p++ {
			m := RandomMatrix(k+m4riSlack, k, r)
			c0 := m4riBlock * r.Intn(k/m4riBlock)
			perm := r.Perm(m4riBlock)
			kept, rest := perm[:p], perm[p:]
			for j, c := range rest {
				src := -1 // zero column
				if j%2 == 0 {
					src = c0 + kept[r.Intn(p)]
				}
				for i := 0; i < m.Rows(); i++ {
					bit := 0
					if src >= 0 {
						bit = m.At(i, src)
					}
					m.Set(i, c0+c, bit)
				}
			}
			name := fmt.Sprintf("k=%d block %d with %d pivots", k, c0/m4riBlock, p)
			checkDenseMatchesIncremental(t, name, m, RandomVector(k, r))
		}
	}
}

// TestDenseDependentCandidates builds systems in which about a third of the
// rows repeat an earlier row or XOR two of the eight rows before them, so
// every block meets, among its first 16 candidates, rows in the span of
// candidates before them: clears are linear, so such a row stays dependent
// through every earlier block. The pivot search must skip them (their block
// bits reduce to zero), leave them in place and let the clear pass alone
// zero them, on full-rank and rank-deficient systems alike.
func TestDenseDependentCandidates(t *testing.T) {
	r := rand.New(rand.NewSource(38))
	for _, k := range []int{48, 200, 800} {
		ns := []int{3*k/2 + m4riSlack} // full rank despite the dependents
		if k < 800 {
			// Rank deficient as well: the last blocks come up short. (The
			// reference rank at k = 800 costs seconds per system.)
			ns = append(ns, k+m4riSlack)
		}
		for _, n := range ns {
			m := RandomMatrix(n, k, r)
			dependent := 0
			for i := 8; i < n; i++ {
				a, b := i-1-r.Intn(8), i-1-r.Intn(8)
				switch r.Intn(6) {
				case 0: // repeat an earlier row
					copy(m.rowWords(i), m.rowWords(a))
				case 1: // XOR two earlier rows
					copy(m.rowWords(i), m.rowWords(a))
					if a != b {
						for w := range m.rowWords(i) {
							m.rowWords(i)[w] ^= m.rowWords(b)[w]
						}
					}
				default:
					continue
				}
				dependent++
			}
			name := fmt.Sprintf("k=%d n=%d with %d dependent rows", k, n, dependent)
			checkDenseMatchesIncremental(t, name, m, RandomVector(k, r))
		}
	}
}

// FuzzDenseMatchesIncremental drives checkDenseMatchesIncremental with
// random systems of up to 200 unknowns reshaped by fuzzed edits: each
// 5-byte record copies or zeroes a column or a row, which puts repeated
// and empty columns, and so short blocks, anywhere in the tableau.
func FuzzDenseMatchesIncremental(f *testing.F) {
	f.Add(uint8(15), uint8(m4riSlack), int64(1), []byte{})
	f.Add(uint8(79), uint8(16), int64(2), []byte{0, 0, 64, 0, 65, 1, 0, 70, 0, 0})
	f.Fuzz(func(t *testing.T, width, extra uint8, seed int64, edits []byte) {
		k := 1 + int(width)%200
		n := max(k+int(extra%96)-16, 1)
		r := rand.New(rand.NewSource(seed))
		m := RandomMatrix(n, k, r)
		for e := 0; e+5 <= len(edits) && e < 5*64; e += 5 {
			a := int(edits[e+1])<<8 | int(edits[e+2])
			b := int(edits[e+3])<<8 | int(edits[e+4])
			switch edits[e] % 4 {
			case 0: // copy column a to column b
				for i := 0; i < n; i++ {
					m.Set(i, b%k, m.At(i, a%k))
				}
			case 1: // zero column a
				for i := 0; i < n; i++ {
					m.Set(i, a%k, 0)
				}
			case 2: // copy row a to row b
				for j := 0; j < k; j++ {
					m.Set(b%n, j, m.At(a%n, j))
				}
			default: // zero row a
				for j := 0; j < k; j++ {
					m.Set(a%n, j, 0)
				}
			}
		}
		checkDenseMatchesIncremental(t, fmt.Sprintf("k=%d n=%d", k, n), m, RandomVector(k, r))
	})
}

// TestDenseAutoCutover pins the size cutover itself: only systems with at
// least m4riMinCols unknowns and at least as many equations go dense.
func TestDenseAutoCutover(t *testing.T) {
	var s Solver
	cases := []struct {
		nrows, cols int
		want        bool
	}{
		{m4riMinCols, m4riMinCols, true},
		{m4riMinCols + 100, m4riMinCols, true},
		{m4riMinCols - 1, m4riMinCols, false}, // underdetermined: stay incremental
		{m4riMinCols, m4riMinCols - 1, false}, // short block: stay incremental
		{64, 64, false},
		{4096, 4096, true},
	}
	for _, c := range cases {
		if got := s.useDense(c.nrows, c.cols); got != c.want {
			t.Errorf("useDense(%d, %d) = %v, want %v", c.nrows, c.cols, got, c.want)
		}
	}
	s.force = forceIncremental
	if s.useDense(4096, 4096) {
		t.Error("forceIncremental did not pin the incremental path")
	}
	s.force = forceDense
	if !s.useDense(4, 4) {
		t.Error("forceDense did not pin the dense path")
	}
}

// TestDenseZeroAllocSteadyState extends the allocation contract across the
// cutover: after Reserve for a dense-path shape, repeated solves — the auto
// path at a real simulator shape — allocate nothing, and neither does
// FullRank on either path, deciding full rank or not.
func TestDenseZeroAllocSteadyState(t *testing.T) {
	r := rand.New(rand.NewSource(34))
	const cols = m4riMinCols + 88 // 600 unknowns: the waterfall-test shape
	const rows = cols + m4riSlack
	m := RandomMatrix(rows, cols, r)
	x := RandomVector(cols, r)
	b, _ := m.MulVec(x)
	rv, _ := matrixRows(m)
	bits := make([]int, rows)
	for i := range bits {
		bits[i] = b.Bit(i)
	}

	var s Solver
	s.Reserve(rows, cols)
	dst := NewVector(cols)
	if n := testing.AllocsPerRun(20, func() {
		if err := s.SolveInto(&dst, cols, rv, bits); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("dense solve allocates %.1f/op, want 0", n)
	}
	for _, path := range []*Solver{&s, forceSolver(forceIncremental)} {
		path.Reserve(rows, cols)
		if n := testing.AllocsPerRun(20, func() {
			if !path.FullRank(cols, rv) {
				t.Fatal("FullRank missed a full-rank system")
			}
		}); n != 0 {
			t.Errorf("FullRank (force %d) allocates %.1f/op, want 0", path.force, n)
		}
		if n := testing.AllocsPerRun(20, func() {
			if path.FullRank(cols, rv[:cols-1]) {
				t.Fatal("FullRank reported full rank one row short")
			}
		}); n != 0 {
			t.Errorf("failing FullRank (force %d) allocates %.1f/op, want 0", path.force, n)
		}
	}
	if !dst.Equal(x) {
		t.Fatal("dense steady-state solution is not the planted one")
	}
}

package gf2

import (
	"errors"
	"fmt"
	"math/bits"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestVectorBasics(t *testing.T) {
	v := NewVector(130)
	if v.Len() != 130 {
		t.Fatalf("Len = %d, want 130", v.Len())
	}
	v.Set(0, 1)
	v.Set(64, 1)
	v.Set(129, 1)
	if v.Weight() != 3 {
		t.Errorf("Weight = %d, want 3", v.Weight())
	}
	if v.Bit(0) != 1 || v.Bit(64) != 1 || v.Bit(129) != 1 || v.Bit(1) != 0 {
		t.Error("Set/Bit mismatch")
	}
	v.Set(64, 0)
	if v.Bit(64) != 0 || v.Weight() != 2 {
		t.Error("clearing a bit failed")
	}
}

func TestVectorXor(t *testing.T) {
	a := VectorFromBits([]bool{true, false, true, false})
	b := VectorFromBits([]bool{true, true, false, false})
	x, err := a.Xor(b)
	if err != nil {
		t.Fatal(err)
	}
	want := VectorFromBits([]bool{false, true, true, false})
	if !x.Equal(want) {
		t.Errorf("Xor = %v, want %v", x, want)
	}
	// Xor with self is zero.
	z, err := a.Xor(a)
	if err != nil {
		t.Fatal(err)
	}
	if z.Weight() != 0 {
		t.Errorf("a xor a has weight %d", z.Weight())
	}
	// Shape mismatch.
	if _, err := a.Xor(NewVector(5)); !errors.Is(err, ErrShape) {
		t.Errorf("err = %v, want ErrShape", err)
	}
}

func TestXorGroupProperties(t *testing.T) {
	// (Z_2^k, xor) is the group the paper's relay operates in: check
	// associativity, identity, and self-inverse on random vectors.
	r := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		n := 1 + r.Intn(200)
		a, b, c := RandomVector(n, r), RandomVector(n, r), RandomVector(n, r)
		ab, _ := a.Xor(b)
		abc1, _ := ab.Xor(c)
		bc, _ := b.Xor(c)
		abc2, _ := a.Xor(bc)
		if !abc1.Equal(abc2) {
			t.Fatal("xor not associative")
		}
		zero := NewVector(n)
		az, _ := a.Xor(zero)
		if !az.Equal(a) {
			t.Fatal("zero is not identity")
		}
		// Relay decode step: b recovers wa from (wa xor wb) and wb.
		wab, _ := a.Xor(b)
		rec, _ := wab.Xor(b)
		if !rec.Equal(a) {
			t.Fatal("xor side-information recovery failed")
		}
	}
}

func TestVectorString(t *testing.T) {
	v := VectorFromBits([]bool{true, false, true})
	if got := v.String(); got != "101" {
		t.Errorf("String = %q, want 101", got)
	}
}

func TestIdentityMulVec(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	id := Identity(100)
	x := RandomVector(100, r)
	y, err := id.MulVec(x)
	if err != nil {
		t.Fatal(err)
	}
	if !y.Equal(x) {
		t.Error("identity multiply changed the vector")
	}
}

func TestMulVecKnown(t *testing.T) {
	// [[1,1],[0,1],[1,0]] * [1,1] = [0,1,1].
	m := NewMatrix(3, 2)
	m.Set(0, 0, 1)
	m.Set(0, 1, 1)
	m.Set(1, 1, 1)
	m.Set(2, 0, 1)
	x := VectorFromBits([]bool{true, true})
	y, err := m.MulVec(x)
	if err != nil {
		t.Fatal(err)
	}
	want := VectorFromBits([]bool{false, true, true})
	if !y.Equal(want) {
		t.Errorf("MulVec = %v, want %v", y, want)
	}
}

func TestRank(t *testing.T) {
	tests := []struct {
		name string
		m    func() Matrix
		want int
	}{
		{name: "identity", m: func() Matrix { return Identity(8) }, want: 8},
		{name: "zero", m: func() Matrix { return NewMatrix(5, 7) }, want: 0},
		{
			name: "duplicate rows",
			m: func() Matrix {
				m := NewMatrix(3, 3)
				m.Set(0, 0, 1)
				m.Set(1, 0, 1) // same as row 0
				m.Set(2, 1, 1)
				return m
			},
			want: 2,
		},
		{
			name: "dependent row",
			m: func() Matrix {
				m := NewMatrix(3, 3)
				// r0 = 110, r1 = 011, r2 = r0 xor r1 = 101.
				m.Set(0, 0, 1)
				m.Set(0, 1, 1)
				m.Set(1, 1, 1)
				m.Set(1, 2, 1)
				m.Set(2, 0, 1)
				m.Set(2, 2, 1)
				return m
			},
			want: 2,
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.m().Rank(); got != tt.want {
				t.Errorf("Rank = %d, want %d", got, tt.want)
			}
		})
	}
}

func TestRankBounds(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for trial := 0; trial < 30; trial++ {
		rows, cols := 1+r.Intn(100), 1+r.Intn(100)
		m := RandomMatrix(rows, cols, r)
		rank := m.Rank()
		if rank < 0 || rank > rows || rank > cols {
			t.Fatalf("rank %d out of bounds for %dx%d", rank, rows, cols)
		}
		// Rank is invariant under row duplication.
		dup := m.Clone()
		if rows > 0 {
			if err := dup.AppendRow(m.Row(0)); err != nil {
				t.Fatal(err)
			}
		}
		if dup.Rank() != rank {
			t.Fatalf("rank changed after duplicating a row: %d -> %d", rank, dup.Rank())
		}
	}
}

func TestRandomSquareMatrixRankDistribution(t *testing.T) {
	// A random n x n GF(2) matrix is full rank with probability
	// prod_{i=1..n} (1 - 2^{-i}) -> ~0.2887881. Check empirically.
	r := rand.New(rand.NewSource(4))
	const n, trials = 20, 2000
	full := 0
	for i := 0; i < trials; i++ {
		if RandomMatrix(n, n, r).Rank() == n {
			full++
		}
	}
	got := float64(full) / trials
	if got < 0.25 || got > 0.33 {
		t.Errorf("full-rank fraction = %v, want ~0.289", got)
	}
}

func TestSolve(t *testing.T) {
	t.Run("unique solution round trip", func(t *testing.T) {
		r := rand.New(rand.NewSource(5))
		for trial := 0; trial < 40; trial++ {
			k := 1 + r.Intn(60)
			// Draw a random full-rank square system by rejection.
			var m Matrix
			for {
				m = RandomMatrix(k, k, r)
				if m.Rank() == k {
					break
				}
			}
			x := RandomVector(k, r)
			b, err := m.MulVec(x)
			if err != nil {
				t.Fatal(err)
			}
			got, err := m.Solve(b)
			if err != nil {
				t.Fatal(err)
			}
			if !got.Equal(x) {
				t.Fatalf("trial %d: Solve mismatch", trial)
			}
		}
	})
	t.Run("inconsistent", func(t *testing.T) {
		// Rows: x0 = 0 and x0 = 1.
		m := NewMatrix(2, 1)
		m.Set(0, 0, 1)
		m.Set(1, 0, 1)
		b := VectorFromBits([]bool{false, true})
		if _, err := m.Solve(b); !errors.Is(err, ErrInconsistent) {
			t.Errorf("err = %v, want ErrInconsistent", err)
		}
	})
	t.Run("underdetermined", func(t *testing.T) {
		m := NewMatrix(1, 2)
		m.Set(0, 0, 1)
		b := VectorFromBits([]bool{true})
		if _, err := m.Solve(b); !errors.Is(err, ErrUnderdetermined) {
			t.Errorf("err = %v, want ErrUnderdetermined", err)
		}
	})
	t.Run("overdetermined consistent", func(t *testing.T) {
		// Three consistent equations about two unknowns.
		m := NewMatrix(3, 2)
		m.Set(0, 0, 1) // x0 = 1
		m.Set(1, 1, 1) // x1 = 0
		m.Set(2, 0, 1) // x0 + x1 = 1
		m.Set(2, 1, 1)
		b := VectorFromBits([]bool{true, false, true})
		x, err := m.Solve(b)
		if err != nil {
			t.Fatal(err)
		}
		if x.Bit(0) != 1 || x.Bit(1) != 0 {
			t.Errorf("x = %v, want 10", x)
		}
	})
	t.Run("shape mismatch", func(t *testing.T) {
		m := NewMatrix(2, 2)
		if _, err := m.Solve(NewVector(3)); !errors.Is(err, ErrShape) {
			t.Errorf("err = %v, want ErrShape", err)
		}
	})
}

// survivors returns the equations (generator row, received bit) of the
// positions of codeword x = g·w that the erasure pattern keeps.
func survivors(g Matrix, x Vector, erased []bool) ([]Vector, []int) {
	var rows []Vector
	var rowBits []int
	for i := range erased {
		if !erased[i] {
			rows = append(rows, g.RowView(i))
			rowBits = append(rowBits, x.Bit(i))
		}
	}
	return rows, rowBits
}

// decodeEquations solves rows[i]·w = bits[i] for a k-bit message w.
func decodeEquations(k int, rows []Vector, rowBits []int) (Vector, error) {
	var s Solver
	x := NewVector(k)
	err := s.SolveInto(&x, k, rows, rowBits)
	return x, err
}

func TestCodeRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(6))
	g := RandomMatrix(100, 50, r)
	w := RandomVector(50, r)
	x, err := g.MulVec(w)
	if err != nil {
		t.Fatal(err)
	}
	// No erasures: decoding must succeed with overwhelming probability
	// (the 100x50 random matrix is full column rank w.h.p.).
	rows, rowBits := survivors(g, x, make([]bool, 100))
	got, err := decodeEquations(50, rows, rowBits)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(w) {
		t.Error("decode mismatch with no erasures")
	}
}

func TestCodeErasureThreshold(t *testing.T) {
	// Random linear codes on the BEC decode iff surviving rows have full
	// column rank; with n(1-eps) >> k survival is near-certain, with
	// n(1-eps) < k decoding must fail (underdetermined).
	r := rand.New(rand.NewSource(7))
	const n, k = 200, 80
	g := RandomMatrix(n, k, r)
	w := RandomVector(k, r)
	x, err := g.MulVec(w)
	if err != nil {
		t.Fatal(err)
	}

	t.Run("below capacity succeeds", func(t *testing.T) {
		// Keep 120 of 200 positions: 120 > 80 = k, success w.h.p.
		successes := 0
		for trial := 0; trial < 50; trial++ {
			rows, rowBits := survivors(g, x, randomErasure(n, n-120, r))
			if got, err := decodeEquations(k, rows, rowBits); err == nil && got.Equal(w) {
				successes++
			}
		}
		if successes < 48 {
			t.Errorf("successes = %d/50, want near all", successes)
		}
	})
	t.Run("above capacity fails", func(t *testing.T) {
		// Keep only 60 positions: 60 < 80 = k, decoding is always
		// underdetermined.
		for trial := 0; trial < 20; trial++ {
			rows, rowBits := survivors(g, x, randomErasure(n, n-60, r))
			if _, err := decodeEquations(k, rows, rowBits); err == nil {
				t.Fatal("decoded with fewer equations than unknowns")
			}
		}
	})
}

// randomErasure returns an erasure pattern with exactly nErased erasures.
func randomErasure(n, nErased int, r *rand.Rand) []bool {
	erased := make([]bool, n)
	perm := r.Perm(n)
	for _, i := range perm[:nErased] {
		erased[i] = true
	}
	return erased
}

func TestDecodeEquationsPoolsAcrossSources(t *testing.T) {
	// A node pools equations from two codes about the same message — the
	// protocol simulator's side-information combining step.
	r := rand.New(rand.NewSource(9))
	const k = 40
	w := RandomVector(k, r)
	g1 := RandomMatrix(30, k, r) // alone underdetermined (30 < 40)
	g2 := RandomMatrix(30, k, r)
	x1, _ := g1.MulVec(w)
	x2, _ := g2.MulVec(w)

	rows, bitsArr := survivors(g1, x1, make([]bool, 30))
	// g1 alone must fail.
	if _, err := decodeEquations(k, rows, bitsArr); err == nil {
		t.Fatal("expected failure with 30 equations for 40 unknowns")
	}
	rows2, bits2 := survivors(g2, x2, make([]bool, 30))
	got, err := decodeEquations(k, append(rows, rows2...), append(bitsArr, bits2...))
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(w) {
		t.Error("pooled decode mismatch")
	}
}

func TestMulVecLinearity(t *testing.T) {
	// Property: G(a xor b) == Ga xor Gb.
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n, k := 1+r.Intn(80), 1+r.Intn(80)
		g := RandomMatrix(n, k, r)
		a, b := RandomVector(k, r), RandomVector(k, r)
		ab, _ := a.Xor(b)
		gab, _ := g.MulVec(ab)
		ga, _ := g.MulVec(a)
		gb, _ := g.MulVec(b)
		want, _ := ga.Xor(gb)
		return gab.Equal(want)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// The helpers below build and inspect test matrices and wrap the Solver in
// the allocate-per-call form the reference checks use. Only tests need them.

// RandomVector returns a uniformly random n-bit vector drawn from r.
func RandomVector(n int, r *rand.Rand) Vector {
	v := NewVector(n)
	v.Randomize(r)
	return v
}

// VectorFromBits builds a vector from a bool slice.
func VectorFromBits(bits []bool) Vector {
	v := NewVector(len(bits))
	for i, b := range bits {
		if b {
			v.Set(i, 1)
		}
	}
	return v
}

// Weight returns the Hamming weight.
func (v Vector) Weight() int {
	var c int
	for _, w := range v.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// RandomMatrix returns a uniformly random rows-by-cols matrix.
func RandomMatrix(rows, cols int, r *rand.Rand) Matrix {
	m := NewMatrix(rows, cols)
	m.Rerandomize(r)
	return m
}

// Identity returns the n-by-n identity.
func Identity(n int) Matrix {
	m := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		m.Set(i, i, 1)
	}
	return m
}

// Rows returns the number of rows.
func (m Matrix) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m Matrix) Cols() int { return m.cols }

// At returns entry (i, j).
func (m Matrix) At(i, j int) int {
	return int(m.words[i*m.stride+j/64] >> (j % 64) & 1)
}

// Row returns a copy of row i.
func (m Matrix) Row(i int) Vector { return m.RowView(i).Clone() }

// AppendRow appends a copy of row v; v must have m.cols bits.
func (m *Matrix) AppendRow(v Vector) error {
	if v.n != m.cols {
		return fmt.Errorf("%w: row has %d bits, matrix has %d cols", ErrShape, v.n, m.cols)
	}
	m.words = append(m.words, v.words...)
	m.rows++
	return nil
}

// Clone returns a deep copy.
func (m Matrix) Clone() Matrix {
	out := Matrix{rows: m.rows, cols: m.cols, stride: m.stride, words: make([]uint64, len(m.words))}
	copy(out.words, m.words)
	return out
}

// Rank returns the GF(2) rank of the matrix.
func (m Matrix) Rank() int {
	var s Solver
	return s.Rank(m)
}

// Solve finds x with m·x = b (b has m.rows bits). It returns
// ErrInconsistent when no solution exists and ErrUnderdetermined when the
// solution is not unique.
func (m Matrix) Solve(b Vector) (Vector, error) {
	if b.n != m.rows {
		return Vector{}, fmt.Errorf("%w: rhs %d bits, matrix %d rows", ErrShape, b.n, m.rows)
	}
	var s Solver
	x := NewVector(m.cols)
	if err := s.SolveMatrixInto(&x, m, b); err != nil {
		return Vector{}, err
	}
	return x, nil
}

// Len returns the logical bit length.
func (v Vector) Len() int { return v.n }

// Set sets bit i to b (0 or 1).
func (v *Vector) Set(i, b int) {
	if b != 0 {
		v.words[i/64] |= 1 << (i % 64)
	} else {
		v.words[i/64] &^= 1 << (i % 64)
	}
}

// Xor returns v ⊕ w. Lengths must match.
func (v Vector) Xor(w Vector) (Vector, error) {
	if v.n != w.n {
		return Vector{}, fmt.Errorf("%w: %d vs %d bits", ErrShape, v.n, w.n)
	}
	out := NewVector(v.n)
	for i := range v.words {
		out.words[i] = v.words[i] ^ w.words[i]
	}
	return out, nil
}

// Clone returns a deep copy.
func (v Vector) Clone() Vector {
	out := Vector{n: v.n, words: make([]uint64, len(v.words))}
	copy(out.words, v.words)
	return out
}

// Set sets entry (i, j).
func (m *Matrix) Set(i, j, b int) {
	if b != 0 {
		m.words[i*m.stride+j/64] |= 1 << (j % 64)
	} else {
		m.words[i*m.stride+j/64] &^= 1 << (j % 64)
	}
}

// SolveMatrixInto solves m·x = b into dst without cloning m; dst must have
// m.Cols() bits and b m.Rows() bits.
func (s *Solver) SolveMatrixInto(dst *Vector, m Matrix, b Vector) error {
	if b.n != m.rows {
		return fmt.Errorf("%w: rhs %d bits, matrix %d rows", ErrShape, b.n, m.rows)
	}
	if dst.n != m.cols {
		return fmt.Errorf("%w: dst %d bits, matrix %d cols", ErrShape, dst.n, m.cols)
	}
	s.begin(m.rows, m.cols)
	rank := 0
	inconsistent := false
	for i := 0; i < m.rows; i++ {
		cur := s.loadSpare(rank, m.rowWords(i), uint64(b.Bit(i)))
		lead, zero := s.reduce(cur)
		if lead >= 0 {
			s.colRow[lead] = int32(rank)
			rank++
		} else if !zero {
			inconsistent = true
		}
	}
	return s.finishSolve(dst, s.tab, rank, inconsistent)
}

// Rank computes the GF(2) rank of m in the scratch tableau, leaving m
// untouched.
func (s *Solver) Rank(m Matrix) int {
	s.begin(m.rows, m.cols)
	rank := 0
	for i := 0; i < m.rows && rank < m.cols; i++ {
		cur := s.loadSpare(rank, m.rowWords(i), 0)
		if lead, _ := s.reduce(cur); lead >= 0 {
			s.colRow[lead] = int32(rank)
			rank++
		}
	}
	return rank
}

// Package gf2 implements linear algebra over GF(2) with 64-bit packed rows:
// matrices, Gaussian elimination, rank, and linear-system solving. It backs
// the bit-true simulation of the paper's achievability arguments, where
// random coding and random binning are realized as random linear maps and
// maximum-likelihood decoding over erasure links reduces to solving a linear
// system.
//
// The hot-path entry points are the in-place ones: Matrix.Rerandomize redraws
// a generator without allocating, Solver.SolveInto eliminates in a persistent
// word-level tableau (row echelon form, then back-substitution),
// Solver.FullRank decides decodability of a consistent system from the rank
// alone, and the Vector methods Randomize, CopyPrefix, XorWith and the Dot
// function operate on whole 64-bit words. The original
// allocate-per-call API (RandomMatrix, Matrix.Solve, DecodeEquations, ...)
// remains as thin wrappers.
//
// The package directive below puts the whole package under the noalloc
// analyzer: every function is held to the 0-allocs contract unless its doc
// comment ends with an audited //bicoop:allow noalloc waiver (the cold
// constructors and scratch growers).
//
//bicoop:noalloc
package gf2

import (
	"errors"
	"fmt"
	"math/bits"
	"math/rand"
)

// Errors returned by this package.
var (
	ErrShape           = errors.New("gf2: dimension mismatch")
	ErrInconsistent    = errors.New("gf2: inconsistent linear system")
	ErrUnderdetermined = errors.New("gf2: underdetermined linear system")
)

// wordsFor returns the number of 64-bit words packing n bits.
func wordsFor(n int) int { return (n + 63) / 64 }

// Vector is a packed bit vector of fixed logical length. The words beyond
// the logical length are kept zero (the invariant every word-level operation
// in this package relies on).
type Vector struct {
	n     int
	words []uint64
}

// NewVector returns an all-zero vector of n bits.
//
//bicoop:allow noalloc — cold constructor; hot paths reuse via the In-place API
func NewVector(n int) Vector {
	return Vector{n: n, words: make([]uint64, wordsFor(n))}
}

// RandomVector returns a uniformly random n-bit vector drawn from r.
func RandomVector(n int, r *rand.Rand) Vector {
	v := NewVector(n)
	v.Randomize(r)
	return v
}

// Randomize refills v with uniformly random bits drawn from r, in place.
// It consumes exactly one Uint64 per backing word, like RandomVector.
//
//bicoop:noalloc
func (v *Vector) Randomize(r *rand.Rand) {
	for i := range v.words {
		v.words[i] = r.Uint64()
	}
	v.maskTail()
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

func (v *Vector) maskTail() {
	if v.n%64 != 0 && len(v.words) > 0 {
		v.words[len(v.words)-1] &= (uint64(1) << (v.n % 64)) - 1
	}
}

// Len returns the logical bit length.
func (v Vector) Len() int { return v.n }

// Bit returns bit i as 0 or 1.
func (v Vector) Bit(i int) int {
	return int(v.words[i/64] >> (i % 64) & 1)
}

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

// XorWith adds w into v in place (v ^= w), zero-extending w when it is
// shorter than v. It is the allocation-free companion of Xor for hot loops
// (stripping known side information, accumulating a padded XOR).
//
//bicoop:noalloc
func (v *Vector) XorWith(w Vector) error {
	if w.n > v.n {
		return fmt.Errorf("%w: xor of %d bits into %d", ErrShape, w.n, v.n)
	}
	for i := range w.words {
		v.words[i] ^= w.words[i]
	}
	return nil
}

// CopyPrefix fills v with the first v.Len() bits of src, zero-padding when
// src is shorter than v. It is the word-level primitive behind both row
// truncation (v shorter than src) and zero-padded embedding (v longer).
//
//bicoop:noalloc
func (v *Vector) CopyPrefix(src Vector) {
	nw := len(src.words)
	if len(v.words) < nw {
		nw = len(v.words)
	}
	copy(v.words[:nw], src.words[:nw])
	for i := nw; i < len(v.words); i++ {
		v.words[i] = 0
	}
	v.maskTail()
}

// Dot returns the GF(2) inner product of the overlapping prefix of a and b
// (bits past the shorter vector's length contribute nothing). Word-level:
// XOR of per-word ANDs, then one popcount parity.
//
//bicoop:noalloc
func Dot(a, b Vector) int {
	nw := len(a.words)
	if len(b.words) < nw {
		nw = len(b.words)
	}
	var acc uint64
	for i := 0; i < nw; i++ {
		acc ^= a.words[i] & b.words[i]
	}
	return bits.OnesCount64(acc) & 1
}

// Equal reports bitwise equality.
func (v Vector) Equal(w Vector) bool {
	if v.n != w.n {
		return false
	}
	for i := range v.words {
		if v.words[i] != w.words[i] {
			return false
		}
	}
	return true
}

// Weight returns the Hamming weight.
func (v Vector) Weight() int {
	var c int
	for _, w := range v.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// Clone returns a deep copy.
//
//bicoop:allow noalloc — cold copy; the kernels never clone
func (v Vector) Clone() Vector {
	out := Vector{n: v.n, words: make([]uint64, len(v.words))}
	copy(out.words, v.words)
	return out
}

// String renders the vector as a bit string, LSB first.
//
//bicoop:allow noalloc — diagnostic rendering, never on the hot path
func (v Vector) String() string {
	buf := make([]byte, v.n)
	for i := 0; i < v.n; i++ {
		buf[i] = byte('0' + v.Bit(i))
	}
	return string(buf)
}

// Matrix is a dense GF(2) matrix backed by a single flat []uint64, packed
// row-major with a fixed word stride per row. The flat backing is what makes
// in-place re-randomization and row views allocation-free.
type Matrix struct {
	rows, cols int
	stride     int // words per row
	words      []uint64
}

// NewMatrix returns an all-zero rows-by-cols matrix.
//
//bicoop:allow noalloc — cold constructor; hot paths reuse via Rerandomize
func NewMatrix(rows, cols int) Matrix {
	s := wordsFor(cols)
	return Matrix{rows: rows, cols: cols, stride: s, words: make([]uint64, rows*s)}
}

// RandomMatrix returns a uniformly random rows-by-cols matrix.
func RandomMatrix(rows, cols int, r *rand.Rand) Matrix {
	m := NewMatrix(rows, cols)
	m.Rerandomize(r)
	return m
}

// Rerandomize redraws every entry uniformly at random, in place: no
// allocation, same row-major draw order (one Uint64 per word) as
// RandomMatrix. This is how the bit-true simulator draws its three fresh
// codes per block without reallocating the generators. Row views and
// Received observations taken from the matrix before the redraw alias the
// new contents afterwards.
//
//bicoop:noalloc
func (m *Matrix) Rerandomize(r *rand.Rand) {
	for i := 0; i < m.rows; i++ {
		row := m.RowView(i)
		row.Randomize(r)
	}
}

// rowWords returns row i's backing words.
func (m Matrix) rowWords(i int) []uint64 {
	return m.words[i*m.stride : (i+1)*m.stride]
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

// Set sets entry (i, j).
func (m *Matrix) Set(i, j, b int) {
	if b != 0 {
		m.words[i*m.stride+j/64] |= 1 << (j % 64)
	} else {
		m.words[i*m.stride+j/64] &^= 1 << (j % 64)
	}
}

// Row returns a copy of row i.
func (m Matrix) Row(i int) Vector { return m.RowView(i).Clone() }

// RowView returns row i sharing the matrix's storage. The caller must treat
// it as read-only; it is the allocation-free companion of Row for hot loops
// that only read rows (e.g. accumulating decode equations). A later
// AppendRow may move the backing array, so views should not outlive
// structural changes to the matrix.
func (m Matrix) RowView(i int) Vector {
	return Vector{n: m.cols, words: m.rowWords(i)}
}

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
//
//bicoop:allow noalloc — cold copy; the kernels never clone
func (m Matrix) Clone() Matrix {
	out := Matrix{rows: m.rows, cols: m.cols, stride: m.stride, words: make([]uint64, len(m.words))}
	copy(out.words, m.words)
	return out
}

// MulVec returns m·x over GF(2); x must have m.cols bits. The result has
// m.rows bits, one parity per row.
func (m Matrix) MulVec(x Vector) (Vector, error) {
	out := NewVector(m.rows)
	if err := m.MulVecInto(&out, x); err != nil {
		return Vector{}, err
	}
	return out, nil
}

// MulVecInto computes m·x into dst without allocating; dst must have m.rows
// bits and x must have m.cols bits.
//
//bicoop:noalloc
func (m Matrix) MulVecInto(dst *Vector, x Vector) error {
	if x.n != m.cols {
		return fmt.Errorf("%w: vector %d bits, matrix %d cols", ErrShape, x.n, m.cols)
	}
	if dst.n != m.rows {
		return fmt.Errorf("%w: dst %d bits, matrix %d rows", ErrShape, dst.n, m.rows)
	}
	for i := range dst.words {
		dst.words[i] = 0
	}
	for i := 0; i < m.rows; i++ {
		row := m.rowWords(i)
		var acc uint64
		for w, xw := range x.words {
			acc ^= row[w] & xw
		}
		dst.words[i/64] |= uint64(bits.OnesCount64(acc)&1) << (i % 64)
	}
	return nil
}

// Rank returns the GF(2) rank of the matrix.
func (m Matrix) Rank() int {
	var s Solver
	return s.Rank(m)
}

// Solve finds x with m·x = b (b has m.rows bits). It returns
// ErrInconsistent when no solution exists and ErrUnderdetermined when the
// solution is not unique; the bit-true decoder treats both as decoding
// failures. Solve allocates per call; hot loops should hold a Solver and
// use SolveInto.
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

// Code is a random linear block code: k message bits mapped to n coded bits
// by x = G·w with a dense random generator G (n-by-k). Random linear codes
// achieve capacity on erasure channels, which is exactly the guarantee the
// paper's random-coding arguments need from this substrate.
type Code struct {
	// G is the n-by-k generator matrix.
	G Matrix
}

// NewCode draws a random (n, k) code from r.
func NewCode(n, k int, r *rand.Rand) Code {
	return Code{G: RandomMatrix(n, k, r)}
}

// Rerandomize redraws the generator in place (see Matrix.Rerandomize).
func (c *Code) Rerandomize(r *rand.Rand) { c.G.Rerandomize(r) }

// N returns the block length.
func (c Code) N() int { return c.G.rows }

// K returns the message length.
func (c Code) K() int { return c.G.cols }

// Encode maps a k-bit message to its n-bit codeword.
func (c Code) Encode(w Vector) (Vector, error) {
	return c.G.MulVec(w)
}

// EncodeInto maps a k-bit message to its n-bit codeword in dst without
// allocating; dst must have N() bits.
//
//bicoop:noalloc
func (c Code) EncodeInto(dst *Vector, w Vector) error {
	return c.G.MulVecInto(dst, w)
}

// Received is a partially erased codeword observation: for every surviving
// position i, the pair (row G[i], bit x[i]) is one linear equation about w.
type Received struct {
	Rows []Vector // generator rows that survived
	Bits []int    // corresponding received bits
}

// Observe applies an erasure pattern to a codeword: erased[i] true means
// position i was lost. The surviving equations are returned. The rows are
// read-only views of the generator (RowView), not copies: the decoder only
// reads them, and they stay valid until the generator is mutated — a later
// Rerandomize or AppendRow invalidates an outstanding Received.
func (c Code) Observe(x Vector, erased []bool) (Received, error) {
	if x.n != c.N() || len(erased) != c.N() {
		return Received{}, fmt.Errorf("%w: codeword %d bits, erasures %d, n %d", ErrShape, x.n, len(erased), c.N())
	}
	var rec Received
	for i := 0; i < c.N(); i++ {
		if !erased[i] {
			rec.Rows = append(rec.Rows, c.G.RowView(i))
			rec.Bits = append(rec.Bits, x.Bit(i))
		}
	}
	return rec, nil
}

// DecodeEquations solves an arbitrary stack of linear equations about a
// k-bit message: rows[i]·w = bits[i]. This is the general decoder used by
// the protocol simulator, where a node may pool equations from several
// phases (its own transmissions, overheard side information, and the relay
// broadcast) before solving. It allocates a fresh Solver per call; hot
// loops should hold a Solver and use SolveInto.
func DecodeEquations(k int, rows []Vector, rowBits []int) (Vector, error) {
	var s Solver
	x := NewVector(k)
	if err := s.SolveInto(&x, k, rows, rowBits); err != nil {
		return Vector{}, err
	}
	return x, nil
}

// Decode recovers the message from a Received observation.
func (c Code) Decode(rec Received) (Vector, error) {
	return DecodeEquations(c.K(), rec.Rows, rec.Bits)
}

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
// function operate on whole 64-bit words.
//
// Systems of at least m4riMinCols unknowns and as many equations go through
// the dense M4RI path (m4ri.go). Its row-clearing kernel is chosen once at
// package init: clearBlockAVX2, AVX2 assembly, on amd64 CPUs that have AVX2
// with the YMM state enabled by the OS; clearBlockGo off amd64, without
// AVX2 and under the purego build tag. Both give bit-identical results.
//
// The package directive below puts the whole package under the noalloc
// analyzer: every function is held to the 0-allocs contract unless its doc
// comment ends with an audited //bicoop:allow noalloc waiver (the cold
// constructors and scratch growers). The assembly functions' Go
// declarations are bodyless, so the analyzer skips them; they allocate
// nothing.
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

// Randomize refills v with uniformly random bits drawn from r, in place.
// It consumes exactly one Uint64 per backing word.
//
//bicoop:noalloc
func (v *Vector) Randomize(r *rand.Rand) {
	for i := range v.words {
		v.words[i] = r.Uint64()
	}
	v.maskTail()
}

func (v *Vector) maskTail() {
	if v.n%64 != 0 && len(v.words) > 0 {
		v.words[len(v.words)-1] &= (uint64(1) << (v.n % 64)) - 1
	}
}

// Bit returns bit i as 0 or 1.
func (v Vector) Bit(i int) int {
	return int(v.words[i/64] >> (i % 64) & 1)
}

// XorWith adds w into v in place (v ^= w), zero-extending w when it is
// shorter than v.
//
//bicoop:noalloc
//bicoop:allow deadexport — the gf2 and sim tests combine and strip messages
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
//
//bicoop:allow deadexport — the gf2 and sim tests compare decoded messages
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

// Rerandomize redraws every entry uniformly at random, in place: no
// allocation, one Uint64 per word in row-major order. This is how the
// bit-true simulator draws its fresh codes per block without reallocating
// the generators. Row views taken from the matrix before the redraw alias
// the new contents afterwards.
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

// RowView returns row i sharing the matrix's storage; hot loops use it to
// accumulate decode equations without copying rows. Writes through the view
// land in the matrix, so only the matrix's owner may write through it (the
// bit-true TDBC worker fills its truncated relay rows this way); everyone
// else must treat it as read-only.
func (m Matrix) RowView(i int) Vector {
	return Vector{n: m.cols, words: m.rowWords(i)}
}

// MulVec returns m·x over GF(2); x must have m.cols bits. The result has
// m.rows bits, one parity per row.
//
//bicoop:allow deadexport — encodes codewords in the gf2 and sim tests
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

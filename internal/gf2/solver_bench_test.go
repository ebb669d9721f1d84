package gf2

import (
	"math/rand"
	"testing"
)

// benchSolve measures a SolveInto of k unknowns from k+m4riSlack random
// consistent equations — the bit-true decoders' shape, solved in full:
// echelon form, inconsistency scan and back-substitution — with the
// elimination path pinned by force. One warm solve before the timer grows the scratch,
// so the loop measures the allocation-free steady state of each path.
func benchSolve(b *testing.B, k, force int) {
	r := rand.New(rand.NewSource(int64(k)))
	rows := k + m4riSlack
	var m Matrix
	for {
		m = RandomMatrix(rows, k, r)
		if m.Rank() == k {
			break
		}
	}
	x := RandomVector(k, r)
	rhs, _ := m.MulVec(x)
	rv, _ := matrixRows(m)
	bits := make([]int, rows)
	for i := range bits {
		bits[i] = rhs.Bit(i)
	}
	s := forceSolver(force)
	dst := NewVector(k)
	if err := s.SolveInto(&dst, k, rv, bits); err != nil {
		b.Fatal(err)
	}
	if !dst.Equal(x) {
		b.Fatal("solver returned a wrong solution")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.SolveInto(&dst, k, rv, bits); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSolveIncremental256(b *testing.B) { benchSolve(b, 256, forceIncremental) }
func BenchmarkSolveM4RI256(b *testing.B)        { benchSolve(b, 256, forceDense) }
func BenchmarkSolveIncremental1k(b *testing.B)  { benchSolve(b, 1024, forceIncremental) }
func BenchmarkSolveM4RI1k(b *testing.B)         { benchSolve(b, 1024, forceDense) }
func BenchmarkSolveIncremental4k(b *testing.B)  { benchSolve(b, 4096, forceIncremental) }
func BenchmarkSolveM4RI4k(b *testing.B)         { benchSolve(b, 4096, forceDense) }

package gf2

import (
	"math/rand"
	"testing"
)

// benchSystems is the number of distinct systems benchSolve solves in turn.
// The pivot search and the clear pass branch on random tableau bits; one
// repeated system would let the CPU's branch predictor learn its pattern,
// which the bit-true simulators, solving a fresh system every time, never
// see.
const benchSystems = 4

// benchSolve measures a SolveInto of k unknowns from k+m4riSlack random
// consistent equations — the bit-true decoders' shape, solved in full:
// echelon form, inconsistency scan and back-substitution — with the
// elimination path pinned by force. Each op solves the next of
// benchSystems distinct systems. One warm solve of each before the timer
// grows the scratch, so the loop measures the allocation-free steady state
// of each path.
func benchSolve(b *testing.B, k, force int) {
	r := rand.New(rand.NewSource(int64(k)))
	n := k + m4riSlack
	type system struct {
		rows []Vector
		bits []int
		x    Vector
	}
	systems := make([]system, benchSystems)
	s := forceSolver(force)
	dst := NewVector(k)
	for i := range systems {
		var m Matrix
		for {
			m = RandomMatrix(n, k, r)
			if m.Rank() == k {
				break
			}
		}
		x := RandomVector(k, r)
		rows := matrixRowsOf(m)
		systems[i] = system{rows, planted(rows, x), x}
		if err := s.SolveInto(&dst, k, systems[i].rows, systems[i].bits); err != nil {
			b.Fatal(err)
		}
		if !dst.Equal(x) {
			b.Fatal("solver returned a wrong solution")
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys := &systems[i%benchSystems]
		if err := s.SolveInto(&dst, k, sys.rows, sys.bits); err != nil {
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

package sweep

import (
	"context"
	"math"
	"testing"
)

// benchCoreRun drives RunCore over a synthetic arithmetic workload — enough
// math per point that the claim/emit machinery is a measurable overhead
// rather than the whole benchmark, but no LP state so the two variants below
// isolate the core itself.
func benchCoreRun(b *testing.B, opts Options) {
	const n = 8192
	out := make([]float64, n)
	do := func(_ struct{}, lo, hi int) error {
		for i := lo; i < hi; i++ {
			x := float64(i)
			out[i] = math.Log1p(x) * math.Sqrt(x+1)
		}
		return nil
	}
	emit := func(lo, hi int) error { return nil }
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		prefix, err := RunCore(ctx, n, ChunkSize, opts, Hooks[struct{}]{}, do, emit)
		if err != nil || prefix != n {
			b.Fatalf("prefix=%d err=%v", prefix, err)
		}
	}
}

// BenchmarkRunCore is the baseline for the resilience-overhead pair: the
// sharded core with no checkpointer.
func BenchmarkRunCore(b *testing.B) {
	benchCoreRun(b, Options{Workers: 4})
}

// BenchmarkRunCoreResilient runs the identical workload with the
// checkpointer armed — one save per Workers chunks, the final watermark
// always — so the delta
// against BenchmarkRunCore is the price of checkpointing on the happy path.
// The ledger gate keeps that price from creeping.
func BenchmarkRunCoreResilient(b *testing.B) {
	benchCoreRun(b, Options{Workers: 4, Checkpoint: nullCheckpointer{}})
}

type nullCheckpointer struct{}

func (nullCheckpointer) Save(int) error { return nil }

package cache

import (
	"testing"

	"bicoop/internal/protocols"
)

// BenchmarkCacheHit pins the hit path: one op is a pass of sharded lookups
// over all 512 stored keys. It must stay 0 allocs/op (the ledger's alloc
// gate fails any drift from zero) and a few tens of nanoseconds per lookup —
// the whole premise of serving repeat sweep points from cache instead of an
// LP solve. A pass, not a single lookup, is the op so that the ledger's
// 200 ops last milliseconds, long enough to time.
func BenchmarkCacheHit(b *testing.B) {
	s := NewStore(1 << 12)
	keys := make([]Key, 512)
	for i := range keys {
		keys[i] = SumRateKey(protocols.HBC, protocols.BoundInner, float64(i)/10, -3, 0, 5)
		s.Add(keys[i], MakeValue(float64(i), 1, 2, []float64{0.25, 0.25, 0.25, 0.25}))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, k := range keys {
			if _, ok := s.Lookup(k); !ok {
				b.Fatal("miss")
			}
		}
	}
}

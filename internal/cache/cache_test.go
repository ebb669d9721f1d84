package cache

import (
	"errors"
	"math"
	"math/rand"
	"sync"
	"testing"

	"bicoop/internal/protocols"
)

func TestQuantize(t *testing.T) {
	// Key fields are the exact IEEE-754 bits, with -0 folded onto +0.
	for _, v := range []float64{0, 1e-10, 3.25, -17.5, 1e300, math.Inf(1), math.Inf(-1)} {
		if got, want := Quantize(v), int64(math.Float64bits(v)); got != want {
			t.Errorf("Quantize(%v) = %d, want its bits %d", v, got, want)
		}
	}
	if Quantize(math.Copysign(0, -1)) != Quantize(0) {
		t.Error("-0 and +0 map to different key fields")
	}
	// Adjacent floats never alias: a key names exactly one coordinate.
	for _, v := range []float64{0, 1e-10, 10, -7, 5e-10, 1e9} {
		for _, next := range []float64{math.Nextafter(v, math.Inf(1)), math.Nextafter(v, math.Inf(-1))} {
			if Quantize(next) == Quantize(v) {
				t.Errorf("Quantize(%v) == Quantize(%v): neighbours alias", next, v)
			}
		}
	}
}

func TestKeyConstructors(t *testing.T) {
	k := SumRateKey(protocols.MABC, protocols.BoundInner, 10, -3, 0, 5)
	if k != WeightedKey(protocols.MABC, protocols.BoundInner, 10, -3, 0, 5, 1, 1) {
		t.Error("SumRateKey is not the muA=muB=1 WeightedKey")
	}
	if k.Version != KeyVersion || k.Kind != KindWeighted {
		t.Errorf("unexpected version/kind: %+v", k)
	}
	distinct := []Key{
		k,
		SumRateKey(protocols.TDBC, protocols.BoundInner, 10, -3, 0, 5),
		SumRateKey(protocols.MABC, protocols.BoundOuter, 10, -3, 0, 5),
		SumRateKey(protocols.MABC, protocols.BoundInner, 10.5, -3, 0, 5),
		WeightedKey(protocols.MABC, protocols.BoundInner, 10, -3, 0, 5, 0.25, 1),
		ErasureKey(0.1, 0.2, 0.3),
	}
	for i := range distinct {
		for j := i + 1; j < len(distinct); j++ {
			if distinct[i] == distinct[j] {
				t.Errorf("keys %d and %d collide: %+v", i, j, distinct[i])
			}
		}
	}
	// Keys are exact: the next float up is a different scenario, while a
	// negative zero is the same one.
	if SumRateKey(protocols.DT, protocols.BoundInner, math.Nextafter(10, 11), 0, 0, 0) ==
		SumRateKey(protocols.DT, protocols.BoundInner, 10, 0, 0, 0) {
		t.Error("a one-ulp perturbation kept the key")
	}
	if SumRateKey(protocols.DT, protocols.BoundInner, 10, math.Copysign(0, -1), 0, 0) !=
		SumRateKey(protocols.DT, protocols.BoundInner, 10, 0, 0, 0) {
		t.Error("-0 and +0 gains produced different keys")
	}
}

func TestValueRoundTrip(t *testing.T) {
	v := MakeValue(1.5, 1.0, 0.5, []float64{0.25, 0.75})
	if v.Sum != 1.5 || v.Ra != 1.0 || v.Rb != 0.5 || v.NDur != 2 {
		t.Fatalf("MakeValue: %+v", v)
	}
	d := v.Durations()
	if len(d) != 2 || d[0] != 0.25 || d[1] != 0.75 {
		t.Fatalf("Durations: %v", d)
	}
	if MakeValue(0, 0, 0, nil).Durations() != nil {
		t.Error("empty durations should round-trip to nil")
	}
}

func TestCodecRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	var buf []byte
	var keys []Key
	var vals []Value
	for i := 0; i < 200; i++ {
		k := WeightedKey(protocols.HBC, protocols.BoundOuter,
			rng.Float64()*40-20, rng.Float64()*10-5, rng.Float64()*10-5, rng.Float64()*10-5,
			rng.Float64(), rng.Float64())
		if i%3 == 0 {
			k = ErasureKey(rng.Float64(), rng.Float64(), rng.Float64())
		}
		v := MakeValue(rng.Float64(), rng.Float64(), rng.Float64(),
			[]float64{rng.Float64(), rng.Float64(), rng.Float64()})
		keys = append(keys, k)
		vals = append(vals, v)
		buf = AppendRecord(buf, k, v)
	}
	if len(buf) != 200*RecordSize {
		t.Fatalf("encoded length %d, want %d", len(buf), 200*RecordSize)
	}
	i := 0
	consumed, clean := Replay(buf, func(k Key, v Value) {
		if k != keys[i] || v != vals[i] {
			t.Fatalf("record %d mismatch", i)
		}
		i++
	})
	if !clean || consumed != len(buf) || i != 200 {
		t.Fatalf("replay: consumed=%d clean=%v n=%d", consumed, clean, i)
	}
}

func TestReplayTornTail(t *testing.T) {
	var buf []byte
	for i := 0; i < 10; i++ {
		buf = AppendRecord(buf, SumRateKey(protocols.DT, protocols.BoundInner, float64(i), 0, 0, 0), MakeValue(float64(i), 0, 0, nil))
	}
	// Truncate mid-record: replay keeps the clean prefix.
	torn := buf[:9*RecordSize+17]
	n := 0
	consumed, clean := Replay(torn, func(Key, Value) { n++ })
	if clean || n != 9 || consumed != 9*RecordSize {
		t.Fatalf("torn tail: consumed=%d clean=%v n=%d", consumed, clean, n)
	}
	// Corrupt a byte in the middle: replay stops at the bad record.
	bad := append([]byte(nil), buf...)
	bad[4*RecordSize+20] ^= 0xff
	n = 0
	consumed, clean = Replay(bad, func(Key, Value) { n++ })
	if clean || n != 4 || consumed != 4*RecordSize {
		t.Fatalf("corrupt record: consumed=%d clean=%v n=%d", consumed, clean, n)
	}
	if _, _, err := DecodeRecord(buf[:RecordSize-1]); err == nil {
		t.Error("short buffer should fail to decode")
	}
}

func TestStoreBasics(t *testing.T) {
	s := NewStore(1024)
	k := SumRateKey(protocols.MABC, protocols.BoundInner, 10, 0, 0, 0)
	if _, ok := s.Lookup(k); ok {
		t.Fatal("lookup on empty store hit")
	}
	v := MakeValue(2.5, 1.5, 1.0, []float64{0.5, 0.5})
	s.Add(k, v)
	got, ok := s.Lookup(k)
	if !ok || got != v {
		t.Fatalf("lookup after add: %+v ok=%v", got, ok)
	}
	v2 := MakeValue(3.0, 2.0, 1.0, []float64{0.4, 0.6})
	s.Add(k, v2) // overwrite
	if got, _ := s.Lookup(k); got != v2 {
		t.Fatalf("overwrite not visible: %+v", got)
	}
	if s.Len() != 1 {
		t.Fatalf("Len = %d, want 1", s.Len())
	}
	st := s.Stats()
	if st.Hits != 2 || st.Misses != 1 || st.Fills != 1 || st.Evictions != 0 {
		t.Fatalf("stats: %+v", st)
	}
	s.Reset()
	if s.Len() != 0 {
		t.Fatal("Reset left entries")
	}
	if _, ok := s.Lookup(k); ok {
		t.Fatal("lookup after Reset hit")
	}
	if st := s.Stats(); st.Hits != 0 || st.Misses != 1 {
		t.Fatalf("Reset should zero counters then count the probe miss: %+v", st)
	}
}

// solveCounter is a Store.Solve callback that counts its calls and returns
// a fixed optimum, or err when set.
type solveCounter struct {
	calls int
	err   error
}

func (c *solveCounter) solve() (protocols.Optimum, error) {
	c.calls++
	if c.err != nil {
		return protocols.Optimum{}, c.err
	}
	return protocols.Optimum{Objective: 2.5, Rates: protocols.RatePair{Ra: 1.5, Rb: 1}, Durations: []float64{0.25, 0.75}}, nil
}

// TestSolveNilStore pins the cache-off engine: a nil store solves on every
// call, packs the optimum like a fill would, and keeps nothing.
func TestSolveNilStore(t *testing.T) {
	var s *Store
	var c solveCounter
	k := SumRateKey(protocols.HBC, protocols.BoundInner, 10, 0, 0, 0)
	want := MakeValue(2.5, 1.5, 1, []float64{0.25, 0.75})
	for i := 1; i <= 3; i++ {
		v, err := s.Solve(k, c.solve)
		if err != nil || v != want {
			t.Fatalf("call %d: %+v, %v; want %+v", i, v, err, want)
		}
		if c.calls != i {
			t.Fatalf("call %d ran solve %d times", i, c.calls)
		}
	}
}

// TestSolveHitSkipsSolve pins the hit path: once a key is filled, Solve
// serves it without calling solve, and the value equals the miss's.
func TestSolveHitSkipsSolve(t *testing.T) {
	s := NewStore(256)
	var c solveCounter
	k := SumRateKey(protocols.HBC, protocols.BoundInner, 10, 0, 0, 0)
	miss, err := s.Solve(k, c.solve)
	if err != nil {
		t.Fatal(err)
	}
	hit, err := s.Solve(k, c.solve)
	if err != nil {
		t.Fatal(err)
	}
	if c.calls != 1 {
		t.Fatalf("solve ran %d times, want 1 (the miss)", c.calls)
	}
	if hit != miss {
		t.Fatalf("hit %+v differs from miss %+v", hit, miss)
	}
}

// TestSolveErrorNotCached pins that a failed solve is returned as is and
// stored nowhere: the next call solves again.
func TestSolveErrorNotCached(t *testing.T) {
	s := NewStore(256)
	boom := errors.New("boom")
	c := solveCounter{err: boom}
	k := SumRateKey(protocols.HBC, protocols.BoundInner, 10, 0, 0, 0)
	if _, err := s.Solve(k, c.solve); err != boom {
		t.Fatalf("err = %v, want the solve's own error", err)
	}
	if s.Len() != 0 || s.Stats().Fills != 0 {
		t.Fatalf("failed solve was stored: Len %d, %+v", s.Len(), s.Stats())
	}
	c.err = nil
	if _, err := s.Solve(k, c.solve); err != nil || c.calls != 2 {
		t.Fatalf("retry after error: err %v, %d solves, want nil and 2", err, c.calls)
	}
}

// TestSolveStats pins the counters on a known sequence: each Solve is one
// lookup, and each miss one fill.
func TestSolveStats(t *testing.T) {
	s := NewStore(256)
	var c solveCounter
	a := SumRateKey(protocols.DT, protocols.BoundInner, 1, 0, 0, 0)
	b := SumRateKey(protocols.DT, protocols.BoundInner, 2, 0, 0, 0)
	for _, k := range []Key{a, b, a, a, b} {
		if _, err := s.Solve(k, c.solve); err != nil {
			t.Fatal(err)
		}
	}
	if st := s.Stats(); st != (Stats{Hits: 3, Misses: 2, Fills: 2}) || c.calls != 2 {
		t.Fatalf("stats %+v after %d solves, want 3 hits, 2 misses, 2 fills, 2 solves", st, c.calls)
	}
}

func TestStoreNoEvictionBelowCapacity(t *testing.T) {
	// Eviction is per-shard, so an adversarial key set could overflow one
	// shard below global capacity; a seeded spread at <= capacity/8 keys
	// must never evict.
	s := NewStore(1024)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 128; i++ {
		k := SumRateKey(protocols.HBC, protocols.BoundInner, rng.Float64()*100, rng.Float64()*10, 0, 0)
		s.Add(k, MakeValue(float64(i), 0, 0, nil))
	}
	if st := s.Stats(); st.Evictions != 0 {
		t.Fatalf("evicted below capacity: %+v", st)
	}
}

func TestStoreEvictionBoundsMemory(t *testing.T) {
	s := NewStore(64) // one entry per shard
	for i := 0; i < 500; i++ {
		s.Add(SumRateKey(protocols.DT, protocols.BoundInner, float64(i), 0, 0, 0), MakeValue(float64(i), 0, 0, nil))
	}
	if n := s.Len(); n > 64 {
		t.Fatalf("Len = %d exceeds capacity 64", n)
	}
	st := s.Stats()
	if st.Evictions == 0 {
		t.Fatal("no evictions despite 500 inserts into 64 slots")
	}
	if int(st.Fills)-int(st.Evictions) != s.Len() {
		t.Fatalf("fills - evictions = %d, want Len %d", st.Fills-st.Evictions, s.Len())
	}
}

// sameShardKeys finds n distinct keys hashing to one shard, so clock
// mechanics can be exercised deterministically.
func sameShardKeys(s *Store, n int) []Key {
	target := s.shardOf(SumRateKey(protocols.DT, protocols.BoundInner, 0, 0, 0, 0))
	var out []Key
	for i := 0; len(out) < n; i++ {
		k := SumRateKey(protocols.DT, protocols.BoundInner, float64(i), 0, 0, 0)
		if s.shardOf(k) == target {
			out = append(out, k)
		}
	}
	return out
}

func TestStoreSecondChance(t *testing.T) {
	s := NewStore(shardCount * 4) // four entries per shard
	keys := sameShardKeys(s, 6)
	for _, k := range keys[:4] {
		s.Add(k, MakeValue(1, 0, 0, nil))
	}
	// Fill pass evicts keys[0] (hand sweeps, clears all reference bits,
	// wraps, takes slot 0).
	s.Add(keys[4], MakeValue(1, 0, 0, nil))
	if _, ok := s.Lookup(keys[0]); ok {
		t.Fatal("keys[0] should have been evicted")
	}
	// Reference keys[1]; the next insert must skip it (second chance) and
	// evict keys[2], the first unreferenced entry past the hand.
	if _, ok := s.Lookup(keys[1]); !ok {
		t.Fatal("keys[1] missing before second-chance check")
	}
	s.Add(keys[5], MakeValue(1, 0, 0, nil))
	if _, ok := s.Lookup(keys[1]); !ok {
		t.Fatal("referenced entry was evicted despite second chance")
	}
	if _, ok := s.Lookup(keys[2]); ok {
		t.Fatal("unreferenced keys[2] should have been the victim")
	}
}

func TestLookupZeroAlloc(t *testing.T) {
	s := NewStore(256)
	k := SumRateKey(protocols.TDBC, protocols.BoundOuter, 12, 1, 2, 3)
	s.Add(k, MakeValue(1, 0.5, 0.5, []float64{0.3, 0.7}))
	allocs := testing.AllocsPerRun(1000, func() {
		if _, ok := s.Lookup(k); !ok {
			t.Fatal("miss")
		}
	})
	if allocs != 0 {
		t.Fatalf("Lookup allocates %v per hit, want 0", allocs)
	}
}

func TestSinkObservesFills(t *testing.T) {
	s := NewStore(256)
	var mu sync.Mutex
	seen := map[Key]int{}
	s.SetSink(func(k Key, _ Value) {
		mu.Lock()
		seen[k]++
		mu.Unlock()
	})
	k := SumRateKey(protocols.MABC, protocols.BoundInner, 1, 2, 3, 4)
	s.Add(k, MakeValue(1, 0, 0, nil))
	s.Add(k, MakeValue(2, 0, 0, nil)) // overwrite: no new record
	k2 := SumRateKey(protocols.MABC, protocols.BoundInner, 5, 6, 7, 8)
	s.Add(k2, MakeValue(3, 0, 0, nil))
	if seen[k] != 1 || seen[k2] != 1 || len(seen) != 2 {
		t.Fatalf("sink saw %v, want one record per distinct key", seen)
	}
}

func TestStoreConcurrent(t *testing.T) {
	s := NewStore(512)
	keys := make([]Key, 256)
	for i := range keys {
		keys[i] = SumRateKey(protocols.HBC, protocols.BoundInner, float64(i), 0, 0, 0)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 5000; i++ {
				k := keys[rng.Intn(len(keys))]
				if rng.Intn(4) == 0 {
					s.Add(k, MakeValue(float64(i), 0, 0, nil))
				} else if v, ok := s.Lookup(k); ok && v.Sum < 0 {
					t.Error("impossible cached value")
				}
			}
		}(int64(g))
	}
	wg.Wait()
	st := s.Stats()
	if st.Hits+st.Misses == 0 {
		t.Fatal("no lookups recorded")
	}
}

package bicoop_test

// cache_test.go — the result cache's public contract: cache-on output is
// bit-identical to cache-off output, for all five protocols and both
// bounds, at every worker count, whether a point hits or misses. Every LP
// is solved cold, so a point's result depends only on the point itself,
// never on the points solved before it; the references here are plain
// uncached engines (batch, sweep, region or single-point SumRate),
// compared with ==.

import (
	"context"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"bicoop"
)

// allBounds pairs every protocol with both bounds.
func allBounds() []bicoop.RegionCurve {
	var out []bicoop.RegionCurve
	for _, p := range bicoop.AllProtocols() {
		out = append(out,
			bicoop.RegionCurve{Protocol: p, Bound: bicoop.Inner},
			bicoop.RegionCurve{Protocol: p, Bound: bicoop.Outer})
	}
	return out
}

// sameResult compares two sum-rate results bit for bit (nil and empty
// duration slices are the same zero-phase answer).
func sameResult(a, b bicoop.SumRateResult) bool {
	if a.Sum != b.Sum || a.Point != b.Point || len(a.Durations) != len(b.Durations) {
		return false
	}
	for i := range a.Durations {
		if a.Durations[i] != b.Durations[i] {
			return false
		}
	}
	return true
}

// TestCachedSumRateMatchesUncached pins hit == miss == uncached for the
// singles path: a plain engine's SumRate is already a cold pooled solve,
// so the cached engine must reproduce it exactly, before and after the
// key is in the store.
func TestCachedSumRateMatchesUncached(t *testing.T) {
	plain := bicoop.NewEngine()
	cached := bicoop.NewEngine(bicoop.WithCache(1 << 12))
	for _, c := range allBounds() {
		for _, s := range grid(8) {
			want, wantErr := plain.SumRate(c.Protocol, c.Bound, s)
			miss, missErr := cached.SumRate(c.Protocol, c.Bound, s)
			hit, hitErr := cached.SumRate(c.Protocol, c.Bound, s)
			if (wantErr == nil) != (missErr == nil) || (wantErr == nil) != (hitErr == nil) {
				t.Fatalf("%v/%v: error mismatch: uncached %v, miss %v, hit %v",
					c.Protocol, c.Bound, wantErr, missErr, hitErr)
			}
			if wantErr != nil {
				continue
			}
			if !sameResult(want, miss) {
				t.Errorf("%v/%v %+v: miss differs from uncached: %+v vs %+v", c.Protocol, c.Bound, s, miss, want)
			}
			if !sameResult(want, hit) {
				t.Errorf("%v/%v %+v: hit differs from uncached: %+v vs %+v", c.Protocol, c.Bound, s, hit, want)
			}
		}
	}
	cs := cached.CacheStats()
	if cs.Hits == 0 || cs.Misses == 0 {
		t.Fatalf("test exercised no hits or no misses: %+v", cs)
	}
}

// TestCachedBatchBitIdenticalAcrossWorkers pins the tentpole contract at
// Workers 1, 2 and 7: a cached batch over a scenario stream with repeats
// returns the same bytes for every worker count, equal to the cached
// singles, and a rerun on a warm store (all hits) changes nothing.
func TestCachedBatchBitIdenticalAcrossWorkers(t *testing.T) {
	// Deliberate repeats: the 48-scenario stream has only 16 distinct
	// points, so hits and misses interleave within one batch.
	base := grid(16)
	scenarios := make([]bicoop.Scenario, 0, 48)
	for i := 0; i < 48; i++ {
		scenarios = append(scenarios, base[i%len(base)])
	}
	singles := bicoop.NewEngine(bicoop.WithCache(1 << 12))
	ctx := context.Background()
	for _, proto := range bicoop.AllProtocols() {
		var want []bicoop.SumRateResult
		for _, s := range scenarios {
			r, err := singles.SumRate(proto, bicoop.Inner, s)
			if err != nil {
				t.Fatal(err)
			}
			want = append(want, r)
		}
		for _, workers := range []int{1, 2, 7} {
			eng := bicoop.NewEngine(bicoop.WithCache(1<<12), bicoop.WithWorkers(workers))
			for pass := 0; pass < 2; pass++ { // pass 0 fills, pass 1 is all hits
				got, err := eng.SumRateBatch(ctx, proto, bicoop.Inner, scenarios)
				if err != nil {
					t.Fatal(err)
				}
				for i := range want {
					if !sameResult(got[i], want[i]) {
						t.Fatalf("%v workers=%d pass=%d point %d: %+v != %+v",
							proto, workers, pass, i, got[i], want[i])
					}
				}
			}
			// Fills is exact (one insert per distinct key — a racing
			// duplicate solve lands as an overwrite, not a fill); misses
			// can exceed the distinct count only through such races.
			cs := eng.CacheStats()
			if cs.Fills != uint64(len(base)) {
				t.Errorf("%v workers=%d: fills=%d, want %d distinct points", proto, workers, cs.Fills, len(base))
			}
			if total := uint64(2 * len(scenarios)); cs.Hits+cs.Misses != total {
				t.Errorf("%v workers=%d: hits+misses=%d, want %d lookups", proto, workers, cs.Hits+cs.Misses, total)
			}
		}
	}
}

// TestCachedBatchMatchesUncachedBatch pins a cached SumRateBatch to the
// plain uncached batch bit for bit, for every protocol and bound at
// Workers 1, 2 and 7, on the fill pass and on the all-hit rerun. The
// degenerate Naive4/HBC points of this grid have several optimal vertices,
// so the batch and the cache must both report the cold solve's vertex.
func TestCachedBatchMatchesUncachedBatch(t *testing.T) {
	ctx := context.Background()
	scenarios := grid(64)
	for _, workers := range []int{1, 2, 7} {
		plain := bicoop.NewEngine(bicoop.WithWorkers(workers))
		cached := bicoop.NewEngine(bicoop.WithCache(1<<12), bicoop.WithWorkers(workers))
		for _, c := range allBounds() {
			want, err := plain.SumRateBatch(ctx, c.Protocol, c.Bound, scenarios)
			if err != nil {
				t.Fatal(err)
			}
			for pass := 0; pass < 2; pass++ { // pass 0 fills, pass 1 is all hits
				got, err := cached.SumRateBatch(ctx, c.Protocol, c.Bound, scenarios)
				if err != nil {
					t.Fatal(err)
				}
				for i := range want {
					if !sameResult(got[i], want[i]) {
						t.Fatalf("%v/%v workers=%d pass=%d point %d: cached %+v != uncached %+v",
							c.Protocol, c.Bound, workers, pass, i, got[i], want[i])
					}
				}
			}
		}
	}
}

// TestCachedNextafterNeighboursMatchUncached pins exact cache keys: a
// scenario one ulp away from a cached one is a different scenario and must
// be solved, not served its neighbour's entry. Keys once rounded
// coordinates to a 1e-9 grid, and a cached DT inner sum rate at
// {10, -7, 0, 5} was then returned for its PowerDB neighbour too, whose
// cold solve differs in the last digits. Every protocol and bound is
// checked through SumRate and SumRateBatch at Workers 1 and 2.
func TestCachedNextafterNeighboursMatchUncached(t *testing.T) {
	ctx := context.Background()
	base := bicoop.Scenario{PowerDB: 10, GabDB: -7, GarDB: 0, GbrDB: 5}
	scenarios := []bicoop.Scenario{base}
	for _, d := range []float64{math.Inf(1), math.Inf(-1)} {
		for f := 0; f < 4; f++ {
			s := base
			field := [...]*float64{&s.PowerDB, &s.GabDB, &s.GarDB, &s.GbrDB}[f]
			*field = math.Nextafter(*field, d)
			scenarios = append(scenarios, s)
		}
	}
	plain := bicoop.NewEngine()
	for _, workers := range []int{1, 2} {
		single := bicoop.NewEngine(bicoop.WithCache(1 << 12))
		batch := bicoop.NewEngine(bicoop.WithCache(1<<12), bicoop.WithWorkers(workers))
		for _, c := range allBounds() {
			got, err := batch.SumRateBatch(ctx, c.Protocol, c.Bound, scenarios)
			if err != nil {
				t.Fatal(err)
			}
			for i, s := range scenarios {
				want, err := plain.SumRate(c.Protocol, c.Bound, s)
				if err != nil {
					t.Fatal(err)
				}
				one, err := single.SumRate(c.Protocol, c.Bound, s)
				if err != nil {
					t.Fatal(err)
				}
				if !sameResult(one, want) {
					t.Errorf("%v/%v %+v: cached SumRate %+v != uncached %+v", c.Protocol, c.Bound, s, one, want)
				}
				if !sameResult(got[i], want) {
					t.Errorf("%v/%v workers=%d %+v: cached batch %+v != uncached %+v", c.Protocol, c.Bound, workers, s, got[i], want)
				}
			}
		}
		if cs := batch.CacheStats(); cs.Hits != 0 {
			t.Errorf("workers=%d: %d hits among distinct scenarios, want 0", workers, cs.Hits)
		}
	}
}

// TestCachedRandomizedEquivalence is the seeded fuzz pass: random
// (protocol, bound, scenario) queries with repeats against one cached
// engine, every answer checked against an uncached engine, and the
// CacheStats accounting identities checked exactly at the end.
func TestCachedRandomizedEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	plain := bicoop.NewEngine()
	cached := bicoop.NewEngine(bicoop.WithCache(1 << 12))
	curves := allBounds()
	// A small scenario pool guarantees repeats; identical coordinates must
	// land on the same entry.
	pool := make([]bicoop.Scenario, 12)
	for i := range pool {
		pool[i] = bicoop.Scenario{
			PowerDB: -5 + 25*rng.Float64(),
			GabDB:   -10 + 8*rng.Float64(),
			GarDB:   -2 + 4*rng.Float64(),
			GbrDB:   3 + 4*rng.Float64(),
		}
	}
	const queries = 400
	type query struct {
		p bicoop.Protocol
		b bicoop.Bound
		s bicoop.Scenario
	}
	distinct := map[query]bool{}
	for i := 0; i < queries; i++ {
		c := curves[rng.Intn(len(curves))]
		s := pool[rng.Intn(len(pool))]
		distinct[query{c.Protocol, c.Bound, s}] = true
		want, wantErr := plain.SumRate(c.Protocol, c.Bound, s)
		got, gotErr := cached.SumRate(c.Protocol, c.Bound, s)
		if (wantErr == nil) != (gotErr == nil) {
			t.Fatalf("query %d %v/%v: error mismatch %v vs %v", i, c.Protocol, c.Bound, wantErr, gotErr)
		}
		if wantErr == nil && !sameResult(got, want) {
			t.Fatalf("query %d %v/%v %+v: %+v != %+v", i, c.Protocol, c.Bound, s, got, want)
		}
	}
	cs := cached.CacheStats()
	if cs.Hits+cs.Misses != queries {
		t.Errorf("hits %d + misses %d != %d lookups", cs.Hits, cs.Misses, queries)
	}
	if cs.Misses != uint64(len(distinct)) || cs.Fills != uint64(len(distinct)) {
		t.Errorf("misses=%d fills=%d, want both == %d distinct queries", cs.Misses, cs.Fills, len(distinct))
	}
	if cs.Evictions != 0 {
		t.Errorf("evictions=%d below capacity, want 0", cs.Evictions)
	}
}

// TestCachedSweepMatchesCanonical pins SweepAll (including the erasure
// axis) on cached engines at Workers 1, 2 and 7 against a plain uncached
// sweep, and a warm-store rerun against the same reference.
func TestCachedSweepMatchesCanonical(t *testing.T) {
	spec := bicoop.SweepSpec{
		Base:     bicoop.Scenario{GabDB: -7, GarDB: 0, GbrDB: 5},
		PowersDB: []float64{-5, 0, 5, 10, 15},
		Placements: []bicoop.RelayPlacement{
			{Pos: 0.2, Exponent: 3},
			{Pos: 0.5, Exponent: 3},
			{Pos: 0.8, Exponent: 3},
		},
		Erasures: []bicoop.ErasureLinks{{EpsAR: 0.2, EpsBR: 0.1, EpsAB: 0.6}},
	}
	ctx := context.Background()
	for _, bound := range []bicoop.Bound{bicoop.Inner, bicoop.Outer} {
		spec.Bound = bound
		spec.Workers = 1
		want, err := bicoop.NewEngine().SweepAll(ctx, spec)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 2, 7} {
			spec.Workers = workers
			eng := bicoop.NewEngine(bicoop.WithCache(1 << 12))
			for pass := 0; pass < 2; pass++ { // pass 1 is served from the warm store
				got, err := eng.SweepAll(ctx, spec)
				if err != nil {
					t.Fatal(err)
				}
				if len(got) != len(want) {
					t.Fatalf("%v workers=%d: %d points, want %d", bound, workers, len(got), len(want))
				}
				for i := range want {
					if !sameResult(got[i].Result, want[i].Result) {
						t.Errorf("%v workers=%d pass=%d point %d: cached %+v != uncached %+v",
							bound, workers, pass, i, got[i].Result, want[i].Result)
					}
				}
			}
			if cs := eng.CacheStats(); cs.Hits == 0 {
				t.Fatalf("%v workers=%d: rerun recorded no hits: %+v", bound, workers, cs)
			}
		}
	}
}

// TestCachedRegionMatchesCanonical pins RegionBatch vertex caching: cached
// engines at Workers 1, 2 and 7, and a warm-store rerun, must produce the
// polygons of a plain uncached run bit for bit, for every protocol and
// bound.
func TestCachedRegionMatchesCanonical(t *testing.T) {
	spec := bicoop.RegionBatchSpec{
		Scenarios: []bicoop.Scenario{
			{PowerDB: 10, GabDB: -7, GarDB: 0, GbrDB: 5},
			{PowerDB: 0, GabDB: -3, GarDB: 2, GbrDB: 1},
		},
		Curves: allBounds(),
		Angles: 31,
	}
	ctx := context.Background()
	collect := func(eng *bicoop.Engine, workers int) [][]bicoop.RatePoint {
		s := spec
		s.Workers = workers
		var out [][]bicoop.RatePoint
		if err := eng.RegionBatch(ctx, s, func(pt bicoop.RegionBatchPoint) error {
			out = append(out, pt.Region.Vertices())
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		return out
	}
	want := collect(bicoop.NewEngine(), 1)
	for _, workers := range []int{1, 2, 7} {
		eng := bicoop.NewEngine(bicoop.WithCache(1 << 13))
		for pass := 0; pass < 2; pass++ { // pass 1 is served from the warm store
			got := collect(eng, workers)
			if len(got) != len(want) {
				t.Fatalf("workers=%d pass=%d: %d curves, want %d", workers, pass, len(got), len(want))
			}
			for i := range want {
				if !slices.Equal(got[i], want[i]) {
					t.Fatalf("workers=%d pass=%d curve %d: cached %v != uncached %v", workers, pass, i, got[i], want[i])
				}
			}
		}
		if cs := eng.CacheStats(); cs.Hits == 0 {
			t.Fatalf("workers=%d: rerun recorded no hits: %+v", workers, cs)
		}
	}
}

// TestCachedConcurrentReaders hammers one cached engine from concurrent
// goroutines mixing hits and misses; every result must equal the cold
// reference. Runs under -race in CI.
func TestCachedConcurrentReaders(t *testing.T) {
	scenarios := grid(32)
	plain := bicoop.NewEngine()
	want := make([]bicoop.SumRateResult, len(scenarios))
	for i, s := range scenarios {
		r, err := plain.SumRate(bicoop.HBC, bicoop.Inner, s)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = r
	}
	cached := bicoop.NewEngine(bicoop.WithCache(1 << 12))
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for iter := 0; iter < 20; iter++ {
				i := rng.Intn(len(scenarios))
				got, err := cached.SumRate(bicoop.HBC, bicoop.Inner, scenarios[i])
				if err != nil {
					errs <- err
					return
				}
				if !sameResult(got, want[i]) {
					t.Errorf("goroutine %d: point %d: %+v != %+v", g, i, got, want[i])
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

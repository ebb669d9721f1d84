package cache

import (
	"sync"

	"bicoop/internal/protocols"
)

// shardCount is the number of independently locked shards. 64 keeps
// contention negligible at any realistic worker count while the per-shard
// fixed arrays stay cache-friendly.
const shardCount = 64

// Stats are the store's cumulative counters. Hits and Misses count
// Lookup outcomes (one per Solve); Fills counts inserts of new keys (an Add that
// overwrites an existing entry is not a fill); Evictions counts entries
// displaced by the clock hand to make room.
type Stats struct {
	Hits      uint64
	Misses    uint64
	Fills     uint64
	Evictions uint64
}

// entry is one cached (key, value) pair plus its clock reference bit.
type entry struct {
	key Key
	val Value
	ref bool
}

// shard is one lock domain: a fixed entry array indexed by a key map,
// evicted second-chance (clock) style.
type shard struct {
	mu      sync.Mutex
	index   map[Key]int32
	entries []entry
	used    int
	hand    int
	stats   Stats
}

// A Store is the in-process result cache: sharded by key hash, bounded
// at the capacity given to NewStore, safe for concurrent use. The zero
// value is not usable; a nil *Store means caching is off.
type Store struct {
	shards [shardCount]shard
	sink   func(Key, Value)
}

// NewStore returns a store bounded at capacity entries (rounded up to a
// multiple of the shard count, minimum one entry per shard). Memory is
// bounded at roughly capacity × sizeof(entry) ≈ capacity × 120 bytes
// plus map overhead; entry arrays grow on demand up to the bound.
func NewStore(capacity int) *Store {
	per := (capacity + shardCount - 1) / shardCount
	if per < 1 {
		per = 1
	}
	s := &Store{}
	for i := range s.shards {
		s.shards[i].index = make(map[Key]int32, per)
		s.shards[i].entries = make([]entry, per)
	}
	return s
}

// SetSink registers fn to observe every fill (insert of a new key).
// The durable tier uses this to append fills to its log. fn runs outside
// the shard lock and must be safe for concurrent calls. Replays that
// Add into the store before SetSink are not echoed back.
func (s *Store) SetSink(fn func(Key, Value)) {
	s.sink = fn
}

// fnv64 offset basis and prime (FNV-1a), written out because the store
// hashes fixed-width integers, not bytes via hash/fnv.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// fnvMix folds one 64-bit word into an FNV-1a hash byte by byte.
func fnvMix(h, x uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= x & 0xff
		h *= fnvPrime64
		x >>= 8
	}
	return h
}

// shardOf picks the shard for a key by FNV-1a over its fields.
func (s *Store) shardOf(k Key) *shard {
	h := fnvMix(fnvOffset64, uint64(k.Version)|uint64(k.Kind)<<8|uint64(k.Proto)<<16|uint64(k.Bound)<<24)
	h = fnvMix(h, uint64(k.MuA))
	h = fnvMix(h, uint64(k.MuB))
	h = fnvMix(h, uint64(k.A))
	h = fnvMix(h, uint64(k.B))
	h = fnvMix(h, uint64(k.C))
	h = fnvMix(h, uint64(k.D))
	return &s.shards[h%shardCount]
}

// Lookup returns the cached value for k. The hit path performs one map
// read and a fixed-size copy: zero allocations (gated by
// BenchmarkCacheHit in the ledger).
//
//bicoop:noalloc
func (s *Store) Lookup(k Key) (Value, bool) {
	sh := s.shardOf(k)
	sh.mu.Lock()
	i, ok := sh.index[k]
	if !ok {
		sh.stats.Misses++
		sh.mu.Unlock()
		var zero Value
		return zero, false
	}
	sh.entries[i].ref = true
	v := sh.entries[i].val
	sh.stats.Hits++
	sh.mu.Unlock()
	return v, true
}

// Solve returns the value for k: the cached one on a hit, otherwise the
// result of solve, packed by MakeValue and added to the store. A nil
// store is the cache-off engine: solve runs on every call and nothing is
// stored. A solve error is returned as is and never cached. Every grid
// point of the engine and its kernels goes through here, so hits, misses
// and cache-off runs share one code path and one result shape.
func (s *Store) Solve(k Key, solve func() (protocols.Optimum, error)) (Value, error) {
	if s != nil {
		if v, ok := s.Lookup(k); ok {
			return v, nil
		}
	}
	opt, err := solve()
	if err != nil {
		return Value{}, err
	}
	v := MakeValue(opt.Objective, opt.Rates.Ra, opt.Rates.Rb, opt.Durations)
	if s != nil {
		s.Add(k, v)
	}
	return v, nil
}

// Add inserts or overwrites the value for k. New keys are appended while
// the shard has room and otherwise displace a victim chosen second-chance
// (clock) style: the hand sweeps the entry array clearing reference bits
// and evicts the first entry found unreferenced since its last sweep.
func (s *Store) Add(k Key, v Value) {
	sh := s.shardOf(k)
	sh.mu.Lock()
	if i, ok := sh.index[k]; ok {
		sh.entries[i].val = v
		sh.entries[i].ref = true
		sh.mu.Unlock()
		return
	}
	var slot int
	switch {
	case sh.used < len(sh.entries):
		slot = sh.used
		sh.used++
	default:
		for {
			if !sh.entries[sh.hand].ref {
				break
			}
			sh.entries[sh.hand].ref = false
			sh.hand = (sh.hand + 1) % len(sh.entries)
		}
		slot = sh.hand
		sh.hand = (sh.hand + 1) % len(sh.entries)
		delete(sh.index, sh.entries[slot].key)
		sh.stats.Evictions++
	}
	sh.entries[slot] = entry{key: k, val: v, ref: true}
	sh.index[k] = int32(slot)
	sh.stats.Fills++
	sink := s.sink
	sh.mu.Unlock()
	if sink != nil {
		sink(k, v)
	}
}

// Len returns the number of live entries.
func (s *Store) Len() int {
	n := 0
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		n += len(sh.index)
		sh.mu.Unlock()
	}
	return n
}

// Range calls fn for every live entry until fn returns false. The order
// is unspecified. fn runs outside the shard locks on copied pairs, so it
// may itself use the store.
func (s *Store) Range(fn func(Key, Value) bool) {
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		pairs := make([]entry, 0, len(sh.index))
		for _, idx := range sh.index {
			pairs = append(pairs, sh.entries[idx])
		}
		sh.mu.Unlock()
		for _, e := range pairs {
			if !fn(e.key, e.val) {
				return
			}
		}
	}
}

// Reset drops every entry and zeroes the counters, keeping the backing
// arrays (benchmarks use it to re-measure the miss path).
func (s *Store) Reset() {
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		clear(sh.index)
		clear(sh.entries)
		sh.used = 0
		sh.hand = 0
		sh.stats = Stats{}
		sh.mu.Unlock()
	}
}

// Stats returns the summed counters across shards. The snapshot is
// per-shard consistent, not globally atomic.
func (s *Store) Stats() Stats {
	var t Stats
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		t.Hits += sh.stats.Hits
		t.Misses += sh.stats.Misses
		t.Fills += sh.stats.Fills
		t.Evictions += sh.stats.Evictions
		sh.mu.Unlock()
	}
	return t
}

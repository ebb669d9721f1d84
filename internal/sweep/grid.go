package sweep

import (
	"context"
	"errors"
	"fmt"

	"bicoop/internal/cache"
	"bicoop/internal/channel"
	"bicoop/internal/protocols"
	"bicoop/internal/sim"
	"bicoop/internal/xmath"
)

// ErrSpec reports a grid spec that failed axis resolution (an invalid
// placement or erasure network). The facade maps it to its public
// ErrInvalidSweepSpec sentinel.
var ErrSpec = errors.New("sweep: invalid spec")

// Scenario is a Gaussian evaluation point in dB quantities, mirroring the
// facade's scenario type field for field so the dB→linear conversion happens
// inside the worker that evaluates the point.
type Scenario struct {
	PowerDB, GabDB, GarDB, GbrDB float64
}

// internal converts to the linear-scale protocols scenario.
func (s Scenario) internal() protocols.Scenario {
	return protocols.NewScenarioDB(s.PowerDB, s.GabDB, s.GarDB, s.GbrDB)
}

// Placement derives link gains from a relay position on the a-b segment with
// a path-loss exponent, like the facade's RelayPlacement.
type Placement struct {
	Pos, Exponent float64
	// GabDB normalizes the direct link (dB).
	GabDB float64
}

// scenario resolves the placement at a power, via the same geometry → gains
// → dB round trip as the facade so both paths yield identical numbers.
func (pl Placement) scenario(powerDB float64) (Scenario, error) {
	g, err := (channel.LineGeometry{
		RelayPos:  pl.Pos,
		Exponent:  pl.Exponent,
		RefGainAB: xmath.FromDB(pl.GabDB),
	}).Gains()
	if err != nil {
		return Scenario{}, err
	}
	return Scenario{
		PowerDB: powerDB,
		GabDB:   xmath.DB(g.AB),
		GarDB:   xmath.DB(g.AR),
		GbrDB:   xmath.DB(g.BR),
	}, nil
}

// Erasure is one erasure-network axis entry, evaluated on the TDBC inner
// bound.
type Erasure struct {
	EpsAR, EpsBR, EpsAB float64
}

// Spec declares a grid: the Gaussian cross product PowersDB × Placements ×
// Protocols plus an independent erasure-network axis. Zero-value fields
// default like the facade's SweepSpec: Protocols to all five, Bound to
// inner, PowersDB to {Base.PowerDB}; an empty Placements axis evaluates the
// Base gains. A spec with Erasures and no Gaussian axis skips the Base
// scenario entirely.
type Spec struct {
	Protocols  []protocols.Protocol
	Bound      protocols.Bound
	Base       Scenario
	PowersDB   []float64
	Placements []Placement
	Erasures   []Erasure
}

func (spec Spec) gaussian() bool {
	return len(spec.PowersDB) > 0 || len(spec.Placements) > 0 || len(spec.Erasures) == 0
}

func (spec Spec) protos() []protocols.Protocol {
	if len(spec.Protocols) > 0 {
		return spec.Protocols
	}
	return protocols.Protocols()
}

func (spec Spec) bound() protocols.Bound {
	if spec.Bound != 0 {
		return spec.Bound
	}
	return protocols.BoundInner
}

// Size returns the number of points the sweep will yield.
func (spec Spec) Size() int {
	n := len(spec.Erasures)
	if !spec.gaussian() {
		return n
	}
	powers := len(spec.PowersDB)
	if powers == 0 {
		powers = 1
	}
	places := len(spec.Placements)
	if places == 0 {
		places = 1
	}
	return powers*places*len(spec.protos()) + n
}

// Point is one evaluated grid point with its coordinates and optimum.
type Point struct {
	// Index is the point's position in enumeration order: power outer,
	// placement middle, protocol inner, then the erasure axis.
	Index int
	// PowerDB is the transmit power of a Gaussian point.
	PowerDB float64
	// PlacementIdx indexes Spec.Placements, -1 for base-gains and erasure
	// points. ErasureIdx indexes Spec.Erasures, -1 for Gaussian points.
	PlacementIdx, ErasureIdx int
	// Scenario is the resolved Gaussian scenario (zero for erasure points).
	Scenario Scenario
	// Proto and Bound identify the evaluated bound (erasure points are
	// always TDBC inner).
	Proto protocols.Protocol
	Bound protocols.Bound
	// Sum, Ra, Rb and Durations are the LP optimum at the point.
	Sum, Ra, Rb float64
	Durations   []float64
}

// resolvedGrid is the up-front materialization of a spec's axes: one entry
// per (power, placement) pair, aligned placement indices, and the erasure
// link informations.
type resolvedGrid struct {
	protos   []protocols.Protocol
	bound    protocols.Bound
	scen     []Scenario
	placeIdx []int // aligned with scen; -1 for base gains
	powerOf  []float64
	erasures []protocols.LinkInfos
	erasSpec []Erasure // aligned with erasures; retained for cache keys
	gaussN   int
}

func (spec Spec) resolve() (resolvedGrid, error) {
	g := resolvedGrid{protos: spec.protos(), bound: spec.bound()}
	powers := spec.PowersDB
	if len(powers) == 0 {
		powers = []float64{spec.Base.PowerDB}
	}
	if !spec.gaussian() {
		powers = nil
	}
	for _, pdb := range powers {
		if len(spec.Placements) == 0 {
			s := spec.Base
			s.PowerDB = pdb
			g.scen = append(g.scen, s)
			g.placeIdx = append(g.placeIdx, -1)
			g.powerOf = append(g.powerOf, pdb)
			continue
		}
		for pi, pl := range spec.Placements {
			s, err := pl.scenario(pdb)
			if err != nil {
				return resolvedGrid{}, fmt.Errorf("%w: placement %d: %w", ErrSpec, pi, err)
			}
			g.scen = append(g.scen, s)
			g.placeIdx = append(g.placeIdx, pi)
			g.powerOf = append(g.powerOf, pdb)
		}
	}
	g.gaussN = len(g.scen) * len(g.protos)
	for i, e := range spec.Erasures {
		net := sim.ErasureNetwork{EpsAR: e.EpsAR, EpsBR: e.EpsBR, EpsAB: e.EpsAB}
		if err := net.Validate(); err != nil {
			return resolvedGrid{}, fmt.Errorf("%w: erasure %d: %w", ErrSpec, i, err)
		}
		g.erasures = append(g.erasures, net.LinkInfos())
		g.erasSpec = append(g.erasSpec, e)
	}
	return g, nil
}

// Sweep evaluates the grid across opts.Workers and streams every point to
// yield in enumeration order. One pooled evaluator is held per worker, and
// every Naive4/HBC LP is a cold solve that depends only on its own point, so
// results are bit-identical for every worker count. A yield error or context
// cancellation stops the sweep within one chunk per worker.
func Sweep(ctx context.Context, spec Spec, opts Options, yield func(Point) error) error {
	grid, err := spec.resolve()
	if err != nil {
		return err
	}
	n := grid.gaussN + len(grid.erasures)
	// Results are buffered per chunk and released right after emission, so
	// together with Run's backpressure window the sweep holds O(workers)
	// chunks of points live, not the whole grid.
	chunks := make([][]Point, (n+ChunkSize-1)/ChunkSize)
	nP := len(grid.protos)
	do := func(ev *protocols.Evaluator, lo, hi int) error {
		buf := make([]Point, hi-lo)
		// The link informations of the last solved Gaussian scenario:
		// consecutive points share a scenario across the protocol axis, so
		// a run of misses pays the transcendental terms once, and a hit
		// pays none.
		lastScen := -1
		var li protocols.LinkInfos
		durs := make([]float64, 0, 4*(hi-lo)) // one backing array per chunk, carved per point
		for i := lo; i < hi; i++ {
			pt := Point{Index: i, PlacementIdx: -1, ErasureIdx: -1}
			var key cache.Key
			si := -1
			if i < grid.gaussN {
				si = i / nP
				s := grid.scen[si]
				pt.Proto, pt.Bound = grid.protos[i%nP], grid.bound
				pt.PowerDB, pt.PlacementIdx, pt.Scenario = grid.powerOf[si], grid.placeIdx[si], s
				key = cache.SumRateKey(pt.Proto, pt.Bound, s.PowerDB, s.GabDB, s.GarDB, s.GbrDB)
			} else {
				pt.Proto, pt.Bound = protocols.TDBC, protocols.BoundInner
				pt.ErasureIdx = i - grid.gaussN
				e := grid.erasSpec[pt.ErasureIdx]
				key = cache.ErasureKey(e.EpsAR, e.EpsBR, e.EpsAB)
			}
			v, err := opts.Cache.Solve(key, func() (protocols.Optimum, error) {
				if si < 0 {
					return ev.WeightedRateLinks(pt.Proto, pt.Bound, grid.erasures[pt.ErasureIdx], 1, 1)
				}
				if si != lastScen {
					var err error
					if li, err = protocols.LinkInfosFromScenario(grid.scen[si].internal()); err != nil {
						return protocols.Optimum{}, err
					}
					lastScen = si
				}
				return ev.WeightedRateLinks(pt.Proto, pt.Bound, li, 1, 1)
			})
			if err != nil {
				return fmt.Errorf("sweep point %d: %w", i, err)
			}
			start := len(durs)
			durs = append(durs, v.Dur[:v.NDur]...)
			pt.Sum, pt.Ra, pt.Rb = v.Sum, v.Ra, v.Rb
			pt.Durations = durs[start:len(durs):len(durs)]
			buf[i-lo] = pt
		}
		chunks[lo/ChunkSize] = buf
		return nil
	}
	// On a resumed run the core floors opts.Start to a chunk boundary; the
	// first emitted chunk may then straddle the resume point, so yields are
	// additionally gated on the exact Start index — callers see points from
	// precisely the first one a previous run never yielded.
	emit := func(lo, hi int) error {
		c := lo / ChunkSize
		buf := chunks[c]
		chunks[c] = nil // release as soon as the chunk is streamed
		for i := lo; i < hi; i++ {
			if i < opts.Start {
				continue
			}
			if err := yield(buf[i-lo]); err != nil {
				return err
			}
		}
		return nil
	}
	_, err = Run(ctx, n, opts, do, emit)
	return err
}

// Result is one Batch optimum.
type Result struct {
	Sum, Ra, Rb float64
	Durations   []float64
}

// dbMemo caches one dB→linear conversion. Grid batches typically vary one or
// two axes at a time, so consecutive scenarios share most fields and the
// math.Pow behind each repeated field is paid once per change instead of
// once per scenario. Scoped to a chunk so results stay order-independent
// across worker counts (the conversion is bit-identical either way — both
// paths funnel through xmath.FromDB).
type dbMemo struct {
	db, lin float64
	set     bool
}

func (m *dbMemo) of(db float64) float64 {
	if !m.set || db != m.db {
		m.db, m.lin, m.set = db, xmath.FromDB(db), true
	}
	return m.lin
}

// scenarioMemo converts dB scenarios to internal (linear) form with a
// per-field conversion cache.
type scenarioMemo struct{ p, ab, ar, br dbMemo }

func (m *scenarioMemo) internal(s Scenario) protocols.Scenario {
	return protocols.Scenario{
		P: m.p.of(s.PowerDB),
		G: channel.Gains{AB: m.ab.of(s.GabDB), AR: m.ar.of(s.GarDB), BR: m.br.of(s.GbrDB)},
	}
}

// Batch evaluates the bound's optimum for n scenarios, sharded like Sweep.
// scen(i) supplies scenario i and store(i, r) receives its result; both are
// called from worker goroutines (each index exactly once, distinct indices
// concurrently), which lets callers read from and write into their own
// result-shaped storage without intermediate arrays. Batch returns the
// length of the contiguous prefix of completed results — n on success — so
// callers can surface partial results on cancellation.
func Batch(ctx context.Context, proto protocols.Protocol, bound protocols.Bound, n int, opts Options, scen func(int) Scenario, store func(int, Result)) (int, error) {
	do := func(ev *protocols.Evaluator, lo, hi int) error {
		var memo scenarioMemo
		durs := make([]float64, 0, 4*(hi-lo)) // one backing array per chunk
		for i := lo; i < hi; i++ {
			s := scen(i)
			v, err := opts.Cache.Solve(cache.SumRateKey(proto, bound, s.PowerDB, s.GabDB, s.GarDB, s.GbrDB),
				func() (protocols.Optimum, error) {
					return ev.WeightedRate(proto, bound, memo.internal(s), 1, 1)
				})
			if err != nil {
				return fmt.Errorf("scenario %d: %w", i, err)
			}
			start := len(durs)
			durs = append(durs, v.Dur[:v.NDur]...)
			store(i, Result{
				Sum: v.Sum, Ra: v.Ra, Rb: v.Rb,
				Durations: durs[start:len(durs):len(durs)],
			})
		}
		return nil
	}
	return Run(ctx, n, opts, do, nil)
}

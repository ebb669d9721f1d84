package main

// workload.go — the four job workloads. Every job is generated from the
// seed alone: the seed moves scenario values (power offsets, placement
// exponent and direct-link gain, region scenarios, campaign seeds) but
// never job sizes, so runs at different seeds do the same amount of work.

import (
	"encoding/json"
	"fmt"
	"math/rand/v2"

	"bicoop"
	"bicoop/internal/service"
)

// defaultSeed is the seed whose first jobs the committed objective digests
// describe.
const defaultSeed = 1

// Sweep axis: 600 cyclic positions, five interleaved laps of 0–59.5 dB in
// 0.5 dB steps, each lap offset 0.1 dB from the previous one. A window of
// consecutive positions is a run of 0.5 dB steps, and the whole axis is
// 600 distinct powers — 99,000 cache keys at 33 placements × 5 protocols,
// more than the 65,536-entry cache holds.
const (
	axisLen = 600
	lapLen  = 120
)

// size fixes every job dimension; tinySize keeps smoke tests fast.
type size struct {
	powers, places, shift int // sweep window, placements, slide per job
	cacheCap              int // bccd -cache for sweep-cached
	scenarios, angles     int // region batch
	blockLens             [2]int
	trials                int // blocks per bit-true spec
	refKinds              int // distinct jobs before the sequence repeats (region, bittrue)
}

var (
	fullSize = size{powers: 61, places: 33, shift: 15, cacheCap: 65536,
		scenarios: 8, angles: 241, blockLens: [2]int{1000, 4000}, trials: 8, refKinds: 8}
	tinySize = size{powers: 5, places: 3, shift: 1, cacheCap: 256,
		scenarios: 1, angles: 21, blockLens: [2]int{200, 400}, trials: 4, refKinds: 2}
)

// job is one generated submission: the engine spec of its kind (exactly one
// set), its wire form, and the work units it yields.
type job struct {
	ref      int // jobs with equal ref are identical submissions
	sweep    *bicoop.SweepSpec
	region   *bicoop.RegionBatchSpec
	campaign *bicoop.CampaignSpec
	body     []byte
	units    int
}

// workload is one traffic mix against bccd.
type workload struct {
	name   string
	unit   string // what units count: points, curves or blocks
	cached bool   // bccd runs with -cache
	// ioBound marks jobs whose time goes mostly to file writes and renames
	// (results CSV, checkpoints); their latencies are host-speed adjusted.
	ioBound bool
	// warmup returns the jobs run (and checked) before measuring; nil when
	// the workload needs none.
	warmup func(g *generator) []job
	next   func(g *generator, i int) job
}

var workloads = []workload{
	{name: "sweep", unit: "points", ioBound: true, next: (*generator).sweepJob},
	{name: "sweep-cached", unit: "points", cached: true, ioBound: true, next: (*generator).sweepJob,
		warmup: func(g *generator) []job { return []job{g.sweepWarmup()} }},
	{name: "region-lp", unit: "curves", ioBound: true, next: (*generator).regionJob},
	{name: "bittrue", unit: "blocks", next: (*generator).campaignJob},
}

func lookupWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// generator derives every job of a run from the seed.
type generator struct {
	seed int64
	sz   size

	powerOffset float64 // dB added to every sweep power, in [0, 0.05)
	exponent    float64 // path-loss exponent of every placement
	gabDB       float64 // direct-link gain of every placement
	base        int     // first axis position of job 0
}

func newGenerator(seed int64, sz size) *generator {
	rng := rand.New(rand.NewPCG(uint64(seed), 0x6263636f6f70))
	return &generator{
		seed:        seed,
		sz:          sz,
		powerOffset: 0.05 * rng.Float64(),
		exponent:    2.5 + 1.5*rng.Float64(),
		gabDB:       -3 + 6*rng.Float64(),
		base:        rng.IntN(axisLen),
	}
}

// power maps an axis position (any integer, taken cyclically) to dB.
func (g *generator) power(pos int) float64 {
	p := ((pos % axisLen) + axisLen) % axisLen
	return g.powerOffset + 0.5*float64(p%lapLen) + 0.1*float64(p/lapLen)
}

func (g *generator) sweepSpec(first, n int) *bicoop.SweepSpec {
	spec := &bicoop.SweepSpec{
		Protocols: bicoop.AllProtocols(),
		Bound:     bicoop.Inner,
		// Placements supply the gains; Base only has to be valid.
		Base: bicoop.Scenario{GabDB: g.gabDB},
	}
	for k := 0; k < n; k++ {
		spec.PowersDB = append(spec.PowersDB, g.power(first+k))
	}
	for i := 0; i < g.sz.places; i++ {
		spec.Placements = append(spec.Placements, bicoop.RelayPlacement{
			Pos:      float64(i+1) / float64(g.sz.places+1),
			Exponent: g.exponent,
			GabDB:    g.gabDB,
		})
	}
	return spec
}

func sweepJobOf(ref int, spec *bicoop.SweepSpec) job {
	return job{ref: ref, sweep: spec, units: spec.Size(), body: mustJSON(service.JobSpec{Sweep: &service.SweepJob{
		Protocols:  spec.Protocols,
		Bound:      spec.Bound,
		Base:       spec.Base,
		PowersDB:   spec.PowersDB,
		Placements: spec.Placements,
	}})}
}

// sweepJob is window i: it starts shift positions after window i-1, so
// (powers-shift)/powers of its points repeat the previous job's (75% at
// full size). The sequence repeats after one trip around the axis.
func (g *generator) sweepJob(i int) job {
	first := g.base + g.sz.shift*i
	period := axisLen / g.sz.shift
	return sweepJobOf(i%period, g.sweepSpec(first, g.sz.powers))
}

// sweepWarmup is one job over the axis positions just before window 0's
// new ones, enough of them to overfill the cache by 10%: the cache then
// holds what a long run of windows would have left in it, so window 0
// already hits, fills and evicts at the steady-state rates.
func (g *generator) sweepWarmup() job {
	perPower := g.sz.places * len(bicoop.AllProtocols())
	n := (g.sz.cacheCap*11/10 + perPower - 1) / perPower
	last := g.base + g.sz.powers - g.sz.shift // one past window 0's repeated part
	return sweepJobOf(-1, g.sweepSpec(last-n, n))
}

// regionCurves: every bound of the four relaying protocols, inner and
// outer. Naive4 and HBC solve LPs; MABC and TDBC take closed forms.
var regionCurves = func() []bicoop.RegionCurve {
	var out []bicoop.RegionCurve
	for _, p := range []bicoop.Protocol{bicoop.Naive4, bicoop.HBC, bicoop.MABC, bicoop.TDBC} {
		out = append(out, bicoop.RegionCurve{Protocol: p, Bound: bicoop.Inner},
			bicoop.RegionCurve{Protocol: p, Bound: bicoop.Outer})
	}
	return out
}()

func (g *generator) regionJob(i int) job {
	ref := i % g.sz.refKinds
	rng := rand.New(rand.NewPCG(uint64(g.seed), uint64(1000+ref)))
	spec := &bicoop.RegionBatchSpec{Curves: regionCurves, Angles: g.sz.angles}
	for s := 0; s < g.sz.scenarios; s++ {
		spec.Scenarios = append(spec.Scenarios, bicoop.Scenario{
			PowerDB: 30 * rng.Float64(),
			GabDB:   -10 * rng.Float64(),
			GarDB:   -3 + 13*rng.Float64(),
			GbrDB:   -3 + 13*rng.Float64(),
		})
	}
	return job{ref: ref, region: spec, units: spec.Size(), body: mustJSON(service.JobSpec{RegionBatch: &service.RegionJob{
		Scenarios: spec.Scenarios,
		Curves:    spec.Curves,
		Angles:    spec.Angles,
	}})}
}

// Bit-true specs: pinned durations, so no LP runs inside the simulators.
// At full size the 1000-channel-use blocks stay below the 512-column M4RI
// cutover of the GF(2) solver and the 4000-channel-use blocks cross it.
var (
	tdbcSpec = bicoop.BitTrueTDBCSpec{
		Links:     bicoop.ErasureLinks{EpsAR: 0.2, EpsBR: 0.1, EpsAB: 0.6},
		Rates:     bicoop.RatePoint{Ra: 0.2, Rb: 0.2},
		Durations: []float64{0.3, 0.3, 0.4},
	}
	mabcSpec = bicoop.BitTrueMABCSpec{
		Links:     bicoop.MABCComputeForwardLinks{EpsMAC: 0.2, EpsRA: 0.15, EpsRB: 0.1},
		Rate:      0.3,
		Durations: []float64{0.45, 0.55},
	}
)

func (g *generator) campaignJob(i int) job {
	ref := i % g.sz.refKinds
	spec := &bicoop.CampaignSpec{}
	seed := g.seed*1000 + int64(ref)*10
	// Long blocks first: the campaign's two workers each start one long
	// run, so the job's time does not depend on which worker claims what.
	for li := len(g.sz.blockLens) - 1; li >= 0; li-- {
		t, m := tdbcSpec, mabcSpec
		t.BlockLength, m.BlockLength = g.sz.blockLens[li], g.sz.blockLens[li]
		spec.Specs = append(spec.Specs,
			bicoop.SimSpec{BitTrueTDBC: &t, Trials: g.sz.trials, Seed: seed},
			bicoop.SimSpec{BitTrueMABC: &m, Trials: g.sz.trials, Seed: seed + 1})
		seed += 2
	}
	wire := &service.CampaignJob{}
	for _, s := range spec.Specs {
		wire.Specs = append(wire.Specs, service.SimJob{
			BitTrueTDBC: s.BitTrueTDBC,
			BitTrueMABC: s.BitTrueMABC,
			Trials:      s.Trials,
			Seed:        s.Seed,
		})
	}
	return job{ref: ref, campaign: spec, units: len(spec.Specs) * g.sz.trials,
		body: mustJSON(service.JobSpec{Campaign: wire})}
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(fmt.Sprintf("marshal job spec: %v", err)) // the specs are built above; a failure is a bug
	}
	return b
}

package experiments

import (
	"fmt"
	"math"
	"math/rand"

	"bicoop/internal/plot"
	"bicoop/internal/protocols"
	"bicoop/internal/region"
	"bicoop/internal/sweep"
	"bicoop/internal/xmath"
)

func init() {
	register("crossover",
		"Claim check: MABC dominates TDBC at low SNR and TDBC wins at high SNR (sum-rate sweep over P at the Fig 4 gains)",
		runCrossover)
	register("hbc-escape",
		"Claim check: achievable HBC rate pairs outside both the MABC and TDBC outer bounds, swept over P at the Fig 4 gains",
		runHBCEscape)
	register("mabc-tight",
		"Claim check: Theorem 2 is tight — the MABC inner and outer regions coincide on randomized scenarios",
		runMABCTight)
}

func runCrossover(cfg Config) (Result, error) {
	nP := 31
	if cfg.Quick {
		nP = 11
	}
	powersDB := xmath.Linspace(-10, 20, nP)
	protos := []protocols.Protocol{protocols.MABC, protocols.TDBC, protocols.HBC}
	spec := sweep.Spec{
		Protocols: protos,
		Base:      fig4BaseScenario(0),
		PowersDB:  powersDB,
	}
	series := make([]plot.Series, len(protos))
	for i, p := range protos {
		series[i] = plot.Series{Name: p.String(), Y: make([]float64, 0, nP)}
	}
	table := plot.NewColumnTable("Optimal sum rates vs power (Fig 4 gains)",
		plot.Col{Name: "P (dB)", Prec: 1},
		plot.Col{Name: "MABC", Prec: 4},
		plot.Col{Name: "TDBC", Prec: 4},
		plot.Col{Name: "HBC", Prec: 4},
	)
	row := make([]float64, 1+len(protos))
	err := sweep.Sweep(cfg.ctx(), spec, sweep.Options{}, nil, func(pt sweep.Point) error {
		pi := pt.Index % len(protos)
		series[pi].Y = append(series[pi].Y, pt.Sum)
		row[1+pi] = pt.Sum
		if pi == len(protos)-1 {
			row[0] = powersDB[pt.Index/len(protos)]
			table.Append(row...)
		}
		return nil
	})
	if err != nil {
		return Result{}, err
	}
	crossAt := math.NaN()
	mabcY, tdbcY := series[0].Y, series[1].Y
	for xi := 1; xi < nP; xi++ {
		if mabcY[xi-1]-tdbcY[xi-1] > 0 && mabcY[xi]-tdbcY[xi] <= 0 {
			crossAt = powersDB[xi]
			break
		}
	}
	res := Result{
		Charts: []plot.Chart{{
			Title:  table.Title,
			XLabel: "P (dB)",
			YLabel: "sum rate (bits/use)",
			X:      powersDB,
			Series: series,
		}},
		Tables: []plot.TableRenderer{table},
	}
	if !math.IsNaN(crossAt) {
		res.Findings = append(res.Findings, fmt.Sprintf(
			"MABC dominates below, TDBC above: sum-rate crossover near P = %.1f dB (paper: 'in the low SNR regime, the MABC protocol dominates the TDBC protocol, while the latter is better in the high SNR regime')", crossAt))
	} else {
		res.Findings = append(res.Findings, "no MABC/TDBC crossover found in the swept power range — UNEXPECTED vs the paper")
	}
	return res, nil
}

// hbcEscapeCurves are the three regions the escape search needs, computed
// per power through the sharded region batch.
var hbcEscapeCurves = []sweep.RegionCurve{
	{Protocol: protocols.HBC, Bound: protocols.BoundInner},
	{Protocol: protocols.MABC, Bound: protocols.BoundOuter},
	{Protocol: protocols.TDBC, Bound: protocols.BoundOuter},
}

func runHBCEscape(cfg Config) (Result, error) {
	powersDB := []float64{-5, 0, 5, 10, 15, 20}
	if cfg.Quick {
		powersDB = []float64{0, 10}
	}
	table := plot.NewColumnTable("HBC achievable points outside both MABC and TDBC outer bounds",
		plot.Col{Name: "P (dB)", Prec: 1},
		plot.Col{Name: "witnesses", Prec: 0},
		plot.Col{Name: "max margin (bits)", Prec: 4},
		plot.Col{Name: "witness Ra", Prec: 4},
		plot.Col{Name: "witness Rb", Prec: 4},
	)
	margins := make([]float64, len(powersDB))
	anyEscape := false
	// One batch computes all powers × three curves; scenario-major streaming
	// hands each power's triple over as soon as its last curve completes,
	// so the exact LP witness verification pipelines behind the regions.
	spec := sweep.RegionSpec{Curves: hbcEscapeCurves}
	for _, pdb := range powersDB {
		spec.Scenarios = append(spec.Scenarios, fig4BaseScenario(pdb))
	}
	triple := make([]region.Polygon, len(hbcEscapeCurves))
	err := sweep.RegionBatch(cfg.ctx(), spec, sweep.Options{}, nil, func(r sweep.RegionResult) error {
		triple[r.CurveIdx] = r.Polygon
		if r.CurveIdx < len(hbcEscapeCurves)-1 {
			return nil
		}
		i := r.ScenarioIdx
		pdb := powersDB[i]
		s := protocols.Scenario{P: xmath.FromDB(pdb), G: Fig4Gains()}
		esc, err := protocols.HBCEscapeFromRegions(s, triple[0], triple[1], triple[2])
		if err != nil {
			return err
		}
		best := protocols.EscapeWitness{}
		for _, e := range esc {
			if e.Margin > best.Margin {
				best = e
			}
		}
		margins[i] = best.Margin
		if best.Margin > 1e-4 {
			anyEscape = true
		}
		table.Append(pdb, float64(len(esc)), best.Margin, best.Point.Ra, best.Point.Rb)
		return nil
	})
	if err != nil {
		return Result{}, err
	}
	res := Result{
		Charts: []plot.Chart{{
			Title:  "Escape margin of HBC beyond both outer bounds",
			XLabel: "P (dB)",
			YLabel: "margin (bits)",
			X:      powersDB,
			Series: []plot.Series{{Name: "max escape margin", Y: margins}},
		}},
		Tables: []plot.TableRenderer{table},
	}
	if anyEscape {
		res.Findings = append(res.Findings,
			"confirmed: the HBC achievable region contains points outside the outer bounds of both two/three-phase protocols (paper Section IV, final paragraph)")
	} else {
		res.Findings = append(res.Findings, "no escape points found — UNEXPECTED vs the paper")
	}
	return res, nil
}

func runMABCTight(cfg Config) (Result, error) {
	trials := 40
	if cfg.Quick {
		trials = 8
	}
	// Scenarios are drawn up front (the rng stream is the experiment's
	// determinism contract), then all trials × {inner, outer} run as one
	// sharded region batch; the inner/outer pair of each trial streams back
	// consecutively, so the area comparison needs only one polygon of state.
	rng := rand.New(rand.NewSource(cfg.Seed + 1))
	spec := sweep.RegionSpec{
		Curves: []sweep.RegionCurve{
			{Protocol: protocols.MABC, Bound: protocols.BoundInner},
			{Protocol: protocols.MABC, Bound: protocols.BoundOuter},
		},
	}
	for trial := 0; trial < trials; trial++ {
		pdb := -10 + 30*rng.Float64()
		gab := -10 + 8*rng.Float64()
		gar := gab + 15*rng.Float64()
		gbr := gab + 15*rng.Float64()
		spec.Scenarios = append(spec.Scenarios, sweep.Scenario{
			PowerDB: pdb, GabDB: gab, GarDB: gar, GbrDB: gbr,
		})
	}
	worst := 0.0
	table := plot.NewColumnTable("MABC inner vs outer region agreement on randomized scenarios",
		plot.Col{Name: "trial", Prec: 0},
		plot.Col{Name: "P (dB)", Prec: 4},
		plot.Col{Name: "Gab (dB)", Prec: 4},
		plot.Col{Name: "Gar (dB)", Prec: 4},
		plot.Col{Name: "Gbr (dB)", Prec: 4},
		plot.Col{Name: "Hausdorff-like gap", Prec: 4},
	)
	var inner region.Polygon
	err := sweep.RegionBatch(cfg.ctx(), spec, sweep.Options{}, nil, func(r sweep.RegionResult) error {
		if r.CurveIdx == 0 {
			inner = r.Polygon
			return nil
		}
		trial := r.ScenarioIdx
		gap := math.Abs(inner.Area() - r.Polygon.Area())
		if gap > worst {
			worst = gap
		}
		if trial < 10 {
			s := spec.Scenarios[trial]
			table.Append(float64(trial), s.PowerDB, s.GabDB, s.GarDB, s.GbrDB, gap)
		}
		return nil
	})
	if err != nil {
		return Result{}, err
	}
	res := Result{Tables: []plot.TableRenderer{table}}
	if worst < 1e-6 {
		res.Findings = append(res.Findings, fmt.Sprintf(
			"confirmed: MABC inner and outer regions coincide on all %d randomized scenarios (max area gap %.2e) — Theorem 2 gives the exact capacity region", trials, worst))
	} else {
		res.Findings = append(res.Findings, fmt.Sprintf(
			"MABC inner/outer regions diverged by %.2e — UNEXPECTED, Theorem 2 is tight", worst))
	}
	return res, nil
}

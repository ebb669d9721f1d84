package experiments

import (
	"fmt"
	"math/rand"

	"bicoop/internal/phy"
	"bicoop/internal/plot"
	"bicoop/internal/protocols"
	"bicoop/internal/sim"
	"bicoop/internal/stats"
	"bicoop/internal/xmath"
)

func init() {
	register("baselines",
		"Extension: DF protocols vs the amplify-and-forward two-phase scheme ([7],[8]) and the full-duplex DF ceiling ([9]), swept over P at the Fig 4 gains",
		runBaselines)
	register("bitsim-mabc",
		"Extension: bit-true compute-and-forward MABC (Theorem 2 remark — relay decodes only the XOR) — success waterfall with Wilson confidence intervals",
		runBitSimMABC)
	register("ber",
		"Substrate validation: symbol-level BER of BPSK/QPSK/16-QAM on direct and amplify-and-forward relay links vs closed-form theory",
		runBER)
}

func runBaselines(cfg Config) (Result, error) {
	nP := 25
	if cfg.Quick {
		nP = 9
	}
	powersDB := xmath.Linspace(-10, 20, nP)
	names := []string{"MABC", "TDBC", "HBC", "AF 2-phase", "full-duplex DF"}
	series := make([]plot.Series, len(names))
	for i, n := range names {
		series[i] = plot.Series{Name: n, Y: make([]float64, nP)}
	}
	table := plot.NewColumnTable("DF protocols vs AF and the full-duplex ceiling (sum rates, bits/use; Fig 4 gains)",
		plot.Col{Name: "P (dB)", Prec: 1},
		plot.Col{Name: "MABC", Prec: 4}, plot.Col{Name: "TDBC", Prec: 4},
		plot.Col{Name: "HBC", Prec: 4}, plot.Col{Name: "AF", Prec: 4},
		plot.Col{Name: "full-duplex", Prec: 4}, plot.Col{Name: "HBC/FD", Prec: 4},
	)
	afBeatsDFSomewhere := false
	worstPenalty := 1.0
	ev := protocols.NewEvaluator()
	for xi, pdb := range powersDB {
		s := protocols.Scenario{P: xmath.FromDB(pdb), G: Fig4Gains()}
		vals := make([]float64, 0, 5)
		for _, proto := range []protocols.Protocol{protocols.MABC, protocols.TDBC, protocols.HBC} {
			sum, err := ev.SumRate(proto, protocols.BoundInner, s)
			if err != nil {
				return Result{}, err
			}
			vals = append(vals, sum)
		}
		af, err := protocols.AFSumRate(s)
		if err != nil {
			return Result{}, err
		}
		vals = append(vals, af.Sum)
		fd, err := protocols.FullDuplexSumRate(s)
		if err != nil {
			return Result{}, err
		}
		vals = append(vals, fd.Sum)
		for i := range series {
			series[i].Y[xi] = vals[i]
		}
		ratio := vals[2] / vals[4]
		if ratio < worstPenalty {
			worstPenalty = ratio
		}
		if af.Sum > vals[0] {
			afBeatsDFSomewhere = true
		}
		row := append([]float64{pdb}, vals...)
		table.Append(append(row, ratio)...)
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
	res.Findings = append(res.Findings, fmt.Sprintf(
		"half-duplex HBC retains at least %.0f%% of the full-duplex DF sum rate across the sweep — the cost of the paper's half-duplex constraint", 100*worstPenalty))
	if afBeatsDFSomewhere {
		res.Findings = append(res.Findings, "AF overtakes MABC DF somewhere in the sweep (noise amplification fades at high SNR)")
	} else {
		res.Findings = append(res.Findings,
			"decode-and-forward dominates the 2-phase AF scheme throughout this gain profile; AF's amplified noise is costly at the paper's SNRs")
	}
	return res, nil
}

func runBitSimMABC(cfg Config) (Result, error) {
	blockLen := 4000
	trials := 40
	if cfg.Quick {
		blockLen = 1200
		trials = 12
	}
	const epsMAC, epsRA, epsRB = 0.2, 0.15, 0.1
	bound, durations := sim.MABCComputeForwardBound(epsMAC, epsRA, epsRB)
	scales := []float64{0.7, 0.8, 0.9, 0.95, 1.05, 1.1, 1.2, 1.3}
	if cfg.Quick {
		scales = []float64{0.8, 0.95, 1.1, 1.3}
	}
	success := make([]float64, len(scales))
	table := plot.Table{
		Title: fmt.Sprintf("Bit-true compute-and-forward MABC (eps mac/ra/rb = %.2f/%.2f/%.2f), block %d, symmetric-rate bound %.4f",
			epsMAC, epsRA, epsRB, blockLen, bound),
		Headers: []string{"rate scale", "success", "95% CI", "relay fails", "terminal fails"},
	}
	// Scale axis as a campaign: deterministic per-scale runs pipelined
	// across GOMAXPROCS workers (see the bitsim experiment).
	results := make([]sim.BitTrueResult, len(scales))
	if err := campaign(cfg, len(scales), func(i int) error {
		res, err := sim.RunBitTrueMABC(cfg.ctx(), sim.MABCBitTrueConfig{
			EpsMAC: epsMAC, EpsRA: epsRA, EpsRB: epsRB,
			Rate:        bound * scales[i],
			Durations:   durations,
			BlockLength: blockLen,
			Trials:      trials,
			Seed:        cfg.Seed + int64(i),
			// Fixed worker count: seed-reproducible across machines, still
			// sharded on multi-core hosts (see the bitsim experiment).
			Workers: 8,
		})
		if err != nil {
			return err
		}
		results[i] = res
		return nil
	}); err != nil {
		return Result{}, err
	}
	for i, sc := range scales {
		res := results[i]
		success[i] = res.SuccessProb
		ci, err := stats.WilsonInterval(res.Trials-res.RelayFailures-res.TerminalFailures, res.Trials, 0.95)
		if err != nil {
			return Result{}, err
		}
		table.AddRow(fmt.Sprintf("%.2f", sc), fmt.Sprintf("%.3f", res.SuccessProb),
			fmt.Sprintf("[%.3f, %.3f]", ci.Lo, ci.Hi),
			fmt.Sprintf("%d", res.RelayFailures), fmt.Sprintf("%d", res.TerminalFailures))
	}
	res := Result{
		Charts: []plot.Chart{{
			Title:  "Compute-and-forward MABC success vs rate relative to its bound",
			XLabel: "rate scale",
			YLabel: "block success probability",
			X:      scales,
			Series: []plot.Series{{Name: "success", Y: success}},
		}},
		Tables: []plot.TableRenderer{table},
	}
	below, above := success[0], success[len(success)-1]
	if below > 0.9 && above < 0.1 {
		res.Findings = append(res.Findings,
			"waterfall confirmed for the Theorem 2 remark's protocol: the relay decodes ONLY the XOR (physical-layer network coding over a shared linear code) yet both terminals exchange messages reliably up to the bound")
	} else {
		res.Findings = append(res.Findings, fmt.Sprintf(
			"waterfall shape off (%.2f below vs %.2f above) — UNEXPECTED", below, above))
	}
	return res, nil
}

func runBER(cfg Config) (Result, error) {
	nBits := 400000
	if cfg.Quick {
		nBits = 60000
	}
	rng := rand.New(rand.NewSource(cfg.Seed + 77))
	mods := []phy.Modulation{phy.BPSK, phy.QPSK, phy.QAM16}
	snrsDB := []float64{0, 4, 8, 12}
	table := plot.Table{
		Title:   "Symbol-level BER vs closed-form theory (direct link and AF two-hop path)",
		Headers: []string{"modulation", "SNR (dB)", "direct sim", "direct theory", "AF sim", "AF theory (eff SNR)"},
	}
	x := make([]float64, len(snrsDB))
	copy(x, snrsDB)
	series := make([]plot.Series, 0, len(mods))
	maxRelErr := 0.0
	for _, m := range mods {
		ys := make([]float64, len(snrsDB))
		for i, sdb := range snrsDB {
			snr := xmath.FromDB(sdb)
			directSim, err := phy.SimulateBER(cfg.ctx(), m, snr, nBits, rng)
			if err != nil {
				return Result{}, err
			}
			directTh, err := phy.TheoreticalBER(m, snr)
			if err != nil {
				return Result{}, err
			}
			// AF path: relay halfway in gain terms (g1 = g2 = sqrt(snr)
			// keeps the end-to-end budget comparable).
			afSim, err := phy.SimulateAFBER(cfg.ctx(), m, snr, 1, 1, nBits, rng)
			if err != nil {
				return Result{}, err
			}
			afTh, err := phy.TheoreticalBER(m, phy.AFLinkSNR(snr, 1, 1))
			if err != nil {
				return Result{}, err
			}
			ys[i] = directSim
			table.AddRow(m.String(), fmt.Sprintf("%.0f", sdb),
				fmt.Sprintf("%.5f", directSim), fmt.Sprintf("%.5f", directTh),
				fmt.Sprintf("%.5f", afSim), fmt.Sprintf("%.5f", afTh))
			// Only compare where ~200 errors are expected; below that the
			// Monte Carlo noise alone exceeds any meaningful tolerance.
			minBER := 200 / float64(nBits)
			for _, pair := range [][2]float64{{directSim, directTh}, {afSim, afTh}} {
				if pair[1] > minBER {
					rel := abs(pair[0]-pair[1]) / pair[1]
					if rel > maxRelErr {
						maxRelErr = rel
					}
				}
			}
		}
		series = append(series, plot.Series{Name: m.String(), Y: ys})
	}
	res := Result{
		Charts: []plot.Chart{{
			Title:  "Direct-link BER (simulated)",
			XLabel: "SNR (dB)",
			YLabel: "bit error rate",
			X:      x,
			Series: series,
		}},
		Tables: []plot.TableRenderer{table},
	}
	// Wilson interval on the tightest measured point documents resolution.
	iv, err := stats.WilsonInterval(int(5e-4*float64(nBits)), nBits, 0.95)
	if err != nil {
		return Result{}, err
	}
	if maxRelErr < 0.25 {
		res.Findings = append(res.Findings, fmt.Sprintf(
			"symbol-level simulation matches closed-form BER within %.0f%% wherever enough errors accrue (BER resolution floor ≈ %.1e at this bit budget) — the Gaussian substrate and the AF effective-SNR algebra are mutually consistent", 100*maxRelErr, iv.Width()))
	} else {
		res.Findings = append(res.Findings, fmt.Sprintf("BER mismatch up to %.0f%% — UNEXPECTED", 100*maxRelErr))
	}
	return res, nil
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

package sim

import (
	"context"
	"math"
	"testing"

	"bicoop/internal/gf2"
	"bicoop/internal/prob"
	"bicoop/internal/protocols"
)

// The bit-true workers decide every decode by rank (gf2.Solver.FullRank)
// and never build a right-hand side. The tests here pin that shortcut to the
// full decoder it replaced: a reference block replays a worker's random
// stream draw for draw, encodes every codeword, rebuilds each node's RHS from
// the channel outputs exactly as a receiver would, solves with SolveInto and
// compares the solution against the true message.

// refDecode solves one node's system in full and asserts the rank-only
// answer agrees with "SolveInto returned the message".
func refDecode(t *testing.T, what string, k int, rows []gf2.Vector, bits []int, msg gf2.Vector) (gf2.Vector, bool) {
	t.Helper()
	var s gf2.Solver
	dst := gf2.NewVector(k)
	solved := s.SolveInto(&dst, k, rows, bits) == nil && dst.Equal(msg)
	if full := s.FullRank(k, rows); full != solved {
		t.Fatalf("%s (k=%d, %d rows): FullRank %v but SolveInto recovered the message = %v", what, k, len(rows), full, solved)
	}
	return dst, solved
}

// padCombineInto computes the zero-padded XOR wa ⊕ wb into dst, the relay
// message in the paper's group Z_2^max(ka,kb) when the two message sets have
// different rates; dst must have max(len(wa), len(wb)) bits.
func padCombineInto(dst *gf2.Vector, wa, wb gf2.Vector) error {
	dst.CopyPrefix(wa)
	return dst.XorWith(wb)
}

// refTDBCBlock is tdbcWorker.runBlock with the full decoder: same draws in
// the same order, plus the codewords and right-hand sides. It also returns
// the untruncated relay rows both terminals received (nil when the relay
// failed).
func refTDBCBlock(t *testing.T, w *tdbcWorker) (ok, relayOK bool, shared []gf2.Vector) {
	t.Helper()
	p := w.p
	w.wa.Randomize(w.rng)
	w.wb.Randomize(w.rng)

	var relayRowsA, relayRowsB, rowsForA, rowsForB []gf2.Vector
	var relayBitsA, relayBitsB, bitsForA, bitsForB []int
	receive := func(code *gf2.Matrix, msg gf2.Vector, n int, first, second prob.WordBernoulli,
		rowsR *[]gf2.Vector, bitsR *[]int, rowsT *[]gf2.Vector, bitsT *[]int) {
		code.Rerandomize(w.rng)
		x, err := code.MulVec(msg)
		if err != nil {
			t.Fatal(err)
		}
		for base := 0; base < n; base += 64 {
			live := liveLanes(base, n)
			s1 := ^first.Mask(w.rng) & live
			s2 := ^second.Mask(w.rng) & live
			for i := base; i < base+64 && i < n; i++ {
				if s1>>uint(i-base)&1 != 0 {
					*rowsR = append(*rowsR, code.RowView(i))
					*bitsR = append(*bitsR, x.Bit(i))
				}
			}
			for i := base; i < base+64 && i < n; i++ {
				if s2>>uint(i-base)&1 != 0 {
					*rowsT = append(*rowsT, code.RowView(i))
					*bitsT = append(*bitsT, x.Bit(i))
				}
			}
		}
	}
	receive(&w.codeA, w.wa, p.n1, w.maskAR, w.maskAB, &relayRowsA, &relayBitsA, &rowsForB, &bitsForB)
	receive(&w.codeB, w.wb, p.n2, w.maskBR, w.maskAB, &relayRowsB, &relayBitsB, &rowsForA, &bitsForA)

	decA, okA := refDecode(t, "relay a", p.ka, relayRowsA, relayBitsA, w.wa)
	decB, okB := refDecode(t, "relay b", p.kb, relayRowsB, relayBitsB, w.wb)
	if !okA || !okB {
		return false, false, nil
	}

	wr := gf2.NewVector(p.kr)
	if err := padCombineInto(&wr, decA, decB); err != nil {
		t.Fatal(err)
	}
	w.codeR.Rerandomize(w.rng)
	xr, err := w.codeR.MulVec(wr)
	if err != nil {
		t.Fatal(err)
	}
	padWa, padWb := gf2.NewVector(p.kr), gf2.NewVector(p.kr)
	padWa.CopyPrefix(w.wa)
	padWb.CopyPrefix(w.wb)
	for base := 0; base < p.n3; base += 64 {
		live := liveLanes(base, p.n3)
		survA := ^w.maskAR.Mask(w.rng) & live
		survB := ^w.maskBR.Mask(w.rng) & live
		for i := base; i < base+64 && i < p.n3; i++ {
			if (survA&survB)>>uint(i-base)&1 != 0 {
				shared = append(shared, w.codeR.RowView(i))
			}
			if survA>>uint(i-base)&1 != 0 {
				row := w.codeR.RowView(i)
				trunc := gf2.NewVector(p.kb)
				trunc.CopyPrefix(row)
				rowsForA = append(rowsForA, trunc)
				bitsForA = append(bitsForA, xr.Bit(i)^gf2.Dot(row, padWa))
			}
		}
		for i := base; i < base+64 && i < p.n3; i++ {
			if survB>>uint(i-base)&1 != 0 {
				row := w.codeR.RowView(i)
				trunc := gf2.NewVector(p.ka)
				trunc.CopyPrefix(row)
				rowsForB = append(rowsForB, trunc)
				bitsForB = append(bitsForB, xr.Bit(i)^gf2.Dot(row, padWb))
			}
		}
	}
	_, okAtA := refDecode(t, "terminal a", p.kb, rowsForA, bitsForA, w.wb)
	_, okAtB := refDecode(t, "terminal b", p.ka, rowsForB, bitsForB, w.wa)
	return okAtA && okAtB, true, shared
}

// refMABCBlock is mabcWorker.runBlock with the full decoder. It also returns
// the broadcast rows both terminals received (nil when the relay failed).
func refMABCBlock(t *testing.T, w *mabcWorker) (ok, relayOK bool, shared []gf2.Vector) {
	t.Helper()
	w.wa.Randomize(w.rng)
	w.wb.Randomize(w.rng)
	s := gf2.NewVector(w.k)
	s.CopyPrefix(w.wa)
	if err := s.XorWith(w.wb); err != nil {
		t.Fatal(err)
	}
	// receive also returns which positions survived.
	receive := func(code *gf2.Matrix, msg gf2.Vector, n int, mask prob.WordBernoulli) ([]gf2.Vector, []int, map[int]bool) {
		x, err := code.MulVec(msg)
		if err != nil {
			t.Fatal(err)
		}
		var rows []gf2.Vector
		var bits []int
		got := map[int]bool{}
		for base := 0; base < n; base += 64 {
			surv := ^mask.Mask(w.rng) & liveLanes(base, n)
			for i := base; i < base+64 && i < n; i++ {
				if surv>>uint(i-base)&1 != 0 {
					rows = append(rows, code.RowView(i))
					bits = append(bits, x.Bit(i))
					got[i] = true
				}
			}
		}
		return rows, bits, got
	}

	w.codeMAC.Rerandomize(w.rng)
	rows, bits, _ := receive(&w.codeMAC, s, w.n1, w.maskMAC)
	sHat, ok := refDecode(t, "relay", w.k, rows, bits, s)
	if !ok {
		return false, false, nil
	}
	w.codeBC.Rerandomize(w.rng)
	rows, bits, atA := receive(&w.codeBC, sHat, w.n2, w.maskRA)
	sAtA, okA := refDecode(t, "terminal a", w.k, rows, bits, s)
	rows, bits, atB := receive(&w.codeBC, sHat, w.n2, w.maskRB)
	sAtB, okB := refDecode(t, "terminal b", w.k, rows, bits, s)
	for i := 0; i < w.n2; i++ {
		if atA[i] && atB[i] {
			shared = append(shared, w.codeBC.RowView(i))
		}
	}
	if !okA || !okB {
		return false, true, shared
	}
	_ = sAtA.XorWith(w.wa)
	_ = sAtB.XorWith(w.wb)
	return sAtA.Equal(w.wb) && sAtB.Equal(w.wa), true, shared
}

// outcome classifies a block as the workers tally it.
func outcome(ok, relayOK bool) int {
	switch {
	case ok:
		return 0
	case !relayOK:
		return 1
	default:
		return 2
	}
}

// TestBitTrueRankDecodeMatchesFullDecode runs twin workers from one seed —
// one through runBlock, one through the full reference decoder — over
// near-threshold blocks on both sides of the M4RI cutover, and requires the
// same outcome for every block. refDecode additionally checks every single
// decode: FullRank is true exactly when SolveInto returns the message.
func TestBitTrueRankDecodeMatchesFullDecode(t *testing.T) {
	for _, n := range []int{150, 700, 2000} {
		var tally [2][3]int
		tcfg := BitTrueConfig{
			Net:         ErasureNetwork{EpsAR: 0.3, EpsBR: 0.25, EpsAB: 0.6},
			Rates:       protocols.RatePair{Ra: 0.275, Rb: 0.26},
			Durations:   []float64{0.4, 0.4, 0.2},
			BlockLength: n,
		}
		p, _, err := deriveTDBCParams(BitTrueConfig{Net: tcfg.Net, Rates: tcfg.Rates, Durations: tcfg.Durations, BlockLength: n, Trials: 1})
		if err != nil {
			t.Fatal(err)
		}
		got, ref := newTDBCWorker(tcfg.Net, p, 5), newTDBCWorker(tcfg.Net, p, 5)
		for b := 0; b < 20; b++ {
			ok, relayOK, _ := refTDBCBlock(t, ref)
			g, want := outcome(got.runBlock()), outcome(ok, relayOK)
			if g != want {
				t.Fatalf("TDBC n=%d block %d: rank decode outcome %d, full decode %d", n, b, g, want)
			}
			tally[0][g]++
		}

		rate, d := MABCComputeForwardBound(0.2, 0.15, 0.1)
		mcfg := MABCBitTrueConfig{EpsMAC: 0.2, EpsRA: 0.15, EpsRB: 0.1}
		k := int(math.Floor(rate * 0.985 * float64(n)))
		n1 := int(math.Round(d[0] * float64(n)))
		mgot, mref := newMABCWorker(mcfg, k, n1, n-n1, 6), newMABCWorker(mcfg, k, n1, n-n1, 6)
		for b := 0; b < 20; b++ {
			ok, relayOK, _ := refMABCBlock(t, mref)
			g, want := outcome(mgot.runBlock()), outcome(ok, relayOK)
			if g != want {
				t.Fatalf("MABC n=%d block %d: rank decode outcome %d, full decode %d", n, b, g, want)
			}
			tally[1][g]++
		}
		for i, name := range []string{"TDBC", "MABC"} {
			if tally[i][0] == 0 || tally[i][1]+tally[i][2] == 0 {
				t.Errorf("%s n=%d: outcomes %v lack a success or a failure — the check lost coverage", name, n, tally[i])
			}
		}
	}
}

// fullRankProb is the exact probability that a decoder reaches full rank:
// each of its n channel uses survives with probability 1-eps, and m
// surviving uniform random k-bit rows span GF(2)^k with probability
// ∏_{i<k}(1 - 2^{i-m}), averaged over m ~ Binomial(n, 1-eps).
func fullRankProb(n, k int, eps float64) float64 {
	total := 0.0
	for m := k; m <= n; m++ {
		lg := func(x int) float64 { v, _ := math.Lgamma(float64(x) + 1); return v }
		pmf := math.Exp(lg(n) - lg(m) - lg(n-m) + float64(m)*math.Log1p(-eps) + float64(n-m)*math.Log(eps))
		span := 1.0
		for j := m - k + 1; j <= m; j++ {
			span *= 1 - math.Ldexp(1, -j)
		}
		total += pmf * span
	}
	return total
}

// TestBitTrueRelayFailuresMatchExactOracle checks seeded campaigns against
// the exact relay-failure rate at near-threshold points, where the rate is
// far from 0 and 1 and a wrong rank decision would show. The relay decodes
// see i.i.d. uniform rows; TDBC's two relay decodes use independent codes
// and erasure masks, so its relay succeeds with probability P_A·P_B, and
// MABC's relay decodes one system over the MAC erasures. (The two
// terminals decode rows of one relay code — runBlock decides both with one
// elimination over the rows they share, falling back to one per terminal —
// so their outcomes are dependent, end-to-end success has no such product
// form, and it is not checked here.) Seeds are fixed, so the test is
// deterministic; the 4-standard-error band documents the agreement.
func TestBitTrueRelayFailuresMatchExactOracle(t *testing.T) {
	const n, trials = 700, 2000
	check := func(name string, failures int, pFail float64) {
		t.Helper()
		se := math.Sqrt(pFail * (1 - pFail) / trials)
		got := float64(failures) / trials
		if math.Abs(got-pFail) > 4*se {
			t.Errorf("%s: relay failure rate %.4f, exact %.4f (4·se %.4f)", name, got, pFail, 4*se)
		}
		if pFail < 0.1 || pFail > 0.9 {
			t.Errorf("%s: exact failure rate %.4f is not near threshold", name, pFail)
		}
	}

	tcfg := BitTrueConfig{
		Net:         ErasureNetwork{EpsAR: 0.31, EpsBR: 0.33, EpsAB: 0.6},
		Rates:       protocols.RatePair{Ra: 0.2, Rb: 0.2},
		Durations:   []float64{0.3, 0.3, 0.4},
		BlockLength: n, Trials: trials, Seed: 41, Workers: 2,
	}
	tres, err := RunBitTrueTDBC(context.Background(), tcfg)
	if err != nil {
		t.Fatal(err)
	}
	p, _, _ := deriveTDBCParams(tcfg)
	check("TDBC", tres.RelayFailures,
		1-fullRankProb(p.n1, p.ka, tcfg.Net.EpsAR)*fullRankProb(p.n2, p.kb, tcfg.Net.EpsBR))

	mcfg := MABCBitTrueConfig{
		EpsMAC: 0.31, EpsRA: 0.1, EpsRB: 0.1,
		Rate:        0.2,
		Durations:   []float64{0.3, 0.7},
		BlockLength: n, Trials: trials, Seed: 42, Workers: 2,
	}
	mres, err := RunBitTrueMABC(context.Background(), mcfg)
	if err != nil {
		t.Fatal(err)
	}
	n1 := int(math.Round(mcfg.Durations[0] * n))
	k := int(math.Floor(mcfg.Rate * n))
	check("MABC", mres.RelayFailures, 1-fullRankProb(n1, k, mcfg.EpsMAC))
}

// spansBitwise reports whether the first k bits of rows span GF(2)^k, by
// textbook bit-at-a-time elimination — independent of gf2.Solver.
func spansBitwise(k int, rows []gf2.Vector) bool {
	basis := make([]gf2.Vector, k)
	have := make([]bool, k)
	rank := 0
	for _, row := range rows {
		cur := gf2.NewVector(k)
		cur.CopyPrefix(row)
		for c := 0; c < k; c++ {
			if cur.Bit(c) == 0 {
				continue
			}
			if !have[c] {
				basis[c], have[c] = cur, true
				rank++
				break
			}
			_ = cur.XorWith(basis[c])
		}
	}
	return rank == k
}

// Terminal-phase classes of a block whose relay decoded.
const (
	sharedSpans     = iota // the rows both terminals received span
	sharedFewOK            // they number fewer than k, but both terminals decode
	sharedDeficitOK        // they number k or more but are rank deficient, and both terminals decode
	terminalFails          // a terminal fails
	numClasses
)

// terminalClass classifies a relay-decoded block from the reference
// decoder's outcome and an independent rank check of the shared rows.
func terminalClass(t *testing.T, ok bool, width int, shared []gf2.Vector) int {
	t.Helper()
	switch {
	case spansBitwise(width, shared):
		if !ok {
			t.Fatalf("shared rows span GF(2)^%d but a terminal failed", width)
		}
		return sharedSpans
	case ok && len(shared) < width:
		return sharedFewOK
	case ok:
		return sharedDeficitOK
	default:
		return terminalFails
	}
}

// TestBitTrueSharedTerminalDecision pins the one-elimination terminal
// decision of both workers to the full decoder. Twin workers replay one seed
// — one through runBlock, one through the reference block — at
// near-threshold points where terminal a's and b's link erasures are rare,
// so the rows both terminals received hover at the message length. An
// independent bitwise rank check sorts every relay-decoded block into one
// of four classes: the shared rows span (runBlock decides both terminals
// with one elimination); they number fewer than the message length
// (FullRank's row-count exit) or enough but are rank deficient (a full
// shared elimination), and either way the per-terminal fallback succeeds;
// or a terminal fails. Every class must
// occur at every point: TDBC with ka == kb, ka > kb and ka < kb, and MABC,
// below the M4RI cutover (message lengths near 60) and above it (near 190
// and 530).
func TestBitTrueSharedTerminalDecision(t *testing.T) {
	check := func(t *testing.T, blocks, width int, runBlock func() (bool, bool),
		ref func() (bool, bool, []gf2.Vector)) {
		t.Helper()
		var tally [numClasses]int
		for b := 0; b < blocks; b++ {
			ok, relayOK, shared := ref()
			if g, want := outcome(runBlock()), outcome(ok, relayOK); g != want {
				t.Fatalf("block %d: rank decode outcome %d, full decode %d", b, g, want)
			}
			if relayOK {
				tally[terminalClass(t, ok, width, shared)]++
			}
		}
		t.Logf("terminal-phase classes %v", tally)
		for c, n := range tally {
			if n == 0 {
				t.Errorf("terminal-phase classes %v: class %d never occurred — the check lost coverage", tally, c)
			}
		}
	}

	for _, tc := range []struct {
		name     string
		n        int
		eps, eab float64
		ra, rb   float64
		d        []float64
	}{
		{"n230/ka=kb", 230, 0.015, 0.99, 0.2707, 0.2707, []float64{0.36, 0.36, 0.28}},
		{"n230/ka>kb", 230, 0.015, 0.99, 0.2707, 0.24, []float64{0.36, 0.36, 0.28}},
		{"n230/ka<kb", 230, 0.015, 0.99, 0.24, 0.2707, []float64{0.36, 0.36, 0.28}},
		{"n700/ka=kb", 700, 0.02, 0.99, 0.2707, 0.2707, []float64{0.36, 0.36, 0.28}},
		{"n700/ka>kb", 700, 0.02, 0.99, 0.2707, 0.24, []float64{0.36, 0.36, 0.28}},
		{"n700/ka<kb", 700, 0.02, 0.99, 0.24, 0.2707, []float64{0.36, 0.36, 0.28}},
		{"n2000/ka=kb", 2000, 0.01, 0.995, 0.266, 0.266, []float64{0.365, 0.365, 0.27}},
		{"n2000/ka>kb", 2000, 0.01, 0.995, 0.266, 0.24, []float64{0.365, 0.365, 0.27}},
		{"n2000/ka<kb", 2000, 0.01, 0.995, 0.24, 0.266, []float64{0.365, 0.365, 0.27}},
	} {
		t.Run("TDBC/"+tc.name, func(t *testing.T) {
			net := ErasureNetwork{EpsAR: tc.eps, EpsBR: tc.eps, EpsAB: tc.eab}
			p, _, err := deriveTDBCParams(BitTrueConfig{Net: net, Rates: protocols.RatePair{Ra: tc.ra, Rb: tc.rb},
				Durations: tc.d, BlockLength: tc.n, Trials: 1})
			if err != nil {
				t.Fatal(err)
			}
			got, ref := newTDBCWorker(net, p, 7), newTDBCWorker(net, p, 7)
			check(t, 60, p.kr, got.runBlock, func() (bool, bool, []gf2.Vector) { return refTDBCBlock(t, ref) })
		})
	}

	for _, tc := range []struct {
		name      string
		k, n1, n2 int
		eps       float64
	}{
		{"k60", 60, 67, 67, 0.05},
		{"k325", 325, 364, 336, 0.02},
		{"k530", 530, 660, 540, 0.01},
	} {
		t.Run("MABC/"+tc.name, func(t *testing.T) {
			cfg := MABCBitTrueConfig{EpsMAC: 0.05, EpsRA: tc.eps, EpsRB: tc.eps}
			got, ref := newMABCWorker(cfg, tc.k, tc.n1, tc.n2, 8), newMABCWorker(cfg, tc.k, tc.n1, tc.n2, 8)
			check(t, 60, tc.k, got.runBlock, func() (bool, bool, []gf2.Vector) { return refMABCBlock(t, ref) })
		})
	}
}

package protocols

import (
	"testing"

	"bicoop/internal/dmc"
	"bicoop/internal/prob"
	"bicoop/internal/xmath"
)

func uniformInputs(n DMCNetwork) Inputs {
	return Inputs{
		A: prob.NewUniform(n.NxA),
		B: prob.NewUniform(n.NxB),
		R: prob.NewUniform(n.RtoA.Nx()),
	}
}

func TestSymmetricBSCNetworkInfos(t *testing.T) {
	// Closed forms for the all-BSC network with uniform inputs:
	// every point-to-point term is 1 - h(eps), and for the XOR-MAC both the
	// conditional terms and the sum term equal 1 - h(epsR) (given the peer
	// input the MAC is a BSC; jointly, Yr depends only on Xa xor Xb which
	// is itself uniform).
	const epsR, epsD = 0.1, 0.2
	n := SymmetricBSCNetwork(epsR, epsD)
	if err := n.Validate(); err != nil {
		t.Fatal(err)
	}
	li, err := LinkInfosFromDMC(n, uniformInputs(n))
	if err != nil {
		t.Fatal(err)
	}
	wantR := 1 - xmath.EntropyBinary(epsR)
	wantD := 1 - xmath.EntropyBinary(epsD)
	checks := []struct {
		name      string
		got, want float64
	}{
		{"AtoR", li.AtoR, wantR},
		{"BtoR", li.BtoR, wantR},
		{"AtoB", li.AtoB, wantD},
		{"BtoA", li.BtoA, wantD},
		{"RtoA", li.RtoA, wantR},
		{"RtoB", li.RtoB, wantR},
		{"MACAGivenB", li.MACAGivenB, wantR},
		{"MACBGivenA", li.MACBGivenA, wantR},
		{"MACSum", li.MACSum, wantR},
	}
	for _, c := range checks {
		if !xmath.ApproxEqual(c.got, c.want, 1e-9) {
			t.Errorf("%s = %v, want %v", c.name, c.got, c.want)
		}
	}
	// SIMO terms: combining two independent observations beats each alone
	// but not their sum.
	if li.AtoRB < wantR-1e-9 || li.AtoRB < wantD-1e-9 {
		t.Errorf("AtoRB = %v below a single link", li.AtoRB)
	}
	if li.AtoRB > wantR+wantD+1e-9 {
		t.Errorf("AtoRB = %v above the sum of links", li.AtoRB)
	}
	if err := li.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestDMCBoundsCompileAndSolve(t *testing.T) {
	// End-to-end: compile every protocol bound on the BSC network and check
	// basic sanity orderings.
	n := SymmetricBSCNetwork(0.05, 0.25)
	li, err := LinkInfosFromDMC(n, uniformInputs(n))
	if err != nil {
		t.Fatal(err)
	}
	sums := make(map[Protocol]float64)
	for _, p := range Protocols() {
		spec, err := Compile(p, BoundInner, li)
		if err != nil {
			t.Fatal(err)
		}
		opt, err := spec.MaxSumRate()
		if err != nil {
			t.Fatal(err)
		}
		if opt.Objective < 0 || opt.Objective > 2 {
			t.Errorf("%v: implausible BSC-network sum rate %v", p, opt.Objective)
		}
		sums[p] = opt.Objective
	}
	// HBC generalizes MABC and TDBC on DMCs too.
	if sums[HBC] < sums[MABC]-1e-9 || sums[HBC] < sums[TDBC]-1e-9 {
		t.Errorf("HBC %v below MABC %v or TDBC %v on the BSC network", sums[HBC], sums[MABC], sums[TDBC])
	}
	// With a strong relay and weak direct link, relaying beats DT.
	if sums[MABC] <= sums[DT] {
		t.Errorf("MABC %v should beat DT %v with a strong relay", sums[MABC], sums[DT])
	}
}

func TestDMCMatchesGaussianOnQuantizedChannels(t *testing.T) {
	// Cross-validation of the two evaluation paths: build a DMC network by
	// finely quantizing BPSK-AWGN links and compare each point-to-point
	// LinkInfos term to the BPSK mutual information (which lower-bounds the
	// Gaussian C(snr) and approaches it at low SNR).
	const snrR, snrD = 0.2, 0.05
	qr, err := dmc.QuantizeAWGN(snrR, 64, 0)
	if err != nil {
		t.Fatal(err)
	}
	qd, err := dmc.QuantizeAWGN(snrD, 64, 0)
	if err != nil {
		t.Fatal(err)
	}
	// MAC placeholder: product channel observation is not needed for the
	// point-to-point comparison; reuse the XOR MAC at snrR's equivalent BSC.
	n := DMCNetwork{
		AtoR: qr, BtoR: qr, AtoB: qd, BtoA: qd, RtoA: qr, RtoB: qr,
		MACatR: dmc.Product(qr, qr), NxA: 2, NxB: 2,
	}
	li, err := LinkInfosFromDMC(n, uniformInputs(n))
	if err != nil {
		t.Fatal(err)
	}
	// Real-AWGN capacity with Gaussian input: 0.5·log2(1+snr); BPSK uniform
	// input approaches it at these low SNRs within a few percent.
	wantR := 0.5 * xmath.C(snrR)
	wantD := 0.5 * xmath.C(snrD)
	if li.AtoR > wantR+1e-9 {
		t.Errorf("quantized AtoR %v exceeds Gaussian bound %v", li.AtoR, wantR)
	}
	if li.AtoR < 0.85*wantR {
		t.Errorf("quantized AtoR %v too far below Gaussian %v", li.AtoR, wantR)
	}
	if li.AtoB > wantD+1e-9 || li.AtoB < 0.85*wantD {
		t.Errorf("quantized AtoB %v vs Gaussian %v", li.AtoB, wantD)
	}
}

func TestDMCNetworkValidation(t *testing.T) {
	good := SymmetricBSCNetwork(0.1, 0.2)
	tests := []struct {
		name   string
		mutate func(n DMCNetwork) DMCNetwork
	}{
		{name: "zero alphabet", mutate: func(n DMCNetwork) DMCNetwork { n.NxA = 0; return n }},
		{name: "mac size", mutate: func(n DMCNetwork) DMCNetwork { n.MACatR = dmc.BSC(0.1); return n }},
		{name: "a alphabet", mutate: func(n DMCNetwork) DMCNetwork { n.AtoR = dmc.Noiseless(3); return n }},
		{name: "b alphabet", mutate: func(n DMCNetwork) DMCNetwork { n.BtoA = dmc.Noiseless(3); return n }},
		{name: "relay alphabet", mutate: func(n DMCNetwork) DMCNetwork { n.RtoA = dmc.Noiseless(3); return n }},
		{name: "not stochastic", mutate: func(n DMCNetwork) DMCNetwork {
			n.AtoB = dmc.Channel{W: [][]float64{{0.5, 0.4}, {0.1, 0.9}}}
			return n
		}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			bad := tt.mutate(good)
			if err := bad.Validate(); err == nil {
				t.Error("want validation error")
			}
		})
	}
	t.Run("bad inputs", func(t *testing.T) {
		if _, err := LinkInfosFromDMC(good, Inputs{A: prob.NewUniform(3), B: prob.NewUniform(2), R: prob.NewUniform(2)}); err == nil {
			t.Error("mismatched input size should error")
		}
		if _, err := LinkInfosFromDMC(good, Inputs{A: prob.PMF{0.5, 0.4}, B: prob.NewUniform(2), R: prob.NewUniform(2)}); err == nil {
			t.Error("unnormalized input should error")
		}
	})
}

func TestDMCInputOptimizationImprovesOnSkewed(t *testing.T) {
	// The uniform input is optimal for symmetric BSC links; a skewed input
	// must do no better. This guards the sign conventions in the evaluator.
	n := SymmetricBSCNetwork(0.1, 0.3)
	uni, err := LinkInfosFromDMC(n, uniformInputs(n))
	if err != nil {
		t.Fatal(err)
	}
	skew, err := LinkInfosFromDMC(n, Inputs{
		A: prob.PMF{0.9, 0.1},
		B: prob.PMF{0.8, 0.2},
		R: prob.PMF{0.7, 0.3},
	})
	if err != nil {
		t.Fatal(err)
	}
	if skew.AtoR > uni.AtoR+1e-9 || skew.MACSum > uni.MACSum+1e-9 || skew.RtoB > uni.RtoB+1e-9 {
		t.Error("skewed input beat the uniform input on a symmetric channel")
	}
}

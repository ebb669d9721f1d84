package protocols

import (
	"errors"
	"fmt"

	"bicoop/internal/dmc"
	"bicoop/internal/prob"
)

// DMCNetwork describes the three-node half-duplex network of Section II for
// arbitrary finite alphabets: one point-to-point DMC per directed link that
// the protocols use, plus a two-input MAC channel at the relay. Outputs at
// distinct receivers are conditionally independent given the inputs (the
// standard memoryless broadcast decomposition), which is how the SIMO
// cut-set terms are assembled.
type DMCNetwork struct {
	// AtoR, BtoR, AtoB, BtoA, RtoA, RtoB are the single-transmitter link
	// channels W(y_receiver | x_transmitter).
	AtoR, BtoR, AtoB, BtoA, RtoA, RtoB dmc.Channel
	// MACatR is the relay's multiple-access channel W(yr | xa, xb) with the
	// input pair indexed as xa·NxB + xb (NxB = number of b-inputs).
	MACatR dmc.Channel
	// NxA and NxB are the MAC input alphabet sizes for de-indexing MACatR.
	NxA, NxB int
}

// Inputs carries the per-node input distributions used to evaluate the
// mutual-information terms (the paper's p(ℓ)(x·|q); |Q| = 1 here — callers
// needing time sharing evaluate several Inputs and convexify).
type Inputs struct {
	A, B, R prob.PMF
}

// ErrBadNetwork reports an inconsistent DMCNetwork.
var ErrBadNetwork = errors.New("protocols: inconsistent DMC network")

// Validate checks alphabet consistency across the network's channels and
// that every transition matrix is row-stochastic.
func (n DMCNetwork) Validate() error {
	if n.NxA <= 0 || n.NxB <= 0 {
		return fmt.Errorf("%w: MAC input sizes (%d, %d)", ErrBadNetwork, n.NxA, n.NxB)
	}
	if n.MACatR.Nx() != n.NxA*n.NxB {
		return fmt.Errorf("%w: MAC has %d inputs, want %d*%d", ErrBadNetwork, n.MACatR.Nx(), n.NxA, n.NxB)
	}
	if n.AtoR.Nx() != n.NxA || n.AtoB.Nx() != n.NxA {
		return fmt.Errorf("%w: a-transmitter alphabet mismatch", ErrBadNetwork)
	}
	if n.BtoR.Nx() != n.NxB || n.BtoA.Nx() != n.NxB {
		return fmt.Errorf("%w: b-transmitter alphabet mismatch", ErrBadNetwork)
	}
	if n.RtoA.Nx() != n.RtoB.Nx() {
		return fmt.Errorf("%w: relay alphabet mismatch", ErrBadNetwork)
	}
	for _, c := range []dmc.Channel{n.AtoR, n.BtoR, n.AtoB, n.BtoA, n.RtoA, n.RtoB, n.MACatR} {
		if _, err := dmc.New(c.W); err != nil {
			return fmt.Errorf("%w: %w", ErrBadNetwork, err)
		}
	}
	return nil
}

// LinkInfosFromDMC evaluates every term of LinkInfos for the network under
// the given input distributions, using exact finite-alphabet computations.
// This realizes the general (non-Gaussian) forms of Theorems 2-6.
func LinkInfosFromDMC(n DMCNetwork, in Inputs) (LinkInfos, error) {
	if err := n.Validate(); err != nil {
		return LinkInfos{}, err
	}
	if len(in.A) != n.NxA || len(in.B) != n.NxB || len(in.R) != n.RtoA.Nx() {
		return LinkInfos{}, fmt.Errorf("%w: input dimensions (%d, %d, %d)", ErrBadNetwork, len(in.A), len(in.B), len(in.R))
	}
	for _, p := range []prob.PMF{in.A, in.B, in.R} {
		if err := p.Validate(); err != nil {
			return LinkInfos{}, err
		}
	}

	var li LinkInfos
	var err error
	if li.AtoR, err = n.AtoR.MutualInformation(in.A); err != nil {
		return LinkInfos{}, err
	}
	if li.BtoR, err = n.BtoR.MutualInformation(in.B); err != nil {
		return LinkInfos{}, err
	}
	if li.AtoB, err = n.AtoB.MutualInformation(in.A); err != nil {
		return LinkInfos{}, err
	}
	if li.BtoA, err = n.BtoA.MutualInformation(in.B); err != nil {
		return LinkInfos{}, err
	}
	if li.RtoA, err = n.RtoA.MutualInformation(in.R); err != nil {
		return LinkInfos{}, err
	}
	if li.RtoB, err = n.RtoB.MutualInformation(in.R); err != nil {
		return LinkInfos{}, err
	}

	// MAC terms: joint p(xa, xb, yr) = pa(xa)·pb(xb)·W(yr | xa, xb).
	nyR := n.MACatR.Ny()
	// I(Xa; Yr | Xb): Joint3 with (X=Xa, Y=Yr, Z=Xb).
	jAgB := prob.NewJoint3(n.NxA, nyR, n.NxB)
	// I(Xb; Yr | Xa): Joint3 with (X=Xb, Y=Yr, Z=Xa).
	jBgA := prob.NewJoint3(n.NxB, nyR, n.NxA)
	// I(Xa,Xb; Yr): Joint over the product input.
	jSum := prob.NewJoint(n.NxA*n.NxB, nyR)
	for xa := 0; xa < n.NxA; xa++ {
		for xb := 0; xb < n.NxB; xb++ {
			pin := in.A[xa] * in.B[xb]
			if pin == 0 {
				continue
			}
			row := n.MACatR.W[xa*n.NxB+xb]
			for y, w := range row {
				v := pin * w
				jAgB.P[xa][y][xb] += v
				jBgA.P[xb][y][xa] += v
				jSum.P[xa*n.NxB+xb][y] += v
			}
		}
	}
	li.MACAGivenB = jAgB.ConditionalMI()
	li.MACBGivenA = jBgA.ConditionalMI()
	li.MACSum = jSum.MutualInformation()

	// SIMO terms: the pair (Yr, Yb) given Xa with conditionally independent
	// observations: W'(yr, yb | xa) = AtoR(yr|xa)·AtoB(yb|xa).
	li.AtoRB, err = simoMI(n.AtoR, n.AtoB, in.A)
	if err != nil {
		return LinkInfos{}, err
	}
	li.BtoRA, err = simoMI(n.BtoR, n.BtoA, in.B)
	if err != nil {
		return LinkInfos{}, err
	}
	return li, nil
}

// simoMI computes I(X; Y1, Y2) for one transmitter heard by two receivers
// with conditionally independent channels c1 and c2.
func simoMI(c1, c2 dmc.Channel, px prob.PMF) (float64, error) {
	if c1.Nx() != c2.Nx() {
		return 0, fmt.Errorf("%w: SIMO input alphabets %d vs %d", ErrBadNetwork, c1.Nx(), c2.Nx())
	}
	ny1, ny2 := c1.Ny(), c2.Ny()
	w := make([][]float64, c1.Nx())
	for x := 0; x < c1.Nx(); x++ {
		row := make([]float64, ny1*ny2)
		for y1 := 0; y1 < ny1; y1++ {
			for y2 := 0; y2 < ny2; y2++ {
				row[y1*ny2+y2] = c1.W[x][y1] * c2.W[x][y2]
			}
		}
		w[x] = row
	}
	joint, err := prob.JointFromInputChannel(px, w)
	if err != nil {
		return 0, err
	}
	return joint.MutualInformation(), nil
}

// SymmetricBSCNetwork builds a DMCNetwork in which every link is a binary
// symmetric channel: the relay links have crossover epsR (both sides), the
// direct link epsD, and the MAC at the relay is modeled as the paper's
// half-duplex constraint allows — the relay observes the XOR of the two
// transmitted bits through a BSC(epsR) (a binary multiple-access abstraction
// that keeps every theorem term finite-alphabet computable).
func SymmetricBSCNetwork(epsR, epsD float64) DMCNetwork {
	bscR := dmc.BSC(epsR)
	bscD := dmc.BSC(epsD)
	// MAC: yr = (xa xor xb) with flip probability epsR.
	mac := make([][]float64, 4)
	for xa := 0; xa < 2; xa++ {
		for xb := 0; xb < 2; xb++ {
			row := make([]float64, 2)
			x := xa ^ xb
			row[x] = 1 - epsR
			row[1-x] = epsR
			mac[xa*2+xb] = row
		}
	}
	return DMCNetwork{
		AtoR: bscR, BtoR: bscR,
		AtoB: bscD, BtoA: bscD,
		RtoA: bscR, RtoB: bscR,
		MACatR: dmc.Channel{W: mac},
		NxA:    2, NxB: 2,
	}
}

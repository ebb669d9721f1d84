// Package prob implements finite discrete probability: probability mass
// functions, joint distributions, entropies, and mutual informations. These
// are the primitives behind the general (discrete memoryless) forms of the
// paper's Theorems 2-6, where every bound is a sum of terms
// Δℓ · I(X_S; Y_T | X_Sc, Q).
//
// Conventions: all entropies and informations are in bits. 0·log(0) is 0.
// Distributions are dense float64 slices/matrices indexed by symbol.
package prob

import (
	"errors"
	"fmt"
	"math"
)

// tol is the slack allowed when validating that probabilities sum to one.
const tol = 1e-9

// Errors returned by validation.
var (
	ErrEmpty         = errors.New("prob: empty distribution")
	ErrNegative      = errors.New("prob: negative probability")
	ErrNotNormalized = errors.New("prob: probabilities do not sum to 1")
	ErrShape         = errors.New("prob: dimension mismatch")
)

// PMF is a probability mass function over the alphabet {0, ..., len-1}.
type PMF []float64

// NewUniform returns the uniform PMF over n symbols.
func NewUniform(n int) PMF {
	if n <= 0 {
		return nil
	}
	p := make(PMF, n)
	for i := range p {
		p[i] = 1 / float64(n)
	}
	return p
}

// Validate checks that p is a proper distribution.
func (p PMF) Validate() error {
	if len(p) == 0 {
		return ErrEmpty
	}
	var sum float64
	for i, v := range p {
		if v < -tol {
			return fmt.Errorf("%w: p[%d] = %g", ErrNegative, i, v)
		}
		sum += v
	}
	if math.Abs(sum-1) > tol {
		return fmt.Errorf("%w: sum = %g", ErrNotNormalized, sum)
	}
	return nil
}

// Joint is a joint distribution p(x, y) over {0..nx-1} x {0..ny-1}, stored
// row-major: P[x][y].
type Joint struct {
	P [][]float64
}

// NewJoint allocates an nx-by-ny joint distribution of zeros.
func NewJoint(nx, ny int) Joint {
	p := make([][]float64, nx)
	buf := make([]float64, nx*ny)
	for i := range p {
		p[i], buf = buf[:ny:ny], buf[ny:]
	}
	return Joint{P: p}
}

// JointFromInputChannel builds the joint distribution p(x,y) = p(x)·W(y|x)
// from an input PMF and a row-stochastic channel matrix W (W[x][y]).
func JointFromInputChannel(px PMF, w [][]float64) (Joint, error) {
	if len(px) != len(w) {
		return Joint{}, fmt.Errorf("%w: input %d rows, channel %d rows", ErrShape, len(px), len(w))
	}
	if len(w) == 0 || len(w[0]) == 0 {
		return Joint{}, ErrEmpty
	}
	ny := len(w[0])
	j := NewJoint(len(px), ny)
	for x := range w {
		if len(w[x]) != ny {
			return Joint{}, fmt.Errorf("%w: ragged channel row %d", ErrShape, x)
		}
		for y := 0; y < ny; y++ {
			j.P[x][y] = px[x] * w[x][y]
		}
	}
	return j, nil
}

// Nx returns the X-alphabet size.
func (j Joint) Nx() int { return len(j.P) }

// Ny returns the Y-alphabet size.
func (j Joint) Ny() int {
	if len(j.P) == 0 {
		return 0
	}
	return len(j.P[0])
}

// MarginalX returns p(x) = Σ_y p(x, y).
func (j Joint) MarginalX() PMF {
	out := make(PMF, j.Nx())
	for x, row := range j.P {
		var s float64
		for _, v := range row {
			s += v
		}
		out[x] = s
	}
	return out
}

// MarginalY returns p(y) = Σ_x p(x, y).
func (j Joint) MarginalY() PMF {
	out := make(PMF, j.Ny())
	for _, row := range j.P {
		for y, v := range row {
			out[y] += v
		}
	}
	return out
}

// MutualInformation returns I(X; Y) = H(X) + H(Y) - H(X,Y) in bits, computed
// directly from the joint for numerical robustness:
// I = Σ p(x,y) log2( p(x,y) / (p(x)p(y)) ).
func (j Joint) MutualInformation() float64 {
	px := j.MarginalX()
	py := j.MarginalY()
	var mi float64
	for x, row := range j.P {
		for y, v := range row {
			if v > 0 {
				mi += v * math.Log2(v/(px[x]*py[y]))
			}
		}
	}
	// Tiny negative values can arise from rounding; information is >= 0.
	if mi < 0 && mi > -1e-12 {
		return 0
	}
	return mi
}

// Joint3 is a joint distribution p(x, y, z) over a triple of finite
// alphabets, stored as P[x][y][z]. It supports the conditional mutual
// information I(X; Y | Z) that appears throughout the paper's bounds.
type Joint3 struct {
	P [][][]float64
}

// NewJoint3 allocates an nx-by-ny-by-nz joint distribution of zeros.
func NewJoint3(nx, ny, nz int) Joint3 {
	p := make([][][]float64, nx)
	for x := range p {
		p[x] = make([][]float64, ny)
		buf := make([]float64, ny*nz)
		for y := range p[x] {
			p[x][y], buf = buf[:nz:nz], buf[nz:]
		}
	}
	return Joint3{P: p}
}

// Dims returns the three alphabet sizes.
func (j Joint3) Dims() (nx, ny, nz int) {
	nx = len(j.P)
	if nx == 0 {
		return 0, 0, 0
	}
	ny = len(j.P[0])
	if ny == 0 {
		return nx, 0, 0
	}
	return nx, ny, len(j.P[0][0])
}

// MarginalZ returns p(z).
func (j Joint3) MarginalZ() PMF {
	nx, ny, nz := j.Dims()
	out := make(PMF, nz)
	for x := 0; x < nx; x++ {
		for y := 0; y < ny; y++ {
			for z := 0; z < nz; z++ {
				out[z] += j.P[x][y][z]
			}
		}
	}
	return out
}

// ConditionalMI returns I(X; Y | Z) in bits:
// Σ_z p(z) · I(X; Y | Z=z).
func (j Joint3) ConditionalMI() float64 {
	nx, ny, nz := j.Dims()
	pz := j.MarginalZ()
	var mi float64
	for z := 0; z < nz; z++ {
		if pz[z] <= 0 {
			continue
		}
		slice := NewJoint(nx, ny)
		for x := 0; x < nx; x++ {
			for y := 0; y < ny; y++ {
				slice.P[x][y] = j.P[x][y][z] / pz[z]
			}
		}
		mi += pz[z] * slice.MutualInformation()
	}
	return mi
}

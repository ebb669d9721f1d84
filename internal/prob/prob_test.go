package prob

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"bicoop/internal/xmath"
)

func randomPMF(r *rand.Rand, n int) PMF {
	p := make(PMF, n)
	var sum float64
	for i := range p {
		p[i] = r.Float64()
		sum += p[i]
	}
	for i := range p {
		p[i] /= sum
	}
	return p
}

func randomJoint(r *rand.Rand, nx, ny int) Joint {
	j := NewJoint(nx, ny)
	var sum float64
	for x := 0; x < nx; x++ {
		for y := 0; y < ny; y++ {
			v := r.Float64()
			j.P[x][y] = v
			sum += v
		}
	}
	for x := 0; x < nx; x++ {
		for y := 0; y < ny; y++ {
			j.P[x][y] /= sum
		}
	}
	return j
}

func TestNewUniform(t *testing.T) {
	tests := []struct {
		name string
		n    int
		ok   bool
	}{
		{name: "binary", n: 2, ok: true},
		{name: "large", n: 17, ok: true},
		{name: "zero", n: 0, ok: false},
		{name: "negative", n: -3, ok: false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			p := NewUniform(tt.n)
			if !tt.ok {
				if p != nil {
					t.Fatalf("NewUniform(%d) = %v, want nil", tt.n, p)
				}
				return
			}
			if err := p.Validate(); err != nil {
				t.Fatalf("Validate: %v", err)
			}
			if !xmath.ApproxEqual(p.Entropy(), math.Log2(float64(tt.n)), 1e-12) {
				t.Errorf("Entropy = %v, want log2(%d)", p.Entropy(), tt.n)
			}
		})
	}
}

func TestValidateErrors(t *testing.T) {
	tests := []struct {
		name string
		p    PMF
		ok   bool
	}{
		{name: "empty", p: PMF{}, ok: false},
		{name: "negative", p: PMF{-0.5, 1.5}, ok: false},
		{name: "unnormalized", p: PMF{0.2, 0.2}, ok: false},
		{name: "good", p: PMF{0.25, 0.75}, ok: true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			err := tt.p.Validate()
			if tt.ok && err != nil {
				t.Errorf("Validate = %v, want nil", err)
			}
			if !tt.ok && err == nil {
				t.Error("Validate = nil, want error")
			}
		})
	}
}

func TestEntropyBounds(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		n := 2 + r.Intn(8)
		p := randomPMF(r, n)
		h := p.Entropy()
		if h < 0 {
			t.Fatalf("negative entropy %v for %v", h, p)
		}
		if h > math.Log2(float64(n))+1e-9 {
			t.Fatalf("entropy %v above log2(%d) for %v", h, n, p)
		}
	}
}

func TestBernoulliEntropy(t *testing.T) {
	prop := func(raw float64) bool {
		p := math.Mod(math.Abs(raw), 1)
		return xmath.ApproxEqual(PMF{1 - p, p}.Entropy(), xmath.EntropyBinary(p), 1e-12)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestJointMarginals(t *testing.T) {
	j := Joint{P: [][]float64{
		{0.1, 0.2},
		{0.3, 0.4},
	}}
	px := j.MarginalX()
	py := j.MarginalY()
	wantX := PMF{0.3, 0.7}
	wantY := PMF{0.4, 0.6}
	for i := range px {
		if !xmath.ApproxEqual(px[i], wantX[i], 1e-12) {
			t.Errorf("px[%d] = %v, want %v", i, px[i], wantX[i])
		}
	}
	for i := range py {
		if !xmath.ApproxEqual(py[i], wantY[i], 1e-12) {
			t.Errorf("py[%d] = %v, want %v", i, py[i], wantY[i])
		}
	}
}

func TestMutualInformationIndependent(t *testing.T) {
	p := PMF{0.2, 0.8}
	q := PMF{0.5, 0.25, 0.25}
	j := NewJoint(len(p), len(q))
	for x := range p {
		for y := range q {
			j.P[x][y] = p[x] * q[y]
		}
	}
	if mi := j.MutualInformation(); !xmath.ApproxEqual(mi, 0, 1e-12) {
		t.Errorf("MI of product = %v, want 0", mi)
	}
}

func TestMutualInformationPerfectCorrelation(t *testing.T) {
	// X = Y uniform over 4 symbols: I(X;Y) = H(X) = 2 bits.
	j := NewJoint(4, 4)
	for i := 0; i < 4; i++ {
		j.P[i][i] = 0.25
	}
	if mi := j.MutualInformation(); !xmath.ApproxEqual(mi, 2, 1e-12) {
		t.Errorf("MI = %v, want 2", mi)
	}
}

func TestMutualInformationBSC(t *testing.T) {
	// Uniform input through BSC(eps): I = 1 - h(eps).
	tests := []struct {
		name string
		eps  float64
	}{
		{name: "clean", eps: 0},
		{name: "noisy", eps: 0.11},
		{name: "useless", eps: 0.5},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			w := [][]float64{
				{1 - tt.eps, tt.eps},
				{tt.eps, 1 - tt.eps},
			}
			j, err := JointFromInputChannel(NewUniform(2), w)
			if err != nil {
				t.Fatal(err)
			}
			want := 1 - xmath.EntropyBinary(tt.eps)
			if mi := j.MutualInformation(); !xmath.ApproxEqual(mi, want, 1e-12) {
				t.Errorf("MI = %v, want %v", mi, want)
			}
		})
	}
}

func TestMutualInformationProperties(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for trial := 0; trial < 100; trial++ {
		j := randomJoint(r, 2+r.Intn(4), 2+r.Intn(4))
		mi := j.MutualInformation()
		if mi < 0 {
			t.Fatalf("negative MI %v", mi)
		}
		// Symmetry: I(X;Y) == I(Y;X).
		jt := NewJoint(j.Ny(), j.Nx())
		for x, row := range j.P {
			for y, v := range row {
				jt.P[y][x] = v
			}
		}
		if mt := jt.MutualInformation(); !xmath.ApproxEqual(mi, mt, 1e-9) {
			t.Fatalf("MI not symmetric: %v vs %v", mi, mt)
		}
		// I(X;Y) <= min(H(X), H(Y)).
		hx, hy := j.MarginalX().Entropy(), j.MarginalY().Entropy()
		if mi > math.Min(hx, hy)+1e-9 {
			t.Fatalf("MI %v exceeds min(H(X)=%v, H(Y)=%v)", mi, hx, hy)
		}
		// Identity: I = H(X) + H(Y) - H(X,Y).
		if alt := hx + hy - j.EntropyJoint(); !xmath.ApproxEqual(mi, alt, 1e-9) {
			t.Fatalf("MI identity broken: %v vs %v", mi, alt)
		}
	}
}

func TestConditionalEntropy(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	for trial := 0; trial < 50; trial++ {
		j := randomJoint(r, 3, 4)
		// Chain rule H(Y|X) = H(X,Y) - H(X): conditioning reduces entropy,
		// and conditional entropy is non-negative.
		hYgX := j.EntropyJoint() - j.MarginalX().Entropy()
		if hYgX < -1e-9 {
			t.Fatalf("negative conditional entropy %v", hYgX)
		}
		if hYgX > j.MarginalY().Entropy()+1e-9 {
			t.Fatal("conditioning increased entropy")
		}
	}
}

func TestJointFromInputChannelErrors(t *testing.T) {
	if _, err := JointFromInputChannel(PMF{1}, [][]float64{{0.5, 0.5}, {0.5, 0.5}}); err == nil {
		t.Error("want shape error for mismatched rows")
	}
	if _, err := JointFromInputChannel(PMF{0.5, 0.5}, [][]float64{{0.5, 0.5}, {1}}); err == nil {
		t.Error("want shape error for ragged channel")
	}
	if _, err := JointFromInputChannel(PMF{}, [][]float64{}); err == nil {
		t.Error("want error for empty")
	}
}

func TestJoint3ConditionalMI(t *testing.T) {
	t.Run("z independent of correlated xy", func(t *testing.T) {
		// (X,Y) perfectly correlated uniform bits, Z independent uniform bit:
		// I(X;Y|Z) = 1.
		j := NewJoint3(2, 2, 2)
		for x := 0; x < 2; x++ {
			for z := 0; z < 2; z++ {
				j.P[x][x][z] = 0.25
			}
		}
		if mi := j.ConditionalMI(); !xmath.ApproxEqual(mi, 1, 1e-12) {
			t.Errorf("I(X;Y|Z) = %v, want 1", mi)
		}
	})
	t.Run("x y conditionally independent given z", func(t *testing.T) {
		// X and Y are independent copies given Z: I(X;Y|Z) = 0 even though
		// marginally X and Y are correlated through Z.
		j := NewJoint3(2, 2, 2)
		for z := 0; z < 2; z++ {
			// Given Z=z, X and Y are iid Bernoulli biased toward z.
			p := 0.9
			if z == 1 {
				p = 0.1
			}
			px := []float64{p, 1 - p}
			for x := 0; x < 2; x++ {
				for y := 0; y < 2; y++ {
					j.P[x][y][z] = 0.5 * px[x] * px[y]
				}
			}
		}
		if mi := j.ConditionalMI(); !xmath.ApproxEqual(mi, 0, 1e-12) {
			t.Errorf("I(X;Y|Z) = %v, want 0", mi)
		}
		// Sanity: marginally X and Y must be dependent.
		xy := NewJoint(2, 2)
		for x := 0; x < 2; x++ {
			for y := 0; y < 2; y++ {
				xy.P[x][y] = j.P[x][y][0] + j.P[x][y][1]
			}
		}
		if mXY := xy.MutualInformation(); mXY <= 0.1 {
			t.Errorf("marginal I(X;Y) = %v, expected visibly positive", mXY)
		}
	})
}

// The entropies below are the independent reference the mutual-information
// tests check against; the simulators and bounds only need the informations.

// Entropy returns H(p) in bits.
func (p PMF) Entropy() float64 {
	var h float64
	for _, v := range p {
		if v > 0 {
			h -= v * math.Log2(v)
		}
	}
	return h
}

// EntropyJoint returns H(X, Y) in bits.
func (j Joint) EntropyJoint() float64 {
	var h float64
	for _, row := range j.P {
		for _, v := range row {
			if v > 0 {
				h -= v * math.Log2(v)
			}
		}
	}
	return h
}

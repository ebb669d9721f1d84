package dmc

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"bicoop/internal/prob"
	"bicoop/internal/xmath"
)

func TestNewValidation(t *testing.T) {
	tests := []struct {
		name string
		w    [][]float64
		ok   bool
	}{
		{name: "empty", w: nil, ok: false},
		{name: "empty row", w: [][]float64{{}}, ok: false},
		{name: "ragged", w: [][]float64{{1}, {0.5, 0.5}}, ok: false},
		{name: "negative", w: [][]float64{{-0.5, 1.5}}, ok: false},
		{name: "not stochastic", w: [][]float64{{0.5, 0.4}}, ok: false},
		{name: "good", w: [][]float64{{0.5, 0.5}, {0.2, 0.8}}, ok: true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			_, err := New(tt.w)
			if tt.ok && err != nil {
				t.Errorf("New = %v, want nil", err)
			}
			if !tt.ok && err == nil {
				t.Error("New = nil, want error")
			}
		})
	}
}

func TestBSCCapacity(t *testing.T) {
	tests := []struct {
		name string
		eps  float64
		want float64
	}{
		{name: "clean", eps: 0, want: 1},
		{name: "typical", eps: 0.11, want: 1 - xmath.EntropyBinary(0.11)},
		{name: "useless", eps: 0.5, want: 0},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			res, err := BSC(tt.eps).Capacity(1e-11, 0)
			if err != nil {
				t.Fatal(err)
			}
			if !xmath.ApproxEqual(res.Capacity, tt.want, 1e-8) {
				t.Errorf("Capacity = %v, want %v", res.Capacity, tt.want)
			}
			// BSC capacity is achieved by the uniform input.
			if !xmath.ApproxEqual(res.Input[0], 0.5, 1e-4) {
				t.Errorf("capacity-achieving input = %v, want uniform", res.Input)
			}
		})
	}
}

// bec is the binary erasure channel with erasure probability eps; output
// symbol 2 is the erasure.
func bec(eps float64) Channel {
	return Channel{W: [][]float64{
		{1 - eps, 0, eps},
		{0, 1 - eps, eps},
	}}
}

// zChannel is the asymmetric Z-channel: input 0 is noiseless, input 1 flips
// to 0 with probability eps.
func zChannel(eps float64) Channel {
	return Channel{W: [][]float64{
		{1, 0},
		{eps, 1 - eps},
	}}
}

func TestBECCapacity(t *testing.T) {
	for _, eps := range []float64{0, 0.25, 0.5, 0.9} {
		res, err := bec(eps).Capacity(1e-11, 0)
		if err != nil {
			t.Fatal(err)
		}
		if !xmath.ApproxEqual(res.Capacity, 1-eps, 1e-8) {
			t.Errorf("BEC(%v) capacity = %v, want %v", eps, res.Capacity, 1-eps)
		}
	}
}

func TestZChannelCapacity(t *testing.T) {
	// Known closed form: C = log2(1 + (1-eps) eps^{eps/(1-eps)}).
	eps := 0.5
	want := math.Log2(1 + (1-eps)*math.Pow(eps, eps/(1-eps)))
	res, err := zChannel(eps).Capacity(1e-12, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !xmath.ApproxEqual(res.Capacity, want, 1e-8) {
		t.Errorf("Z(0.5) capacity = %v, want %v", res.Capacity, want)
	}
	// The optimal input for the Z-channel is biased toward the clean symbol.
	if res.Input[0] <= 0.5 {
		t.Errorf("optimal input %v should favor symbol 0", res.Input)
	}
}

func TestCapacityUpperBoundsMI(t *testing.T) {
	// Capacity must dominate the MI of any particular input distribution.
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 30; trial++ {
		nx, ny := 2+r.Intn(3), 2+r.Intn(3)
		w := make([][]float64, nx)
		for x := range w {
			row := make([]float64, ny)
			var sum float64
			for y := range row {
				row[y] = r.Float64()
				sum += row[y]
			}
			for y := range row {
				row[y] /= sum
			}
			w[x] = row
		}
		ch := Channel{W: w}
		res, err := ch.Capacity(1e-10, 0)
		if err != nil {
			t.Fatal(err)
		}
		for k := 0; k < 10; k++ {
			px := make(prob.PMF, nx)
			var sum float64
			for i := range px {
				px[i] = r.Float64()
				sum += px[i]
			}
			for i := range px {
				px[i] /= sum
			}
			mi, err := ch.MutualInformation(px)
			if err != nil {
				t.Fatal(err)
			}
			if mi > res.Capacity+1e-7 {
				t.Fatalf("MI %v exceeds capacity %v", mi, res.Capacity)
			}
		}
	}
}

// checkStochastic fails unless every row of c is a probability distribution.
func checkStochastic(t *testing.T, c Channel) {
	t.Helper()
	for x, row := range c.W {
		var sum float64
		for y, v := range row {
			if v < 0 {
				t.Fatalf("W[%d][%d] = %v < 0", x, y, v)
			}
			sum += v
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("row %d sums to %v, want 1", x, sum)
		}
	}
}

func TestProduct(t *testing.T) {
	c := Product(BSC(0.1), BSC(0.2))
	if c.Nx() != 4 || c.Ny() != 4 {
		t.Fatalf("product dims = %dx%d, want 4x4", c.Nx(), c.Ny())
	}
	checkStochastic(t, c)
	// Capacity of a product channel is the sum of capacities.
	res, err := c.Capacity(1e-11, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := (1 - xmath.EntropyBinary(0.1)) + (1 - xmath.EntropyBinary(0.2))
	if !xmath.ApproxEqual(res.Capacity, want, 1e-7) {
		t.Errorf("product capacity = %v, want %v", res.Capacity, want)
	}
}

func TestSampleDistribution(t *testing.T) {
	c := BSC(0.25)
	r := rand.New(rand.NewSource(42))
	const n = 200000
	var flips int
	for i := 0; i < n; i++ {
		if c.Sample(0, r) == 1 {
			flips++
		}
	}
	got := float64(flips) / n
	if math.Abs(got-0.25) > 0.005 {
		t.Errorf("empirical flip rate = %v, want 0.25 +- 0.005", got)
	}
}

func TestQuantizeAWGN(t *testing.T) {
	t.Run("stochastic", func(t *testing.T) {
		c, err := QuantizeAWGN(1.0, 16, 0)
		if err != nil {
			t.Fatal(err)
		}
		checkStochastic(t, c)
	})
	t.Run("capacity increases with resolution", func(t *testing.T) {
		prev := -1.0
		for _, nOut := range []int{2, 4, 8, 32} {
			c, err := QuantizeAWGN(0.5, nOut, 0)
			if err != nil {
				t.Fatal(err)
			}
			res, err := c.Capacity(1e-10, 0)
			if err != nil {
				t.Fatal(err)
			}
			if res.Capacity < prev-1e-9 {
				t.Fatalf("capacity decreased with finer quantization: %v -> %v at %d bins", prev, res.Capacity, nOut)
			}
			prev = res.Capacity
		}
	})
	t.Run("low snr approaches gaussian capacity", func(t *testing.T) {
		// At low SNR the BPSK constraint is nearly immaterial, so the finely
		// quantized DMC capacity should approach the real-AWGN capacity
		// (1/2)·log2(1+snr).
		snr := 0.1
		c, err := QuantizeAWGN(snr, 256, 0)
		if err != nil {
			t.Fatal(err)
		}
		res, err := c.Capacity(1e-10, 0)
		if err != nil {
			t.Fatal(err)
		}
		want := 0.5 * xmath.C(snr)
		if res.Capacity > want+1e-9 {
			t.Errorf("quantized capacity %v exceeds Gaussian capacity %v", res.Capacity, want)
		}
		if res.Capacity < 0.9*want {
			t.Errorf("quantized capacity %v too far below Gaussian capacity %v", res.Capacity, want)
		}
	})
	t.Run("too few bins", func(t *testing.T) {
		if _, err := QuantizeAWGN(1, 1, 0); err == nil {
			t.Error("want error for 1 bin")
		}
	})
}

func TestOutputDist(t *testing.T) {
	c := bec(0.25)
	out, err := c.OutputDist(prob.PMF{0.5, 0.5})
	if err != nil {
		t.Fatal(err)
	}
	want := prob.PMF{0.375, 0.375, 0.25}
	for i := range want {
		if !xmath.ApproxEqual(out[i], want[i], 1e-12) {
			t.Errorf("out[%d] = %v, want %v", i, out[i], want[i])
		}
	}
	if _, err := c.OutputDist(prob.PMF{1}); err == nil {
		t.Error("want shape error")
	}
}

func TestMutualInformationSymmetricProperty(t *testing.T) {
	// For the BSC with uniform input, MI(p) is symmetric: I(eps) == I(1-eps).
	prop := func(raw float64) bool {
		eps := math.Mod(math.Abs(raw), 1)
		u := prob.NewUniform(2)
		a, err1 := BSC(eps).MutualInformation(u)
		b, err2 := BSC(1 - eps).MutualInformation(u)
		return err1 == nil && err2 == nil && xmath.ApproxEqual(a, b, 1e-9)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestDataProcessingInequality(t *testing.T) {
	// I(X; Z) <= I(X; Y) for X -> Y -> Z. Cascade BSCs and check via MI.
	r := rand.New(rand.NewSource(11))
	for trial := 0; trial < 50; trial++ {
		e1, e2 := r.Float64()/2, r.Float64()/2
		px := prob.PMF{r.Float64(), 0}
		px[1] = 1 - px[0]
		first := BSC(e1)
		// BSC(e2) after BSC(e1) is the BSC flipping exactly once.
		cascade := BSC(e1*(1-e2) + e2*(1-e1))
		ixy, err := first.MutualInformation(px)
		if err != nil {
			t.Fatal(err)
		}
		ixz, err := cascade.MutualInformation(px)
		if err != nil {
			t.Fatal(err)
		}
		if ixz > ixy+1e-9 {
			t.Fatalf("data processing violated: I(X;Z)=%v > I(X;Y)=%v (e1=%v e2=%v)", ixz, ixy, e1, e2)
		}
	}
}

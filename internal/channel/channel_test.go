package channel

import (
	"math"
	"math/rand"
	"testing"

	"bicoop/internal/xmath"
)

func TestGainsFromDB(t *testing.T) {
	g := GainsFromDB(0, 5, -7)
	if !xmath.ApproxEqual(g.AB, 1, 1e-12) {
		t.Errorf("AB = %v, want 1", g.AB)
	}
	if !xmath.ApproxEqual(g.AR, math.Pow(10, 0.5), 1e-12) {
		t.Errorf("AR = %v, want 10^0.5", g.AR)
	}
	if !xmath.ApproxEqual(g.BR, math.Pow(10, -0.7), 1e-12) {
		t.Errorf("BR = %v, want 10^-0.7", g.BR)
	}
}

func TestGainsValidate(t *testing.T) {
	tests := []struct {
		name string
		g    Gains
		ok   bool
	}{
		{name: "good", g: Gains{AB: 1, AR: 2, BR: 3}, ok: true},
		{name: "zero", g: Gains{AB: 0, AR: 1, BR: 1}, ok: false},
		{name: "negative", g: Gains{AB: 1, AR: -1, BR: 1}, ok: false},
		{name: "inf", g: Gains{AB: 1, AR: math.Inf(1), BR: 1}, ok: false},
		{name: "nan", g: Gains{AB: 1, AR: 1, BR: math.NaN()}, ok: false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			err := tt.g.Validate()
			if tt.ok && err != nil {
				t.Errorf("Validate = %v, want nil", err)
			}
			if !tt.ok && err == nil {
				t.Error("Validate = nil, want error")
			}
		})
	}
}

func TestGainsSwap(t *testing.T) {
	g := Gains{AB: 1, AR: 2, BR: 3}
	s := g.Swap()
	if s.AB != 1 || s.AR != 3 || s.BR != 2 {
		t.Errorf("Swap = %+v", s)
	}
	if s.Swap() != g {
		t.Error("double swap is not identity")
	}
}

func TestLineGeometry(t *testing.T) {
	t.Run("midpoint symmetric", func(t *testing.T) {
		g, err := LineGeometry{RelayPos: 0.5, Exponent: 3}.Gains()
		if err != nil {
			t.Fatal(err)
		}
		if !xmath.ApproxEqual(g.AR, g.BR, 1e-12) {
			t.Errorf("midpoint gains not symmetric: %v vs %v", g.AR, g.BR)
		}
		if !xmath.ApproxEqual(g.AR, 8, 1e-9) {
			t.Errorf("AR = %v, want 0.5^-3 = 8", g.AR)
		}
		if !xmath.ApproxEqual(g.AB, 1, 1e-12) {
			t.Errorf("AB = %v, want 1 (0 dB)", g.AB)
		}
	})
	t.Run("near a", func(t *testing.T) {
		g, err := LineGeometry{RelayPos: 0.2, Exponent: 3}.Gains()
		if err != nil {
			t.Fatal(err)
		}
		if g.AR <= g.BR {
			t.Errorf("relay near a must hear a better: AR=%v BR=%v", g.AR, g.BR)
		}
		// The paper's standing assumption Gab <= Gar, Gbr holds for any
		// interior relay position.
		if g.AB > g.AR || g.AB > g.BR {
			t.Errorf("direct gain should be weakest: %+v", g)
		}
	})
	t.Run("swap symmetry", func(t *testing.T) {
		g1, err := LineGeometry{RelayPos: 0.3, Exponent: 3}.Gains()
		if err != nil {
			t.Fatal(err)
		}
		g2, err := LineGeometry{RelayPos: 0.7, Exponent: 3}.Gains()
		if err != nil {
			t.Fatal(err)
		}
		if !xmath.ApproxEqual(g1.AR, g2.BR, 1e-9) || !xmath.ApproxEqual(g1.BR, g2.AR, 1e-9) {
			t.Error("mirrored positions should swap gains")
		}
	})
	t.Run("defaults", func(t *testing.T) {
		g, err := LineGeometry{RelayPos: 0.5}.Gains() // gamma defaults to 3
		if err != nil {
			t.Fatal(err)
		}
		if !xmath.ApproxEqual(g.AR, 8, 1e-9) {
			t.Errorf("default exponent not 3: AR = %v", g.AR)
		}
	})
	t.Run("reference gain", func(t *testing.T) {
		g, err := LineGeometry{RelayPos: 0.5, Exponent: 2, RefGainAB: 4}.Gains()
		if err != nil {
			t.Fatal(err)
		}
		if !xmath.ApproxEqual(g.AB, 4, 1e-12) || !xmath.ApproxEqual(g.AR, 16, 1e-9) {
			t.Errorf("RefGain scaling wrong: %+v", g)
		}
	})
	t.Run("invalid positions", func(t *testing.T) {
		for _, pos := range []float64{0, 1, -0.5, 1.5} {
			if _, err := (LineGeometry{RelayPos: pos}).Gains(); err == nil {
				t.Errorf("position %v should error", pos)
			}
		}
	})
}

func TestLinkRate(t *testing.T) {
	if got := LinkRate(1, 1); !xmath.ApproxEqual(got, 1, 1e-12) {
		t.Errorf("LinkRate(1,1) = %v, want 1", got)
	}
	if got := LinkRate(3, 1); !xmath.ApproxEqual(got, 2, 1e-12) {
		t.Errorf("LinkRate(3,1) = %v, want 2", got)
	}
}

func TestMACProperties(t *testing.T) {
	p := 10.0
	g := Gains{AB: 0.2, AR: 1, BR: 3.16}
	m := MAC(p, g)
	// Sum constraint is at most the sum of individual rates and at least
	// their max.
	if m.Sum > m.A+m.B+1e-12 {
		t.Errorf("MAC sum %v exceeds A+B = %v", m.Sum, m.A+m.B)
	}
	if m.Sum < math.Max(m.A, m.B)-1e-12 {
		t.Errorf("MAC sum %v below max individual %v", m.Sum, math.Max(m.A, m.B))
	}
	if !xmath.ApproxEqual(m.A, xmath.C(p*g.AR), 1e-12) {
		t.Errorf("A rate mismatch")
	}
}

func TestSIMORate(t *testing.T) {
	// SIMO combining beats each individual link but not their rate sum.
	p, g1, g2 := 2.0, 1.0, 0.5
	s := SIMORate(p, g1, g2)
	if s < xmath.C(p*g1) || s < xmath.C(p*g2) {
		t.Error("SIMO below single link")
	}
	if s > xmath.C(p*g1)+xmath.C(p*g2) {
		t.Error("SIMO above rate sum")
	}
}

func TestFading(t *testing.T) {
	mean := Gains{AB: 1, AR: 2, BR: 0.5}
	f, err := NewFading(mean, rand.New(rand.NewSource(42)))
	if err != nil {
		t.Fatal(err)
	}
	const n = 200000
	var sumAB, sumAR, sumBR float64
	for i := 0; i < n; i++ {
		g := f.Draw()
		if g.AB < 0 || g.AR < 0 || g.BR < 0 {
			t.Fatal("negative instantaneous gain")
		}
		sumAB += g.AB
		sumAR += g.AR
		sumBR += g.BR
	}
	// Rayleigh power has mean 1, so empirical means approach configured.
	if math.Abs(sumAB/n-1) > 0.02 {
		t.Errorf("mean AB = %v, want 1", sumAB/n)
	}
	if math.Abs(sumAR/n-2) > 0.04 {
		t.Errorf("mean AR = %v, want 2", sumAR/n)
	}
	if math.Abs(sumBR/n-0.5) > 0.01 {
		t.Errorf("mean BR = %v, want 0.5", sumBR/n)
	}
}

func TestNewFadingErrors(t *testing.T) {
	if _, err := NewFading(Gains{}, rand.New(rand.NewSource(1))); err == nil {
		t.Error("invalid gains should error")
	}
	if _, err := NewFading(Gains{AB: 1, AR: 1, BR: 1}, nil); err == nil {
		t.Error("nil RNG should error")
	}
}

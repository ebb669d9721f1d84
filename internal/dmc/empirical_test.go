package dmc

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"bicoop/internal/prob"
)

func TestEmpiricalMIMatchesAnalytic(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	tests := []struct {
		name string
		c    Channel
		px   prob.PMF
	}{
		{name: "bsc uniform", c: BSC(0.11), px: prob.NewUniform(2)},
		{name: "bsc skewed", c: BSC(0.2), px: prob.PMF{0.8, 0.2}},
		{name: "bec", c: bec(0.3), px: prob.NewUniform(2)},
		{name: "z channel", c: zChannel(0.4), px: prob.PMF{0.6, 0.4}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			want, err := tt.c.MutualInformation(tt.px)
			if err != nil {
				t.Fatal(err)
			}
			const n = 300000
			got, bias, err := EmpiricalMI(tt.c, tt.px, n, rng)
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(got-bias-want) > 0.01 {
				t.Errorf("empirical %v (bias %v) vs analytic %v", got, bias, want)
			}
		})
	}
}

func TestEmpiricalMIBiasShrinksWithSamples(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	c := BSC(0.25)
	px := prob.NewUniform(2)
	_, biasSmall, err := EmpiricalMI(c, px, 1000, rng)
	if err != nil {
		t.Fatal(err)
	}
	_, biasLarge, err := EmpiricalMI(c, px, 100000, rng)
	if err != nil {
		t.Fatal(err)
	}
	if biasLarge >= biasSmall {
		t.Errorf("bias correction should shrink with n: %v -> %v", biasSmall, biasLarge)
	}
}

func TestEmpiricalMIErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	c := BSC(0.1)
	if _, _, err := EmpiricalMI(c, prob.NewUniform(2), 0, rng); !errors.Is(err, ErrNoSamples) {
		t.Errorf("err = %v, want ErrNoSamples", err)
	}
	if _, _, err := EmpiricalMI(c, prob.NewUniform(2), 10, nil); err == nil {
		t.Error("nil RNG should error")
	}
	if _, _, err := EmpiricalMI(c, prob.NewUniform(3), 10, rng); !errors.Is(err, ErrShape) {
		t.Errorf("err = %v, want ErrShape", err)
	}
}

func TestEmpiricalMINeverNegative(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	// A useless channel: MI is 0, the plug-in estimate is small positive.
	c := BSC(0.5)
	got, bias, err := EmpiricalMI(c, prob.NewUniform(2), 50000, rng)
	if err != nil {
		t.Fatal(err)
	}
	if got < 0 {
		t.Errorf("plug-in MI negative: %v", got)
	}
	if got > 10*bias+1e-3 {
		t.Errorf("useless channel MI %v should be within noise of the bias %v", got, bias)
	}
}

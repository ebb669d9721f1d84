package stats

import (
	"errors"
	"math/rand"
	"testing"
)

func TestWilsonInterval(t *testing.T) {
	tests := []struct {
		name      string
		succ, n   int
		wantLoMax float64 // Lo must be <= this
		wantHiMin float64 // Hi must be >= this
	}{
		{name: "half", succ: 50, n: 100, wantLoMax: 0.5, wantHiMin: 0.5},
		{name: "all success", succ: 30, n: 30, wantLoMax: 1.0, wantHiMin: 0.999},
		{name: "no success", succ: 0, n: 30, wantLoMax: 0.001, wantHiMin: 0.0},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			iv, err := WilsonInterval(tt.succ, tt.n, 0.95)
			if err != nil {
				t.Fatal(err)
			}
			if iv.Lo < 0 || iv.Hi > 1 || iv.Lo > iv.Hi {
				t.Fatalf("malformed interval %+v", iv)
			}
			p := float64(tt.succ) / float64(tt.n)
			if p < iv.Lo || p > iv.Hi {
				t.Errorf("interval %+v excludes the point estimate %v", iv, p)
			}
		})
	}
	t.Run("boundaries stay proper at n=1", func(t *testing.T) {
		iv, err := WilsonInterval(1, 1, 0.99)
		if err != nil {
			t.Fatal(err)
		}
		if iv.Hi != 1 || iv.Lo <= 0 {
			t.Errorf("n=1 interval %+v", iv)
		}
	})
}

func TestWilsonIntervalCoverage(t *testing.T) {
	// Empirical coverage for p = 0.1 with n = 50: Wilson should be close to
	// nominal even for small n and skewed p.
	rng := rand.New(rand.NewSource(3))
	const experiments = 600
	covered := 0
	for e := 0; e < experiments; e++ {
		succ := 0
		for i := 0; i < 50; i++ {
			if rng.Float64() < 0.1 {
				succ++
			}
		}
		iv, err := WilsonInterval(succ, 50, 0.95)
		if err != nil {
			t.Fatal(err)
		}
		if iv.Lo <= 0.1 && 0.1 <= iv.Hi {
			covered++
		}
	}
	rate := float64(covered) / experiments
	if rate < 0.90 || rate > 0.99 {
		t.Errorf("Wilson coverage = %v, want ~0.95", rate)
	}
}

func TestWilsonIntervalErrors(t *testing.T) {
	if _, err := WilsonInterval(1, 0, 0.95); !errors.Is(err, ErrNoData) {
		t.Errorf("err = %v, want ErrNoData", err)
	}
	if _, err := WilsonInterval(-1, 5, 0.95); err == nil {
		t.Error("negative successes should error")
	}
	if _, err := WilsonInterval(6, 5, 0.95); err == nil {
		t.Error("successes > trials should error")
	}
}

func TestIntervalHelpers(t *testing.T) {
	iv := Interval{Lo: 1, Hi: 3}
	if iv.Width() != 2 {
		t.Errorf("Width = %v", iv.Width())
	}
}

func TestZForMonotone(t *testing.T) {
	prev := 0.0
	for _, c := range []float64{0.5, 0.90, 0.95, 0.99, 0.995} {
		z := zFor(c)
		if z < prev {
			t.Fatalf("zFor not monotone at %v", c)
		}
		prev = z
	}
}

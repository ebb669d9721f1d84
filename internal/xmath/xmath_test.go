package xmath

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDBRoundTrip(t *testing.T) {
	tests := []struct {
		name   string
		linear float64
		wantDB float64
	}{
		{name: "unity", linear: 1, wantDB: 0},
		{name: "ten", linear: 10, wantDB: 10},
		{name: "hundred", linear: 100, wantDB: 20},
		{name: "half", linear: 0.5, wantDB: -3.0102999566398120},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := DB(tt.linear); !ApproxEqual(got, tt.wantDB, 1e-12) {
				t.Errorf("DB(%v) = %v, want %v", tt.linear, got, tt.wantDB)
			}
			if got := FromDB(tt.wantDB); !ApproxEqual(got, tt.linear, 1e-12) {
				t.Errorf("FromDB(%v) = %v, want %v", tt.wantDB, got, tt.linear)
			}
		})
	}
}

func TestDBRoundTripProperty(t *testing.T) {
	prop := func(raw float64) bool {
		db := math.Mod(math.Abs(raw), 80) - 40 // keep in a sane range
		return ApproxEqual(DB(FromDB(db)), db, 1e-9)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestC(t *testing.T) {
	tests := []struct {
		name string
		x    float64
		want float64
	}{
		{name: "zero", x: 0, want: 0},
		{name: "one", x: 1, want: 1},
		{name: "three", x: 3, want: 2},
		{name: "negative clamps", x: -0.5, want: 0},
		{name: "snr 15dB", x: FromDB(15), want: math.Log2(1 + 31.622776601683793)},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := C(tt.x); !ApproxEqual(got, tt.want, 1e-12) {
				t.Errorf("C(%v) = %v, want %v", tt.x, got, tt.want)
			}
		})
	}
}

// TestCInvProperty pins that C is invertible on x >= 0: 2^C(x) - 1 = x.
func TestCInvProperty(t *testing.T) {
	prop := func(raw float64) bool {
		x := math.Mod(math.Abs(raw), 1e6)
		return ApproxEqual(math.Exp2(C(x))-1, x, 1e-6)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestCMonotone(t *testing.T) {
	prev := -1.0
	for _, x := range Linspace(0, 100, 1000) {
		cur := C(x)
		if cur < prev {
			t.Fatalf("C not monotone at x=%v: %v < %v", x, cur, prev)
		}
		prev = cur
	}
}

func TestEntropyBinary(t *testing.T) {
	tests := []struct {
		name string
		p    float64
		want float64
	}{
		{name: "zero", p: 0, want: 0},
		{name: "one", p: 1, want: 0},
		{name: "half", p: 0.5, want: 1},
		{name: "tenth", p: 0.1, want: 0.4689955935892812},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := EntropyBinary(tt.p); !ApproxEqual(got, tt.want, 1e-12) {
				t.Errorf("EntropyBinary(%v) = %v, want %v", tt.p, got, tt.want)
			}
		})
	}
}

func TestEntropyBinarySymmetry(t *testing.T) {
	prop := func(raw float64) bool {
		p := math.Mod(math.Abs(raw), 1)
		return ApproxEqual(EntropyBinary(p), EntropyBinary(1-p), 1e-12)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestApproxEqual(t *testing.T) {
	tests := []struct {
		name string
		a, b float64
		tol  float64
		want bool
	}{
		{name: "exact", a: 1, b: 1, tol: 0, want: true},
		{name: "close abs", a: 1, b: 1 + 1e-10, tol: 1e-9, want: true},
		{name: "close rel", a: 1e12, b: 1e12 + 1, tol: 1e-9, want: true},
		{name: "far", a: 1, b: 2, tol: 1e-9, want: false},
		{name: "nan left", a: math.NaN(), b: 1, tol: 1, want: false},
		{name: "nan right", a: 1, b: math.NaN(), tol: 1, want: false},
		{name: "inf equal", a: math.Inf(1), b: math.Inf(1), tol: 0, want: true},
		{name: "inf opposite", a: math.Inf(1), b: math.Inf(-1), tol: 1, want: false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := ApproxEqual(tt.a, tt.b, tt.tol); got != tt.want {
				t.Errorf("ApproxEqual(%v, %v, %v) = %v, want %v", tt.a, tt.b, tt.tol, got, tt.want)
			}
		})
	}
}

func TestClamp(t *testing.T) {
	tests := []struct {
		name      string
		x, lo, hi float64
		want      float64
	}{
		{name: "below", x: -1, lo: 0, hi: 1, want: 0},
		{name: "inside", x: 0.5, lo: 0, hi: 1, want: 0.5},
		{name: "above", x: 2, lo: 0, hi: 1, want: 1},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := Clamp(tt.x, tt.lo, tt.hi); got != tt.want {
				t.Errorf("Clamp(%v, %v, %v) = %v, want %v", tt.x, tt.lo, tt.hi, got, tt.want)
			}
		})
	}
}

func TestLinspace(t *testing.T) {
	t.Run("endpoints and length", func(t *testing.T) {
		xs := Linspace(-3, 7, 11)
		if len(xs) != 11 {
			t.Fatalf("len = %d, want 11", len(xs))
		}
		if xs[0] != -3 || xs[10] != 7 {
			t.Errorf("endpoints = %v, %v; want -3, 7", xs[0], xs[10])
		}
		for i := 1; i < len(xs); i++ {
			if !ApproxEqual(xs[i]-xs[i-1], 1, 1e-12) {
				t.Errorf("step at %d = %v, want 1", i, xs[i]-xs[i-1])
			}
		}
	})
	t.Run("single point", func(t *testing.T) {
		xs := Linspace(4, 9, 1)
		if len(xs) != 1 || xs[0] != 4 {
			t.Errorf("Linspace(4,9,1) = %v, want [4]", xs)
		}
	})
	t.Run("empty", func(t *testing.T) {
		if xs := Linspace(0, 1, 0); xs != nil {
			t.Errorf("Linspace(0,1,0) = %v, want nil", xs)
		}
	})
}

func TestMinMaxSum(t *testing.T) {
	if got := Sum([]float64{1, 2, 3}); got != 6 {
		t.Errorf("Sum = %v, want 6", got)
	}
}

package region

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"bicoop/internal/xmath"
)

func mustRegion(t *testing.T, hs []HalfPlane) Polygon {
	t.Helper()
	pg, err := FromHalfPlanes(hs, 100)
	if err != nil {
		t.Fatalf("FromHalfPlanes: %v", err)
	}
	return pg
}

func TestFromHalfPlanesTriangle(t *testing.T) {
	// Ra + Rb <= 1 in the positive quadrant: right triangle of area 1/2.
	pg := mustRegion(t, []HalfPlane{{A: 1, B: 1, C: 1}})
	if !xmath.ApproxEqual(pg.Area(), 0.5, 1e-9) {
		t.Errorf("area = %v, want 0.5", pg.Area())
	}
	if !pg.Contains(Point{0.25, 0.25}, 0) {
		t.Error("interior point not contained")
	}
	if pg.Contains(Point{0.75, 0.75}, 0) {
		t.Error("exterior point contained")
	}
	// Boundary point.
	if !pg.Contains(Point{0.5, 0.5}, 1e-9) {
		t.Error("boundary point not contained")
	}
}

func TestFromHalfPlanesBox(t *testing.T) {
	pg := mustRegion(t, []HalfPlane{
		{A: 1, B: 0, C: 2},
		{A: 0, B: 1, C: 3},
	})
	if !xmath.ApproxEqual(pg.Area(), 6, 1e-9) {
		t.Errorf("area = %v, want 6", pg.Area())
	}
	if got := pg.MaxSumRate(); !xmath.ApproxEqual(got, 5, 1e-9) {
		t.Errorf("MaxSumRate = %v, want 5", got)
	}
}

func TestFromHalfPlanesEmpty(t *testing.T) {
	_, err := FromHalfPlanes([]HalfPlane{
		{A: 1, B: 0, C: -1}, // Ra <= -1 impossible in the quadrant
	}, 10)
	if err == nil {
		t.Fatal("want ErrEmptyRegion")
	}
}

func TestPentagonMACRegion(t *testing.T) {
	// Classic MAC pentagon: Ra <= 1, Rb <= 1.5, Ra+Rb <= 2.
	pg := mustRegion(t, []HalfPlane{
		{A: 1, B: 0, C: 1},
		{A: 0, B: 1, C: 1.5},
		{A: 1, B: 1, C: 2},
	})
	// Vertices: (0,0), (1,0), (1,1), (0.5,1.5), (0,1.5).
	wantArea := 1.0*1.5 - 0.5*0.5*0.5 // box minus cut corner
	if !xmath.ApproxEqual(pg.Area(), wantArea, 1e-9) {
		t.Errorf("area = %v, want %v", pg.Area(), wantArea)
	}
	if got := pg.MaxSumRate(); !xmath.ApproxEqual(got, 2, 1e-9) {
		t.Errorf("MaxSumRate = %v, want 2", got)
	}
	if len(pg.Vertices()) != 5 {
		t.Errorf("vertex count = %d, want 5 (%v)", len(pg.Vertices()), pg.Vertices())
	}
}

// TestConvexHullSmallScale pins that the hull's collinearity tolerance is a
// distance: a pentagon scaled down to rates of 1e-5 keeps all five
// vertices (an area tolerance of 1e-9 dropped corners whose turn spans
// less than that area), while a point 1e-10 off a long edge still merges.
func TestConvexHullSmallScale(t *testing.T) {
	pentagon := []Point{{0, 0}, {1, 0}, {1, 0.3}, {0.3, 1}, {0, 1}}
	for _, scale := range []float64{1, 1e-2, 1e-5} {
		pts := make([]Point, len(pentagon))
		for i, p := range pentagon {
			pts[i] = Point{Ra: scale * p.Ra, Rb: scale * p.Rb}
		}
		// The corner (0.3, 1) pushed 2e-6 of the scale outward still
		// protrudes far more than 1e-9 at every scale.
		pts[3].Rb += 2e-6 * scale
		if got := len(ConvexHull(pts).Vertices()); got != 5 {
			t.Errorf("scale %g: %d hull vertices, want 5: %v", scale, got, ConvexHull(pts).Vertices())
		}
	}
	nearly := ConvexHull([]Point{{0, 0}, {2, 0}, {1, 1e-10}, {1, 1}})
	if got := len(nearly.Vertices()); got != 3 {
		t.Errorf("a point 1e-10 off an edge kept as a vertex: %v", nearly.Vertices())
	}
}

func TestConvexHull(t *testing.T) {
	t.Run("square with interior points", func(t *testing.T) {
		pts := []Point{{0, 0}, {1, 0}, {1, 1}, {0, 1}, {0.5, 0.5}, {0.2, 0.8}}
		hull := ConvexHull(pts)
		if !xmath.ApproxEqual(hull.Area(), 1, 1e-9) {
			t.Errorf("area = %v, want 1", hull.Area())
		}
		if len(hull.Vertices()) != 4 {
			t.Errorf("vertices = %v, want the 4 corners", hull.Vertices())
		}
	})
	t.Run("collinear", func(t *testing.T) {
		hull := ConvexHull([]Point{{0, 0}, {1, 1}, {2, 2}})
		if hull.Area() != 0 {
			t.Errorf("area = %v, want 0", hull.Area())
		}
		if len(hull.Vertices()) > 2 {
			t.Errorf("collinear hull has %d vertices", len(hull.Vertices()))
		}
	})
	t.Run("single point", func(t *testing.T) {
		hull := ConvexHull([]Point{{3, 4}})
		if hull.IsEmpty() {
			t.Fatal("single-point hull should not be empty")
		}
		if !hull.Contains(Point{3, 4}, 1e-9) {
			t.Error("hull does not contain its own point")
		}
	})
	t.Run("empty", func(t *testing.T) {
		if !ConvexHull(nil).IsEmpty() {
			t.Error("empty hull should be empty")
		}
	})
	t.Run("duplicates", func(t *testing.T) {
		hull := ConvexHull([]Point{{0, 0}, {0, 0}, {1, 0}, {1, 0}, {0, 1}})
		if !xmath.ApproxEqual(hull.Area(), 0.5, 1e-9) {
			t.Errorf("area = %v, want 0.5", hull.Area())
		}
	})
}

func TestContainsDegenerate(t *testing.T) {
	seg := ConvexHull([]Point{{0, 0}, {2, 0}})
	if !seg.Contains(Point{1, 0}, 1e-9) {
		t.Error("segment should contain its midpoint")
	}
	if seg.Contains(Point{1, 0.5}, 1e-9) {
		t.Error("segment should not contain an off-segment point")
	}
	if (Polygon{}).Contains(Point{0, 0}, 1) {
		t.Error("empty polygon contains nothing")
	}
}

func TestSupport(t *testing.T) {
	pg := mustRegion(t, []HalfPlane{
		{A: 1, B: 0, C: 2},
		{A: 0, B: 1, C: 3},
	})
	val, arg := pg.Support(1, 0)
	if !xmath.ApproxEqual(val, 2, 1e-9) {
		t.Errorf("support(1,0) = %v, want 2", val)
	}
	if !xmath.ApproxEqual(arg.Ra, 2, 1e-9) {
		t.Errorf("arg = %+v, want Ra=2", arg)
	}
	val, _ = pg.Support(0, 1)
	if !xmath.ApproxEqual(val, 3, 1e-9) {
		t.Errorf("support(0,1) = %v, want 3", val)
	}
}

func TestSubsetOf(t *testing.T) {
	small := mustRegion(t, []HalfPlane{{A: 1, B: 1, C: 1}})
	big := mustRegion(t, []HalfPlane{{A: 1, B: 1, C: 2}})
	if !small.SubsetOf(big, 1e-9) {
		t.Error("small should be subset of big")
	}
	if big.SubsetOf(small, 1e-9) {
		t.Error("big should not be subset of small")
	}
	if !(Polygon{}).SubsetOf(small, 0) {
		t.Error("empty is subset of anything")
	}
	if small.SubsetOf(Polygon{}, 0) {
		t.Error("nonempty is not subset of empty")
	}
}

func TestRbAt(t *testing.T) {
	pg := mustRegion(t, []HalfPlane{
		{A: 1, B: 0, C: 1},
		{A: 0, B: 1, C: 1.5},
		{A: 1, B: 1, C: 2},
	})
	tests := []struct {
		name   string
		ra     float64
		wantRb float64
		wantOK bool
	}{
		{name: "origin edge", ra: 0, wantRb: 1.5, wantOK: true},
		{name: "pre-corner", ra: 0.5, wantRb: 1.5, wantOK: true},
		{name: "on sum edge", ra: 0.75, wantRb: 1.25, wantOK: true},
		{name: "at max ra", ra: 1, wantRb: 1, wantOK: true},
		{name: "beyond", ra: 1.5, wantOK: false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			rb, ok := pg.RbAt(tt.ra)
			if ok != tt.wantOK {
				t.Fatalf("ok = %v, want %v", ok, tt.wantOK)
			}
			if ok && !xmath.ApproxEqual(rb, tt.wantRb, 1e-9) {
				t.Errorf("RbAt(%v) = %v, want %v", tt.ra, rb, tt.wantRb)
			}
		})
	}
}

func TestUnion(t *testing.T) {
	a := mustRegion(t, []HalfPlane{{A: 1, B: 0, C: 2}, {A: 0, B: 1, C: 1}})
	b := mustRegion(t, []HalfPlane{{A: 1, B: 0, C: 1}, {A: 0, B: 1, C: 2}})
	// The hull of both vertex sets is the time-sharing closure of the two.
	u := ConvexHull(append(a.Vertices(), b.Vertices()...))
	if !a.SubsetOf(u, 1e-9) || !b.SubsetOf(u, 1e-9) {
		t.Error("union must contain both operands")
	}
	// Time-sharing point (1.5, 1.5) lies in the hull of the two boxes.
	if !u.Contains(Point{1.4, 1.4}, 1e-9) {
		t.Error("union hull should contain the time-sharing midpoint")
	}
	// But not the corner (2, 2).
	if u.Contains(Point{2, 2}, 1e-9) {
		t.Error("union hull should not contain (2,2)")
	}
}

func TestParetoFrontier(t *testing.T) {
	pg := mustRegion(t, []HalfPlane{
		{A: 1, B: 0, C: 1},
		{A: 0, B: 1, C: 1.5},
		{A: 1, B: 1, C: 2},
	})
	fr := pg.ParetoFrontier()
	if len(fr) == 0 {
		t.Fatal("empty frontier")
	}
	for _, p := range fr {
		// No frontier point dominated by another.
		for _, q := range fr {
			if q.Ra > p.Ra+1e-9 && q.Rb > p.Rb+1e-9 {
				t.Errorf("frontier point %+v dominated by %+v", p, q)
			}
		}
		// Origin and pure-axis interior points are excluded.
		if p.Ra <= 1e-9 && p.Rb <= 1e-9 {
			t.Errorf("origin in frontier: %+v", p)
		}
	}
	// Sorted by Ra.
	for i := 1; i < len(fr); i++ {
		if fr[i].Ra < fr[i-1].Ra {
			t.Error("frontier not sorted by Ra")
		}
	}
}

func TestScaleAndSwap(t *testing.T) {
	pg := mustRegion(t, []HalfPlane{{A: 1, B: 0, C: 1}, {A: 0, B: 1, C: 2}})
	sw := pg.Swap()
	if v, _ := sw.Support(1, 0); !xmath.ApproxEqual(v, 2, 1e-9) {
		t.Errorf("swap support Ra = %v, want 2", v)
	}
	if v, _ := sw.Support(0, 1); !xmath.ApproxEqual(v, 1, 1e-9) {
		t.Errorf("swap support Rb = %v, want 1", v)
	}
	// Swap twice is identity (as a set).
	if !sw.Swap().SubsetOf(pg, 1e-9) || !pg.SubsetOf(sw.Swap(), 1e-9) {
		t.Error("double swap is not identity")
	}
}

func TestPointsOutside(t *testing.T) {
	inner := mustRegion(t, []HalfPlane{{A: 1, B: 1, C: 1}})
	outerA := mustRegion(t, []HalfPlane{{A: 1, B: 0, C: 0.4}, {A: 0, B: 1, C: 2}})
	outerB := mustRegion(t, []HalfPlane{{A: 1, B: 0, C: 2}, {A: 0, B: 1, C: 0.4}})
	// inner's corner (1, 0) escapes outerA (Ra<=0.4) but lies inside outerB;
	// mid-edge points with Ra and Rb both above 0.4 escape both outers.
	esc := inner.PointsOutside(1e-9, outerA, outerB)
	for _, p := range esc {
		if outerA.Contains(p, 1e-9) || outerB.Contains(p, 1e-9) {
			t.Errorf("escape witness %+v is actually contained", p)
		}
	}
	// The diagonal midpoint (0.5, 0.5) escapes both.
	found := false
	for _, p := range esc {
		if samePoint(p, Point{0.5, 0.5}) {
			found = true
		}
	}
	if !found {
		t.Errorf("expected (0.5,0.5) as escape witness, got %v", esc)
	}
}

func TestRandomizedHullInvariants(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	for trial := 0; trial < 50; trial++ {
		n := 3 + r.Intn(40)
		pts := make([]Point, n)
		for i := range pts {
			pts[i] = Point{r.Float64() * 10, r.Float64() * 10}
		}
		hull := ConvexHull(pts)
		// Every input point is inside the hull.
		for _, p := range pts {
			if !hull.Contains(p, 1e-7) {
				t.Fatalf("trial %d: point %+v outside own hull %v", trial, p, hull.Vertices())
			}
		}
		// Hull vertices are a subset of the inputs.
		for _, v := range hull.Vertices() {
			found := false
			for _, p := range pts {
				if samePoint(v, p) {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("trial %d: hull vertex %+v not an input point", trial, v)
			}
		}
		// Area is invariant under a<->b swap.
		if !xmath.ApproxEqual(hull.Area(), hull.Swap().Area(), 1e-6) {
			t.Fatalf("trial %d: swap changed area", trial)
		}
	}
}

func TestClippingAgainstMonteCarloArea(t *testing.T) {
	// Estimate the clipped area by Monte Carlo and compare to shoelace.
	hs := []HalfPlane{
		{A: 2, B: 1, C: 3},
		{A: 1, B: 3, C: 4},
		{A: 1, B: 0, C: 1.2},
	}
	pg, err := FromHalfPlanes(hs, 10)
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(17))
	const n = 400000
	in := 0
	for i := 0; i < n; i++ {
		p := Point{r.Float64() * 2, r.Float64() * 2}
		ok := true
		for _, h := range hs {
			if h.Eval(p) > 0 {
				ok = false
				break
			}
		}
		if ok {
			in++
		}
	}
	mcArea := 4 * float64(in) / n
	if math.Abs(mcArea-pg.Area()) > 0.02 {
		t.Errorf("Monte Carlo area %v vs shoelace %v", mcArea, pg.Area())
	}
}

func TestConvexHullIdempotentProperty(t *testing.T) {
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 3 + r.Intn(25)
		pts := make([]Point, n)
		for i := range pts {
			pts[i] = Point{r.Float64() * 5, r.Float64() * 5}
		}
		h1 := ConvexHull(pts)
		h2 := ConvexHull(h1.Vertices())
		return h1.SubsetOf(h2, 1e-9) && h2.SubsetOf(h1, 1e-9) &&
			xmath.ApproxEqual(h1.Area(), h2.Area(), 1e-9)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

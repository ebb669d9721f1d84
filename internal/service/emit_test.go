package service

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"bicoop"
)

// The fmt formats the typed row writers replace, kept as the reference
// their output must match byte for byte.
const (
	fmtSweepRow         = "%d,%g,%g,%g,%g,%s,%s,%.12g,%.12g,%.12g\n"
	fmtRegionRow        = "%d,%d,%s,%s,%d,%.12g,%.12g\n"
	fmtCampaignFloatRow = "%d,%s,%s,%.12g\n"
	fmtCampaignIntRow   = "%d,%s,%s,%d\n"
)

// specialFloats are the values where %g and strconv are easiest to get
// out of step: signed zero, infinities, NaN, subnormals, the switch to
// exponent notation at 1e21, and the float64 extremes.
var specialFloats = []float64{
	0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(),
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 2.2250738585072009e-308,
	1e21, 1e20, 999999999999999999999, 1e-5, 1e-4, 123456789012.5, 0.1, 1.0 / 3,
	math.MaxFloat64, -math.MaxFloat64,
}

// rowRand draws row fields for the byte-identity test.
type rowRand struct{ *rand.Rand }

// float returns a special value, a random bit pattern (which covers NaN
// payloads and subnormals), a rate-scale value, or a wide-exponent value.
func (r rowRand) float() float64 {
	switch r.Intn(4) {
	case 0:
		return specialFloats[r.Intn(len(specialFloats))]
	case 1:
		return math.Float64frombits(r.Uint64())
	case 2:
		return r.Float64() * 10
	default:
		return r.NormFloat64() * math.Pow(10, float64(r.Intn(61)-30))
	}
}

func (r rowRand) int() int {
	switch r.Intn(3) {
	case 0:
		return r.Intn(100000)
	case 1:
		return []int{0, -1, math.MaxInt, math.MinInt}[r.Intn(4)]
	default:
		return int(r.Uint64())
	}
}

func (r rowRand) str() string {
	return []string{"", "trials", "mean_opt_sum_rate", "MABC", "0", "inner"}[r.Intn(6)]
}

func (r rowRand) protocol() bicoop.Protocol {
	ps := bicoop.AllProtocols()
	return ps[r.Intn(len(ps))]
}

func (r rowRand) bound() bicoop.Bound {
	return []bicoop.Bound{bicoop.Inner, bicoop.Outer}[r.Intn(2)]
}

// fmtSweep formats a sweep point with the fmt reference format.
func fmtSweep(pt bicoop.SweepPoint) string {
	return fmt.Sprintf(fmtSweepRow,
		pt.Index, pt.PowerDB, pt.Scenario.GabDB, pt.Scenario.GarDB, pt.Scenario.GbrDB,
		pt.Protocol, pt.Bound, pt.Result.Point.Ra, pt.Result.Point.Rb, pt.Result.Sum)
}

// scenarioFields are the four sweep row values the log formats once per
// change: the power and the three gains.
func scenarioFields(pt *bicoop.SweepPoint) [4]*float64 {
	return [4]*float64{&pt.PowerDB, &pt.Scenario.GabDB, &pt.Scenario.GarDB, &pt.Scenario.GbrDB}
}

// TestRowsMatchFmt pins every typed row writer byte-identical to fmt.Sprintf
// of the format it replaces, on 100k seeded random rows per row kind. Sweep
// rows are drawn both with a fresh scenario each and as a walk that keeps
// the scenario or changes one field, so the reused scenario bytes are
// checked as often as the freshly formatted ones, and then step through
// the special-value transitions field by field.
func TestRowsMatchFmt(t *testing.T) {
	const rows = 100000
	var out bytes.Buffer
	log := NewResultLog(&out)
	check := func(kind string, i int, write func() error, want string) {
		t.Helper()
		out.Reset()
		if err := write(); err != nil {
			t.Fatal(err)
		}
		if err := log.Flush(); err != nil {
			t.Fatal(err)
		}
		if got := out.String(); got != want {
			t.Fatalf("%s row %d: got %q, want %q", kind, i, got, want)
		}
	}
	r := rowRand{rand.New(rand.NewSource(22))}
	for i := 0; i < rows; i++ {
		var pt bicoop.SweepPoint
		pt.Index = r.int()
		pt.PowerDB = r.float()
		pt.Scenario.GabDB, pt.Scenario.GarDB, pt.Scenario.GbrDB = r.float(), r.float(), r.float()
		pt.Protocol, pt.Bound = r.protocol(), r.bound()
		pt.Result.Point.Ra, pt.Result.Point.Rb, pt.Result.Sum = r.float(), r.float(), r.float()
		check("sweep", i, func() error { return log.sweepRow(pt) }, fmtSweep(pt))
	}
	for i := 0; i < rows; i++ {
		var pt bicoop.RegionBatchPoint
		pt.ScenarioIdx, pt.CurveIdx = r.int(), r.int()
		pt.Curve.Protocol, pt.Curve.Bound = r.protocol(), r.bound()
		v, p := r.int(), bicoop.RatePoint{Ra: r.float(), Rb: r.float()}
		check("region", i, func() error { return log.regionRow(pt, v, p) }, fmt.Sprintf(fmtRegionRow,
			pt.ScenarioIdx, pt.CurveIdx, pt.Curve.Protocol, pt.Curve.Bound, v, p.Ra, p.Rb))
	}
	for i := 0; i < rows; i++ {
		run, metric, label, v := r.int(), r.str(), r.str(), r.float()
		check("campaign-float", i, func() error { return log.campaignFloatRow(run, metric, label, v) },
			fmt.Sprintf(fmtCampaignFloatRow, run, metric, label, v))
	}
	for i := 0; i < rows; i++ {
		run, metric, label, v := r.int(), r.str(), r.str(), r.int()
		check("campaign-int", i, func() error { return log.campaignIntRow(run, metric, label, v) },
			fmt.Sprintf(fmtCampaignIntRow, run, metric, label, v))
	}
	var walk bicoop.SweepPoint
	for i := 0; i < rows; i++ {
		switch fields := scenarioFields(&walk); r.Intn(10) {
		case 0, 1, 2, 3, 4, 5: // same scenario: a run of rows
		case 6, 7, 8:
			*fields[r.Intn(len(fields))] = r.float()
		default:
			for _, f := range fields {
				*f = r.float()
			}
		}
		walk.Index, walk.Protocol, walk.Bound = r.int(), r.protocol(), r.bound()
		walk.Result.Point.Ra, walk.Result.Point.Rb, walk.Result.Sum = r.float(), r.float(), r.float()
		check("sweep-walk", i, func() error { return log.sweepRow(walk) }, fmtSweep(walk))
	}
	// Each scenario field, one at a time, through the transitions where
	// reused bytes are most likely to go wrong: +0 and -0 compare equal but
	// print differently, NaN equals nothing (also with another payload),
	// and the infinities — each held for a run of one to three rows.
	otherNaN := math.Float64frombits(math.Float64bits(math.NaN()) ^ 1)
	steps := []float64{0, math.Copysign(0, -1), math.Copysign(0, -1), 0, math.NaN(), math.NaN(), otherNaN,
		math.Inf(1), math.Inf(-1), math.Inf(-1), math.Inf(1), 1.5, 1.5, 0}
	step := bicoop.SweepPoint{PowerDB: 17.5, Scenario: testScenario, Bound: bicoop.Inner}
	for f := range scenarioFields(&step) {
		for k, v := range steps {
			*scenarioFields(&step)[f] = v
			for run := 0; run <= k%3; run++ {
				step.Index++
				step.Protocol, step.Result.Sum = r.protocol(), r.float()
				check("sweep-transition", step.Index, func() error { return log.sweepRow(step) }, fmtSweep(step))
			}
		}
	}
	// Every special value in every float field kind, not only by chance.
	for i, x := range specialFloats {
		pt := bicoop.SweepPoint{Index: i, PowerDB: x, Protocol: bicoop.HBC, Bound: bicoop.Outer}
		pt.Scenario.GabDB = x
		pt.Result.Point.Ra, pt.Result.Sum = x, x
		check("sweep-special", i, func() error { return log.sweepRow(pt) }, fmtSweep(pt))
	}
}

// TestSweepRowAfterResume pins the first row a resumed log writes: the log
// reopened from a checkpoint has no scenario bytes from the run before it,
// whatever that run wrote last, so a row at a saved scenario and one at a
// scenario written only past the checkpoint both match fmt.
func TestSweepRowAfterResume(t *testing.T) {
	dir := t.TempDir()
	csvPath, ckPath := filepath.Join(dir, "results.csv"), filepath.Join(dir, "ck.json")
	pt := bicoop.SweepPoint{PowerDB: 3, Scenario: testScenario, Protocol: bicoop.TDBC, Bound: bicoop.Outer}
	var want bytes.Buffer
	write := func(log *ResultLog, keep bool) {
		t.Helper()
		pt.Index++
		pt.Result.Sum = float64(pt.Index) / 3
		if err := log.sweepRow(pt); err != nil {
			t.Fatal(err)
		}
		if keep {
			want.WriteString(fmtSweep(pt))
		}
	}
	log, err := OpenResultLog(csvPath, ckPath)
	if err != nil {
		t.Fatal(err)
	}
	write(log, true)
	write(log, true)
	if err := log.Save(2); err != nil {
		t.Fatal(err)
	}
	saved := pt
	pt.PowerDB = -0.5
	write(log, false) // past the checkpoint: truncated by the resume
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	for _, scenario := range []float64{-0.5, saved.PowerDB} {
		if log, err = OpenResultLog(csvPath, ckPath); err != nil {
			t.Fatal(err)
		}
		if log.Watermark() != 2 {
			t.Fatalf("resumed watermark = %d, want 2", log.Watermark())
		}
		pt.Index, pt.PowerDB = saved.Index, scenario
		write(log, true)
		if err := log.Close(); err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(csvPath)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != want.String() {
			t.Fatalf("resumed at power %g: file\n%s\nwant\n%s", scenario, got, want.String())
		}
		want.Truncate(want.Len() - len(fmtSweep(pt)))
	}
}

// TestSweepRowAllocs pins the row path allocation-free: a sweep job writes
// one row per grid point.
func TestSweepRowAllocs(t *testing.T) {
	log := NewResultLog(io.Discard)
	pt := bicoop.SweepPoint{Index: 12345, PowerDB: 17.5, Protocol: bicoop.TDBC, Bound: bicoop.Inner}
	pt.Scenario = testScenario
	pt.Result.Point.Ra, pt.Result.Point.Rb, pt.Result.Sum = 1.0/3, 2.0/7, 1.0/3+2.0/7
	if n := testing.AllocsPerRun(1000, func() {
		if err := log.sweepRow(pt); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("writing one sweep row allocates %v times, want 0", n)
	}
}

// Package stats provides the Wilson score intervals used to report the
// success/outage proportions the Monte Carlo simulators estimate.
package stats

import (
	"errors"
	"math"
)

// ErrNoData is returned when an interval is requested with no trials.
var ErrNoData = errors.New("stats: no samples")

// Interval is a two-sided confidence interval.
type Interval struct {
	Lo, Hi float64
}

// Width returns Hi - Lo.
func (iv Interval) Width() float64 { return iv.Hi - iv.Lo }

// zFor maps a confidence level to the two-sided normal quantile. Levels are
// snapped to the nearest supported table entry; the Monte Carlo consumers
// only ever ask for 90/95/99%.
func zFor(confidence float64) float64 {
	switch {
	case confidence >= 0.995:
		return 2.807
	case confidence >= 0.99:
		return 2.576
	case confidence >= 0.95:
		return 1.960
	case confidence >= 0.90:
		return 1.645
	default:
		return 1.282 // 80%
	}
}

// WilsonInterval returns the Wilson score interval for a binomial
// proportion with `successes` out of `trials`, which behaves sanely at the
// 0 and 1 boundaries where the simulators often live (success ≈ 1 below a
// bound, ≈ 0 above it).
func WilsonInterval(successes, trials int, confidence float64) (Interval, error) {
	if trials <= 0 {
		return Interval{}, ErrNoData
	}
	if successes < 0 || successes > trials {
		return Interval{}, errors.New("stats: successes out of range")
	}
	z := zFor(confidence)
	n := float64(trials)
	p := float64(successes) / n
	z2 := z * z
	denom := 1 + z2/n
	center := (p + z2/(2*n)) / denom
	half := z / denom * math.Sqrt(p*(1-p)/n+z2/(4*n*n))
	lo := math.Max(0, center-half)
	hi := math.Min(1, center+half)
	return Interval{Lo: lo, Hi: hi}, nil
}

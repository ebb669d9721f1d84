// Quickstart: evaluate the paper's protocol bounds for one scenario.
//
// Two terminals a and b exchange messages through a relay r over a
// half-duplex Gaussian channel (unit noise, full CSI). We pick the paper's
// Fig 4 evaluation point — a weak direct link (Gab = -7 dB) and a relay
// that hears b much better than a (Gar = 0 dB, Gbr = 5 dB) — and ask, for
// every protocol: what is the best total exchange rate, how should the
// phase durations be split, and is a given target rate pair achievable?
//
// Run with: go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"

	"bicoop"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("quickstart: ")

	// One Engine for the whole session: its evaluator pool caches the
	// compiled constraint structure per (protocol, bound), so every call
	// below after the first hits a warm fast path.
	eng := bicoop.NewEngine()

	s := bicoop.Scenario{PowerDB: 10, GabDB: -7, GarDB: 0, GbrDB: 5}
	fmt.Printf("scenario: P = %.0f dB, Gab = %.0f dB, Gar = %.0f dB, Gbr = %.0f dB\n\n",
		s.PowerDB, s.GabDB, s.GarDB, s.GbrDB)

	// 1. Optimal sum rates with LP-optimized phase durations (Fig 3's
	//    quantity at a single point).
	fmt.Println("optimal achievable sum rates:")
	for _, p := range bicoop.AllProtocols() {
		res, err := eng.SumRate(p, bicoop.Inner, s)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-7s %6.4f bits/use  at (Ra, Rb) = (%.4f, %.4f), durations %v\n",
			p, res.Sum, res.Point.Ra, res.Point.Rb, compact(res.Durations))
	}

	// 2. Full rate region of the best protocol (one curve of Fig 4),
	//    refined edge by edge to its exact vertices.
	region, err := eng.Region(context.Background(), bicoop.HBC, bicoop.Inner, s)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nHBC achievable region: maxRa = %.4f, maxRb = %.4f, area = %.4f\n",
		region.MaxRa(), region.MaxRb(), region.Area())

	// 3. Feasibility of a concrete operating point: can the terminals
	//    exchange 1.5 bits/use each way?
	target := bicoop.RatePoint{Ra: 1.5, Rb: 1.5}
	fmt.Printf("\ncan each terminal send %.1f bits/use?\n", target.Ra)
	for _, p := range bicoop.AllProtocols() {
		ok, err := eng.Feasible(p, bicoop.Inner, s, target)
		if err != nil {
			log.Fatal(err)
		}
		verdict := "no"
		if ok {
			verdict = "yes"
		}
		fmt.Printf("  %-7s %s\n", p, verdict)
	}

	// 4. The paper's surprise: HBC rate pairs provably beyond both the
	//    MABC and TDBC outer bounds.
	esc, err := bicoop.HBCBeyondOuterBounds(s)
	if err != nil {
		log.Fatal(err)
	}
	if len(esc) > 0 {
		fmt.Printf("\nHBC achieves %d points beyond BOTH the MABC and TDBC outer bounds, e.g. (%.4f, %.4f)\n",
			len(esc), esc[0].Ra, esc[0].Rb)
	}
}

func compact(ds []float64) []string {
	out := make([]string, len(ds))
	for i, d := range ds {
		out[i] = fmt.Sprintf("%.2f", d)
	}
	return out
}

package main

import (
	"math"
	"testing"

	"impatience/internal/demand"
	"impatience/internal/serve"
	"impatience/internal/synth"
)

// TestObserveBodyRoundTrip keeps the load generator inside the daemon's
// wire grammar: every rendered window decodes to exactly rate·window per
// item, and the counts sum to the total ageload reports as folded.
func TestObserveBodyRoundTrip(t *testing.T) {
	base := demand.Pareto(1000, 1, 100000)
	sched, err := synth.FlashCrowd(base, 1.5, 6, 50)
	if err != nil {
		t.Fatal(err)
	}
	pops := []demand.Popularity{base, demand.Pareto(7, 2.5, 3), demand.Uniform(50, 1e-3)}
	for _, shift := range sched {
		pops = append(pops, shift.Pop)
	}
	for _, pop := range pops {
		for _, window := range []float64{0.5, 1, 1e-05, 7.25} {
			body, total := observeBody(pop, window)
			w, counts, err := serve.ParseObserve(body, pop.Items())
			if err != nil {
				t.Fatalf("%d items, window %g: %v", pop.Items(), window, err)
			}
			if w != window {
				t.Fatalf("window decoded as %g, rendered %g", w, window)
			}
			var sum float64
			for i, c := range counts {
				if want := math.Max(pop.Rates[i], 0) * window; c != want {
					t.Fatalf("%d items, window %g: count[%d]=%g, want rate·window=%g", pop.Items(), window, i, c, want)
				}
				sum += c
			}
			if sum != total {
				t.Fatalf("%d items, window %g: counts sum to %g, observeBody reported %g", pop.Items(), window, sum, total)
			}
		}
	}
}

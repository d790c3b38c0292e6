package main

import (
	"math"
	"strings"
	"testing"
	"time"

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

// TestReportGate pins the end-of-run verdict, including sub-millisecond
// p99 ceilings, which must compare at full resolution.
func TestReportGate(t *testing.T) {
	ok := report{Queries: 40, QueriesPerSec: 200, Resolves: 3, QueryP99Ms: 0.6}
	cases := []struct {
		name   string
		rep    report
		maxP99 time.Duration
		fail   string // substring of the error, "" = pass
	}{
		{"no ceiling", ok, 0, ""},
		{"under ceiling", ok, 100 * time.Millisecond, ""},
		{"sub-ms ceiling above p99", ok, 1500 * time.Microsecond, ""},
		{"sub-ms ceiling at p99", ok, 600 * time.Microsecond, ""},
		{"sub-ms ceiling below p99", ok, 500 * time.Microsecond, "p99"},
		{"ceiling between whole ms", report{Queries: 40, QueriesPerSec: 200, Resolves: 3, QueryP99Ms: 1.2}, 1500 * time.Microsecond, ""},
		{"p99 over 1.5 ms ceiling", report{Queries: 40, QueriesPerSec: 200, Resolves: 3, QueryP99Ms: 1.7}, 1500 * time.Microsecond, "p99"},
		{"no queries", report{Resolves: 3}, 0, "no allocation queries"},
		{"no resolves", report{Queries: 40, QueriesPerSec: 200}, 0, "never re-solved"},
	}
	for _, c := range cases {
		err := c.rep.gate(c.maxP99)
		switch {
		case c.fail == "" && err != nil:
			t.Errorf("%s: unexpected failure: %v", c.name, err)
		case c.fail != "" && (err == nil || !strings.Contains(err.Error(), c.fail)):
			t.Errorf("%s: got %v, want an error mentioning %q", c.name, err, c.fail)
		}
	}
}

// Conference: trace-driven replication on a synthetic Infocom'06-like
// contact trace (heterogeneous sociability, day/night cycles, bursty
// inter-contacts — see internal/synth and DESIGN.md for the substitution
// rationale).
//
// Attendees share session recordings; interest decays with a one-hour
// deadline. The program pits QCR — which only sees local query counters —
// against fixed allocations installed by an oracle with a perfect control
// channel, including the submodular-greedy OPT computed from the trace's
// measured pairwise rates.
//
// Run with: go run ./examples/conference
package main

import (
	"fmt"
	"math/rand/v2"
	"os"

	"impatience"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "conference:", err)
		os.Exit(1)
	}
}

func run() error {
	const (
		items = 50
		rho   = 5
		tau   = 60.0 // minutes
	)
	cfg := impatience.DefaultConference()
	rng := rand.New(rand.NewPCG(7, 77))
	tr, err := impatience.ConferenceTrace(cfg, rng)
	if err != nil {
		return err
	}
	rates := impatience.EmpiricalRates(tr)
	fmt.Printf("conference trace: %d nodes, %.0f days, %d contacts, mean pair rate %.5f/min\n\n",
		tr.Nodes, tr.Duration/1440, len(tr.Contacts), rates.Mean())

	u := impatience.Step{Tau: tau}
	pop := impatience.ParetoPopularity(items, 1, 2)

	// Heterogeneous OPT from the measured rates (memoryless approximation,
	// exactly like the paper's Section 6.3).
	ids := make([]int, tr.Nodes)
	for i := range ids {
		ids[i] = i
	}
	het := impatience.Hetero{
		Utility: u, Pop: pop,
		Profile: uniformProfile(items, tr.Nodes),
		Rates:   rates, Clients: ids, Servers: ids,
	}
	optPlacement, err := het.GreedySubmodular(rho)
	if err != nil {
		return err
	}

	type entry struct {
		name   string
		policy impatience.ReplicationPolicy
		counts impatience.AllocationCounts
		place  *impatience.Placement
	}
	entries := []entry{
		{name: "OPT", policy: impatience.StaticPolicy{Label: "opt"}, place: optPlacement},
		{name: "UNI", policy: impatience.StaticPolicy{Label: "uni"}, counts: impatience.UniformAllocation(items, tr.Nodes, rho)},
		{name: "SQRT", policy: impatience.StaticPolicy{Label: "sqrt"}, counts: impatience.SqrtAllocation(pop.Rates, tr.Nodes, rho)},
		{name: "PROP", policy: impatience.StaticPolicy{Label: "prop"}, counts: impatience.PropAllocation(pop.Rates, tr.Nodes, rho)},
		{name: "DOM", policy: impatience.StaticPolicy{Label: "dom"}, counts: impatience.DomAllocation(pop.Rates, tr.Nodes, rho)},
		{name: "QCR", policy: &impatience.QCR{
			Reaction:       impatience.TunedReaction(u, rates.Mean(), tr.Nodes, 0.1),
			MandateRouting: true,
			StrictSource:   true,
			MaxMandates:    5, Seed: 3,
		}},
	}

	var uOpt float64
	fmt.Printf("%-6s %16s %12s\n", "scheme", "utility (gain/min)", "loss vs OPT")
	for _, e := range entries {
		cfg := impatience.SimConfig{
			Rho: rho, Utility: u, Pop: pop, Contacts: tr.Source(), Policy: e.policy, Seed: 11,
		}
		switch {
		case e.place != nil:
			cfg.InitialPlacement = e.place
			cfg.NoSticky = true
		case e.counts != nil:
			cfg.Initial = e.counts
			cfg.NoSticky = true
		}
		res, err := impatience.Simulate(cfg)
		if err != nil {
			return err
		}
		if e.name == "OPT" {
			uOpt = res.AvgUtilityRate
			fmt.Printf("%-6s %16.4f %12s\n", e.name, res.AvgUtilityRate, "—")
			continue
		}
		fmt.Printf("%-6s %16.4f %11.1f%%\n", e.name, res.AvgUtilityRate,
			100*(res.AvgUtilityRate-uOpt)/abs(uOpt))
	}
	fmt.Println("\nQCR uses only local query counters; every competitor needed a perfect control channel.")
	return nil
}

func uniformProfile(items, nodes int) impatience.Profile {
	p := impatience.Profile{P: make([][]float64, items)}
	for i := range p.P {
		row := make([]float64, nodes)
		for n := range row {
			row[n] = 1 / float64(nodes)
		}
		p.P[i] = row
	}
	return p
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}

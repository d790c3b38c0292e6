// Quickstart: the smallest end-to-end use of the impatience library.
//
// We model a population of 30 phones sharing a 20-episode catalog over
// opportunistic Bluetooth contacts. Users lose interest exponentially
// (10% per minute of waiting). The program:
//
//  1. computes the optimal cache allocation for that impatience,
//  2. simulates Query Counting Replication tuned to it, and
//  3. compares QCR's realized utility against the optimum and against
//     the uniform allocation.
//
// Run with: go run ./examples/quickstart
package main

import (
	"fmt"
	"math/rand/v2"
	"os"

	"impatience"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "quickstart:", err)
		os.Exit(1)
	}
}

func run() error {
	const (
		nodes    = 30
		items    = 20
		rho      = 3    // cache slots per phone
		mu       = 0.05 // pairwise meetings per minute
		duration = 6000 // minutes simulated
	)
	u := impatience.Exponential{Nu: 0.1}
	pop := impatience.ParetoPopularity(items, 1, 2)

	// Theory: the optimal allocation and its social welfare.
	hom := impatience.Homogeneous{
		Utility: u, Pop: pop, Mu: mu,
		Servers: nodes, Clients: nodes, PureP2P: true,
	}
	opt, err := hom.GreedyOptimal(rho)
	if err != nil {
		return err
	}
	fmt.Printf("optimal allocation (replicas per item): %v\n", opt)
	fmt.Printf("optimal welfare: %.4f gain/min\n\n", hom.WelfareCounts(opt))

	// Practice: simulate QCR against the uniform baseline on one trace.
	rng := rand.New(rand.NewPCG(42, 43))
	tr, err := impatience.GenerateHomogeneousTrace(nodes, mu, duration, rng)
	if err != nil {
		return err
	}

	qcr := &impatience.QCR{
		Reaction:       impatience.TunedReaction(u, mu, nodes, 0.1),
		MandateRouting: true,
		StrictSource:   true,
		MaxMandates:    5,
		Seed:           7,
	}
	resQCR, err := impatience.Simulate(impatience.SimConfig{
		Rho: rho, Utility: u, Pop: pop, Contacts: tr.Source(), Policy: qcr, Seed: 8,
	})
	if err != nil {
		return err
	}

	resUNI, err := impatience.Simulate(impatience.SimConfig{
		Rho: rho, Utility: u, Pop: pop, Contacts: tr.Source(),
		Policy:   impatience.StaticPolicy{Label: "uni"},
		Initial:  impatience.UniformAllocation(items, nodes, rho),
		NoSticky: true, Seed: 9,
	})
	if err != nil {
		return err
	}

	fmt.Printf("QCR (local knowledge only): %.4f gain/min\n", resQCR.AvgUtilityRate)
	fmt.Printf("UNI (fixed uniform cache):  %.4f gain/min\n", resUNI.AvgUtilityRate)
	fmt.Printf("\nQCR made %d replicas over %d meetings and ended with allocation %v\n",
		resQCR.ReplicasMade, resQCR.Meetings, resQCR.FinalCounts)
	return nil
}

// Kiosks: the dedicated-node case (C ∩ S = ∅) of the paper — a small set
// of infrastructure caches (kiosks, throwboxes, buses) serves a larger
// population of requesters, as in KioskNet-style rural connectivity.
//
// Because requesters hold no cache, a request can never be fulfilled
// immediately, which admits the delay-utilities with unbounded reward at
// zero delay: here the negative-logarithm h(t) = −ln t (time-critical
// information). Its optimal allocation is exactly proportional to demand
// and its Property-2 reaction function is constant — the classical
// "one replica per fulfillment" passive replication becomes optimal.
//
// Run with: go run ./examples/kiosks
package main

import (
	"fmt"
	"math/rand/v2"
	"os"

	"impatience"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "kiosks:", err)
		os.Exit(1)
	}
}

func run() error {
	const (
		kiosks   = 10 // cache-carrying nodes
		people   = 40 // client-only requesters
		items    = 15
		rho      = 3
		mu       = 0.04
		duration = 10000
	)
	nodes := kiosks + people
	u := impatience.NegLog{}
	pop := impatience.ParetoPopularity(items, 1, 2)

	// Theory: the dedicated-node optimum is proportional to demand.
	hom := impatience.Homogeneous{
		Utility: u, Pop: pop, Mu: mu, Servers: kiosks, Clients: people,
	}
	opt, err := hom.GreedyOptimal(rho)
	if err != nil {
		return err
	}
	relaxed, err := hom.RelaxedOptimal(rho)
	if err != nil {
		return err
	}
	fmt.Println("negative-log impatience: optimal kiosk allocation is proportional to demand")
	fmt.Printf("%-6s %10s %12s %14s\n", "item", "demand", "x* (relaxed)", "x* (integer)")
	for i := 0; i < 6; i++ {
		fmt.Printf("%-6d %10.4f %12.2f %14d\n", i, pop.Rates[i], relaxed[i], opt[i])
	}

	// Practice: QCR with the constant reaction ψ ≡ const reaches it.
	tr, err := impatience.GenerateHomogeneousTrace(nodes, mu, duration,
		rand.New(rand.NewPCG(3, 33)))
	if err != nil {
		return err
	}
	qcr := &impatience.QCR{
		Reaction:       impatience.TunedReaction(u, mu, kiosks, 0.2),
		MandateRouting: true,
		StrictSource:   true,
		MaxMandates:    5,
		Seed:           4,
	}
	res, err := impatience.Simulate(impatience.SimConfig{
		Rho: rho, Utility: u, Pop: pop, Contacts: tr.Source(), Policy: qcr,
		ServerCount: kiosks, Seed: 5,
	})
	if err != nil {
		return err
	}
	fmt.Printf("\nafter %d minutes of QCR (clients route mandates to kiosks):\n", duration)
	fmt.Printf("final kiosk allocation: %v\n", res.FinalCounts)
	fmt.Printf("target (integer optimum): %v\n", opt)
	fmt.Printf("realized utility: %.4f vs analytic optimum %.4f gain/min\n",
		res.AvgUtilityRate, hom.WelfareCounts(opt))
	return nil
}

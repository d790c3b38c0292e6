// VideoForU: the paper's motivating scenario (Section 1), scaled to run
// in seconds.
//
// A startup distributes 15-minute video episodes with embedded ads to
// subscribers' phones over opportunistic contacts. Each phone dedicates a
// 3-episode cache. Revenue accrues every time a commercial is watched; a
// user who has waited too long no longer watches, so the delay-utility is
// the advertising-revenue step function h(t) = 1{t ≤ τ}.
//
// The program compares the ad revenue per hour achieved by:
//   - passive proportional replication (one replica per fulfillment),
//   - the square-root allocation (classical path replication target),
//   - QCR tuned to the subscribers' measured impatience (Property 2),
//   - the clairvoyant optimal allocation.
//
// Run with: go run ./examples/videoforu
package main

import (
	"fmt"
	"math/rand/v2"
	"os"

	"impatience"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "videoforu:", err)
		os.Exit(1)
	}
}

func run() error {
	const (
		subscribers = 60   // phones in this neighborhood
		episodes    = 40   // current catalog
		cacheSlots  = 3    // per-phone cache dedicated to VideoForU
		mu          = 0.03 // pairwise meetings per minute
		tau         = 45.0 // minutes until a requester gives up watching
		days        = 5
	)
	u := impatience.Step{Tau: tau}
	// Episode popularity is heavily skewed (fresh releases dominate).
	pop := impatience.ParetoPopularity(episodes, 1.2, 3)

	hom := impatience.Homogeneous{
		Utility: u, Pop: pop, Mu: mu,
		Servers: subscribers, Clients: subscribers, PureP2P: true,
	}
	opt, err := hom.GreedyOptimal(cacheSlots)
	if err != nil {
		return err
	}

	rng := rand.New(rand.NewPCG(2024, 12))
	tr, err := impatience.GenerateHomogeneousTrace(subscribers, mu, days*1440, rng)
	if err != nil {
		return err
	}

	play := func(policy impatience.ReplicationPolicy, initial impatience.AllocationCounts) (float64, error) {
		cfg := impatience.SimConfig{
			Rho: cacheSlots, Utility: u, Pop: pop, Contacts: tr.Source(),
			Policy: policy, Seed: 99,
		}
		if initial != nil {
			cfg.Initial = initial
			cfg.NoSticky = true
		}
		res, err := impatience.Simulate(cfg)
		if err != nil {
			return 0, err
		}
		return res.AvgUtilityRate * 60, nil // per hour
	}

	revOPT, err := play(impatience.StaticPolicy{Label: "opt"}, opt)
	if err != nil {
		return err
	}
	revSQRT, err := play(impatience.StaticPolicy{Label: "sqrt"},
		impatience.SqrtAllocation(pop.Rates, subscribers, cacheSlots))
	if err != nil {
		return err
	}

	// Passive replication: one replica per fulfillment → proportional.
	passive := &impatience.QCR{Reaction: impatience.ConstantReaction(0.1), MandateRouting: true, StrictSource: true, MaxMandates: 5, Seed: 5}
	revPassive, err := play(passive, nil)
	if err != nil {
		return err
	}

	// QCR tuned to the measured impatience.
	qcr := &impatience.QCR{
		Reaction:       impatience.TunedReaction(u, mu, subscribers, 0.1),
		MandateRouting: true,
		StrictSource:   true,
		MaxMandates:    5,
		Seed:           6,
	}
	revQCR, err := play(qcr, nil)
	if err != nil {
		return err
	}

	fmt.Printf("VideoForU: %d subscribers, %d episodes, %d-slot caches, viewers give up after %.0f min\n\n",
		subscribers, episodes, cacheSlots, tau)
	fmt.Printf("%-34s %14s\n", "replication strategy", "ads watched/h")
	fmt.Printf("%-34s %14.2f\n", "passive (1 replica/fulfillment)", revPassive)
	fmt.Printf("%-34s %14.2f\n", "fixed square-root allocation", revSQRT)
	fmt.Printf("%-34s %14.2f\n", "QCR tuned to impatience (local!)", revQCR)
	fmt.Printf("%-34s %14.2f\n", "clairvoyant optimal allocation", revOPT)
	fmt.Printf("\nQCR reaches %.1f%% of the optimum using only local query counts.\n",
		100*revQCR/revOPT)
	return nil
}

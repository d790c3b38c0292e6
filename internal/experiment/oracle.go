package experiment

// Hooks used by the theory-vs-simulation conformance harness
// (internal/oracle). They live here so the oracle drives exactly the
// same scenario plumbing as the figure pipelines: scenario-derived
// popularity, the trial-seed discipline of internal/parallel, and the
// streaming contact pipeline.

import (
	"math/rand/v2"

	"impatience/internal/alloc"
	"impatience/internal/contact"
	"impatience/internal/core"
	"impatience/internal/rates"
	"impatience/internal/sim"
	"impatience/internal/utility"
	"impatience/internal/welfare"
)

// RunStaticStream simulates a fixed allocation for one trial on a fused
// homogeneous contact stream (generation and simulation in one pass,
// nothing materialized). seed drives the contact stream and must come
// from parallel.TrialSeed so trials are scheduling-independent; the
// simulator's own streams are seeded exactly like the comparison
// figures' (schemeConfig). With
// recordDelays the result carries the per-item delay samples and gains
// the oracle checks against the closed-form welfare terms.
func (sc Scenario) RunStaticStream(u utility.Function, initial alloc.Counts, trial int, seed uint64, recordDelays bool) (*sim.Result, error) {
	src, err := contact.NewHomogeneousStream(sc.Nodes, sc.Mu, sc.Duration, rand.New(rand.NewPCG(seed, seed^0xabcdef)))
	if err != nil {
		return nil, err
	}
	cfg := sim.Config{
		Rho:          sc.Rho,
		Utility:      u,
		Pop:          sc.Pop(),
		Contacts:     src,
		Policy:       core.Static{Label: "oracle"},
		Initial:      initial,
		NoSticky:     true,
		Seed:         sc.Seed*1_000_003 + uint64(trial)*101,
		WarmupFrac:   sc.WarmupFrac,
		RecordDelays: recordDelays,
	}
	return sim.Run(cfg)
}

// RunStaticHybrid is RunStaticStream's mean-field twin: the same static
// allocation, popularity, warmup and simulator seed discipline, but the
// population evolves on the hybrid engine over a single-community rate
// model matching the homogeneous µ. The oracle's hybrid ladder compares
// its welfare against the full-sim trial CI of RunStaticStream.
func (sc Scenario) RunStaticHybrid(u utility.Function, initial alloc.Counts, m *rates.Model, trial int, seed uint64) (*sim.Result, error) {
	cfg := sim.Config{
		Rho:        sc.Rho,
		Utility:    u,
		Pop:        sc.Pop(),
		Policy:     core.Static{Label: "oracle"},
		Initial:    initial,
		NoSticky:   true,
		Seed:       sc.Seed*1_000_003 + uint64(trial)*101,
		WarmupFrac: sc.WarmupFrac,
	}
	hy := sc.Hybrid
	hy.ContactSeed = seed
	return sim.RunHybrid(cfg, m, sc.Duration, hy)
}

// Homogeneous returns the scenario's closed-form welfare system (pure
// P2P, Section 4): the analytic side of the oracle's sim↔theory gates.
// It is the same construction qcrPolicy uses to tune the reaction scale,
// exported so oracle and scenario can never drift apart on µ, |S| or the
// popularity law.
func (sc Scenario) Homogeneous(u utility.Function) welfare.Homogeneous {
	return welfare.Homogeneous{
		Utility: u,
		Pop:     sc.Pop(),
		Mu:      sc.Mu,
		Servers: sc.Nodes,
		Clients: sc.Nodes,
		PureP2P: true,
	}
}

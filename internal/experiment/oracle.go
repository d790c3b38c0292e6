package experiment

// Hooks used by the theory-vs-simulation conformance harness
// (internal/oracle). They live here so the oracle drives exactly the
// same scenario plumbing as the figure pipelines: scenario-derived
// popularity, the trial-seed discipline of internal/parallel, and the
// streaming contact pipeline.

import (
	"impatience/internal/alloc"
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
// figures' (trialConfig). With recordDelays the result carries the
// per-item delay samples and gains the oracle checks against the
// closed-form welfare terms.
func (sc Scenario) RunStaticStream(u utility.Function, initial alloc.Counts, trial int, seed uint64, recordDelays bool) (*sim.Result, error) {
	src, err := sc.HomogeneousSource()(seed)
	if err != nil {
		return nil, err
	}
	cfg := sc.staticConfig(u, initial, trial)
	cfg.Contacts, cfg.RecordDelays = src, recordDelays
	return sim.Run(cfg)
}

// RunStaticHybrid is RunStaticStream's mean-field twin: the same static
// allocation, popularity, warmup and simulator seed discipline, but the
// population evolves on the hybrid engine over a single-community rate
// model matching the homogeneous µ. The oracle's hybrid ladder compares
// its welfare against the full-sim trial CI of RunStaticStream.
func (sc Scenario) RunStaticHybrid(u utility.Function, initial alloc.Counts, m *rates.Model, trial int, seed uint64) (*sim.Result, error) {
	hy := sc.Hybrid
	hy.ContactSeed = seed
	return sim.RunHybrid(sc.staticConfig(u, initial, trial), m, sc.Duration, hy)
}

// staticConfig is the oracle's fixed-allocation config for one trial.
func (sc Scenario) staticConfig(u utility.Function, initial alloc.Counts, trial int) sim.Config {
	cfg := sc.trialConfig(u, uint64(trial))
	cfg.Policy = core.Static{Label: "oracle"}
	cfg.Initial, cfg.NoSticky = initial, true
	return cfg
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

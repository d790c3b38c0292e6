package oracle

import (
	"impatience/internal/experiment"
	"impatience/internal/parallel"
)

// params are the mode-dependent knobs of the suite. The ladder keeps the
// mean-field scaling µ_N = µ̄/N with aggregate demand proportional to N:
// per-item replica shares x_i/N converge, per-request delay distributions
// are N-invariant, and the statistical noise of the welfare estimate
// shrinks like 1/√N — which is exactly what the convergence gates assert.
type params struct {
	// Static welfare ladder (sim ↔ closed form).
	ladderN    []int
	trials     int
	items      int
	rho        int
	muBar      float64 // µ̄ = µ·N, constant along the ladder
	reqPerNode float64 // aggregate demand rate = reqPerNode·N
	duration   float64
	warmup     float64
	tau        float64 // step deadline of the ladder utility

	// Per-item and KS gates (top rung of the ladder).
	topItems int // items gated by the per-item welfare check
	minKSn   int // minimum delay samples for a KS-tested item

	// QCR replica-balance ladder (sim ↔ mean field).
	qcrN        []int
	qcrItems    int
	qcrTrials   int
	qcrDuration float64

	// Analytic differentials.
	anaNodes int // population for the meanfield/sandwich systems
	anaItems int

	// Hybrid community check (-hybrid): the fidelity rungs, and whether
	// the N = 10⁵ wall-clock speedup rung runs.
	hybridRungs   []hybridRung
	hybridSpeedup bool
}

// hybridRung is one fidelity rung of the hybrid community check: a
// PaperCommunity model run on both engines over the same trials.
type hybridRung struct {
	nodes, communities, trials int
	duration                   float64
}

// quickParams is the CI suite: a 4×-spaced N ladder small enough to
// finish in ~1-2 minutes on one core while keeping every gate
// statistically powered (the negative control must fail).
func quickParams() params {
	return params{
		ladderN:     []int{40, 160, 640},
		trials:      10,
		items:       32,
		rho:         4,
		muBar:       2.5,
		reqPerNode:  0.05,
		duration:    400,
		warmup:      0.3,
		tau:         2,
		topItems:    8,
		minKSn:      200,
		qcrN:        []int{32, 64, 128},
		qcrItems:    24,
		qcrTrials:   6,
		qcrDuration: 2000,
		anaNodes:    50,
		anaItems:    40,
		hybridRungs: []hybridRung{{nodes: 500, communities: 4, trials: 6, duration: 400}},
	}
}

// fullParams is the nightly suite: the paper-scale ladder up to N=1000
// with more trials per rung.
func fullParams() params {
	p := quickParams()
	p.ladderN = []int{50, 200, 1000}
	p.trials = 15
	p.qcrN = []int{48, 144, 432}
	p.qcrTrials = 8
	p.qcrDuration = 4000
	p.hybridRungs = []hybridRung{
		{nodes: 500, communities: 4, trials: 12, duration: 600},
		{nodes: 1000, communities: 8, trials: 12, duration: 600},
	}
	p.hybridSpeedup = true
	return p
}

// scenario builds the experiment.Scenario for one ladder rung: the
// mean-field scaling applied to n nodes.
func (p params) scenario(n int, cfg Config) experiment.Scenario {
	sc := experiment.Default()
	sc.Nodes = n
	sc.Items = p.items
	sc.Rho = p.rho
	sc.Mu = p.muBar / float64(n)
	sc.Omega = 1
	sc.DemandRate = p.reqPerNode * float64(n)
	sc.Duration = p.duration
	sc.Trials = p.trials
	sc.Seed = rungSeed(cfg.Seed, n)
	sc.Workers = cfg.Workers
	sc.WarmupFrac = p.warmup
	return sc
}

// qcrScenario is scenario with the QCR rung's catalog and horizon (QCR
// needs a longer run to mix through its replication dynamics).
func (p params) qcrScenario(n int, cfg Config) experiment.Scenario {
	sc := p.scenario(n, cfg)
	sc.Items = p.qcrItems
	sc.Trials = p.qcrTrials
	sc.Duration = p.qcrDuration
	sc.Seed = rungSeed(cfg.Seed^0x9c9, n)
	return sc
}

// rungSeed derives a well-separated base seed for one ladder rung.
func rungSeed(base uint64, n int) uint64 {
	return parallel.SplitMix64(base ^ (uint64(n) << 20))
}

// Package adversary is the misbehavior-and-drift layer of the simulator.
// The paper derives QCR under honest nodes and stationary Zipf demand;
// this package supplies the violations the robustness experiments
// quantify and the hardened reaction (core.Hardening) defends against:
//
//  1. Dishonest nodes — a fraction of nodes inflates the query counter
//     reported at each of their fulfillments by a per-node multiplier
//     (the MULT knob), gaming ψ into minting replicas of whatever they
//     request. The counter fed to the reaction saturates at
//     core.MaxQueryCount, so no multiplier can overflow the arithmetic.
//  2. Free-riders — a fraction of nodes consumes content but never
//     serves: they refuse to answer queries for items they hold, refuse
//     policy cache writes, decline to carry replication mandates, and do
//     not run the replication reaction for their own fulfillments.
//  3. Demand drift — a schedule of popularity shifts (demand.Schedule)
//     replayed through the demand process: flash crowds, rank churn.
//  4. Contact nonstationarity — a day/night activity profile imposed on
//     any streamed contact source by deterministic time change (see
//     Modulate).
//
// A Config is a pure description; an Injector is the per-run instance.
// Role assignment draws from a private RNG stream at construction and
// nothing afterwards, so a run with the layer disabled — or a config
// whose Enabled() is false — is byte-identical to a run built before
// this package existed. The layer composes with fault injection
// (internal/faults): both can be active in one run, in both sim.Run and
// sim.RunBatch.
package adversary

import (
	"fmt"
	"math"
	"math/rand/v2"

	"impatience/internal/core"
	"impatience/internal/demand"
)

// Config parameterizes the adversarial workload for one run. The zero
// value disables every misbehavior class.
type Config struct {
	// DishonestFrac is the fraction of nodes that inflate their reported
	// query counters, in [0,1].
	DishonestFrac float64
	// Mult is the counter multiplier dishonest nodes apply (the MULT
	// knob): a fulfilled request's counter y is reported as min(⌊M·y⌋,
	// core.MaxQueryCount). 1 (or 0, the zero value) means honest
	// reporting even when DishonestFrac > 0.
	Mult float64
	// FreeRiderFrac is the fraction of nodes that consume content but
	// never serve or carry mandates, in [0,1]. Dishonest and free-riding
	// roles are assigned to disjoint node sets, so the two fractions may
	// sum to at most 1.
	FreeRiderFrac float64
	// Schedule is the popularity-churn timeline applied through the
	// demand process (strictly ascending times; see demand.Schedule).
	Schedule demand.Schedule
	// Seed drives the role-assignment RNG stream. Two injectors built
	// from identical configs pick identical dishonest/free-rider sets.
	Seed uint64
}

// Enabled reports whether any misbehavior class is active.
func (c *Config) Enabled() bool {
	if c == nil {
		return false
	}
	return (c.DishonestFrac > 0 && c.Mult > 0 && c.Mult != 1) ||
		c.FreeRiderFrac > 0 || len(c.Schedule) > 0
}

// Validate checks the configuration's ranges against a catalog size.
// Rejecting bad configurations at construction is deliberate: a negative
// multiplier or an unsorted schedule would otherwise misbehave silently
// deep inside a long run.
func (c *Config) Validate(items int) error {
	switch {
	case c == nil:
		return nil
	case c.DishonestFrac < 0 || c.DishonestFrac > 1 || math.IsNaN(c.DishonestFrac):
		return fmt.Errorf("adversary: dishonest fraction %g outside [0,1]", c.DishonestFrac)
	case c.FreeRiderFrac < 0 || c.FreeRiderFrac > 1 || math.IsNaN(c.FreeRiderFrac):
		return fmt.Errorf("adversary: free-rider fraction %g outside [0,1]", c.FreeRiderFrac)
	case c.DishonestFrac+c.FreeRiderFrac > 1:
		return fmt.Errorf("adversary: dishonest %g + free-rider %g fractions exceed 1", c.DishonestFrac, c.FreeRiderFrac)
	case c.Mult < 0 || math.IsNaN(c.Mult) || math.IsInf(c.Mult, 0):
		return fmt.Errorf("adversary: counter multiplier %g", c.Mult)
	}
	if err := c.Schedule.Validate(items); err != nil {
		return err
	}
	return nil
}

// Tally counts the misbehavior injected into one run and the hardened
// reaction's interventions. It lands in the simulator's Result.
type Tally struct {
	// Assigned roles.
	DishonestNodes int
	FreeRiders     int

	// Injected misbehavior.
	InflatedReports     int // fulfillments whose reported counter was inflated
	RefusedServes       int // fulfillments suppressed by a free-riding holder
	RefusedWrites       int // policy cache writes refused by free-riders
	SuppressedReactions int // free-rider fulfillments that skipped the reaction
	DemandShifts        int // popularity shifts applied from the schedule

	// Hardened-reaction interventions (filled from the policy).
	CountersCapped   int // reports saturated by Hardening.CounterCap
	ReactionsClamped int // mandates withheld by Hardening.ReplicaClamp
}

// Injector is the per-run adversary instance: fixed node roles plus the
// counter-inflation rule. All randomness is spent at construction (role
// assignment from a private stream); the per-event methods are pure, so
// the layer never perturbs the simulator's or the policy's RNG streams.
type Injector struct {
	cfg       Config
	dishonest []bool
	freeRider []bool
}

// New builds the injector for one run over a population of nodes.
// Returns nil when the config disables every misbehavior class, which
// callers use as the "off" signal; items sizes the schedule validation.
func New(cfg *Config, nodes, items int) (*Injector, error) {
	if err := cfg.Validate(items); err != nil {
		return nil, err
	}
	if !cfg.Enabled() {
		return nil, nil
	}
	in := &Injector{
		cfg:       *cfg,
		dishonest: make([]bool, nodes),
		freeRider: make([]bool, nodes),
	}
	kD := int(math.Round(cfg.DishonestFrac * float64(nodes)))
	if cfg.Mult <= 0 || cfg.Mult == 1 {
		kD = 0
	}
	kF := int(math.Round(cfg.FreeRiderFrac * float64(nodes)))
	if kD+kF > nodes {
		kF = nodes - kD
	}
	// Pick the kD+kF misbehaving nodes as a uniformly random subset
	// (partial Fisher-Yates over the node ids), dishonest first, then
	// free-riders — disjoint by construction.
	rng := rand.New(rand.NewPCG(cfg.Seed^0xadbad5eed, cfg.Seed*0x9e3779b97f4a7c15+0x2545f4914f6cdd1d))
	ids := make([]int, nodes)
	for i := range ids {
		ids[i] = i
	}
	for i := 0; i < kD+kF; i++ {
		j := i + rng.IntN(nodes-i)
		ids[i], ids[j] = ids[j], ids[i]
		if i < kD {
			in.dishonest[ids[i]] = true
		} else {
			in.freeRider[ids[i]] = true
		}
	}
	return in, nil
}

// Config returns the injector's configuration.
func (in *Injector) Config() Config { return in.cfg }

// Dishonest reports whether node inflates its query counters.
func (in *Injector) Dishonest(node int) bool { return in.dishonest[node] }

// FreeRider reports whether node consumes without serving; the
// simulator exposes it to policies through core.Cache.
func (in *Injector) FreeRider(node int) bool { return in.freeRider[node] }

// Roles returns the number of dishonest and free-riding nodes.
func (in *Injector) Roles() (dishonest, freeRiders int) {
	for _, d := range in.dishonest {
		if d {
			dishonest++
		}
	}
	for _, f := range in.freeRider {
		if f {
			freeRiders++
		}
	}
	return dishonest, freeRiders
}

// Schedule returns the popularity-churn timeline.
func (in *Injector) Schedule() demand.Schedule { return in.cfg.Schedule }

// Inflate applies the counter multiplier to a reported query count,
// saturating at core.MaxQueryCount so an arbitrary multiplier sustained
// over an arbitrary horizon can never overflow the counter arithmetic.
func (in *Injector) Inflate(queries int) int {
	if queries <= 0 {
		return queries
	}
	v := in.cfg.Mult * float64(queries)
	if v >= float64(core.MaxQueryCount) {
		return core.MaxQueryCount
	}
	return int(v)
}

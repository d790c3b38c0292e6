// Package impatience is a from-scratch Go implementation of the system
// described in "The Age of Impatience: Optimal Replication Schemes for
// Opportunistic Networks" (Reich & Chaintreau, CoNEXT 2009): peer-to-peer
// content dissemination over opportunistic contacts, where the cache
// allocation across mobile devices is driven toward the social-welfare
// optimum implied by the users' impatience (their delay-utility).
//
// The package is a facade over the implementation in internal/: it
// re-exports the delay-utility families and their Table-1 transforms, the
// social-welfare evaluators and optimal-allocation solvers, the Query
// Counting Replication protocol with mandate routing, the discrete-event
// simulator, contact-trace types, and the synthetic trace generators the
// evaluation uses in place of the (non-redistributable) Infocom'06 and
// Cabspotting data sets.
//
// # Quick start
//
// Build a population that loses interest exponentially, compute its
// optimal cache allocation, and simulate QCR converging to it:
//
//	u := impatience.Exponential{Nu: 0.1}
//	pop := impatience.ParetoPopularity(50, 1, 2) // 50 items, ω=1, 2 req/min
//	hom := impatience.Homogeneous{
//		Utility: u, Pop: pop, Mu: 0.05, Servers: 50, Clients: 50, PureP2P: true,
//	}
//	opt, _ := hom.GreedyOptimal(5) // optimal counts for ρ=5
//
//	tr, _ := impatience.GenerateHomogeneousTrace(50, 0.05, 5000, rng)
//	qcr := &impatience.QCR{
//		Reaction:       impatience.TunedReaction(u, 0.05, 50, 0.1),
//		MandateRouting: true,
//	}
//	res, _ := impatience.Simulate(impatience.SimConfig{
//		Rho: 5, Utility: u, Pop: pop, Contacts: tr.Source(), Policy: qcr,
//	})
//	fmt.Println(res.AvgUtilityRate, hom.WelfareCounts(opt))
//
// See examples/ for complete programs and DESIGN.md for the mapping from
// the paper's sections to packages.
package impatience

import (
	"math/rand/v2"

	"impatience/internal/adaptive"
	"impatience/internal/alloc"
	"impatience/internal/contact"
	"impatience/internal/core"
	"impatience/internal/demand"
	"impatience/internal/meanfield"
	"impatience/internal/sim"
	"impatience/internal/synth"
	"impatience/internal/trace"
	"impatience/internal/utility"
	"impatience/internal/welfare"
)

// Delay-utility functions (Section 3.2, Table 1).
type (
	// UtilityFunction is a delay-utility h(t) with its derived transforms.
	UtilityFunction = utility.Function
	// Step is h(t) = 1{t ≤ τ}.
	Step = utility.Step
	// Exponential is h(t) = e^{−νt}.
	Exponential = utility.Exponential
	// Power is h(t) = t^{1−α}/(α−1) for α < 2, α ≠ 1.
	Power = utility.Power
	// NegLog is h(t) = −ln t.
	NegLog = utility.NegLog
	// GenericUtility adapts an arbitrary non-increasing h with numeric
	// transforms.
	GenericUtility = utility.Generic
)

// ParseUtility builds a utility from a spec string such as "step:10",
// "exp:0.5", "power:-1" or "neglog".
func ParseUtility(spec string) (UtilityFunction, error) { return utility.Parse(spec) }

// Psi is the Property-2 reaction function ψ(y) = (S/y)·ϕ(S/y).
func Psi(f UtilityFunction, mu, servers, y float64) float64 { return utility.Psi(f, mu, servers, y) }

// Demand modelling (Section 3.3).
type (
	// Popularity holds per-item demand rates d_i.
	Popularity = demand.Popularity
	// Profile is the per-node demand split π_{i,n}.
	Profile = demand.Profile
)

// ParetoPopularity is the paper's default demand: d_i ∝ (i+1)^{−ω}.
func ParetoPopularity(items int, omega, total float64) Popularity {
	return demand.Pareto(items, omega, total)
}

// UniformPopularity gives every item the same demand.
func UniformPopularity(items int, total float64) Popularity { return demand.Uniform(items, total) }

// Contact traces and processes (Section 3.4).
type (
	// Trace is a time-ordered contact trace.
	Trace = trace.Trace
	// Contact is one meeting.
	Contact = trace.Contact
	// RateMatrix holds pairwise contact intensities µ_{m,n}.
	RateMatrix = trace.RateMatrix
)

// LoadTrace reads a trace file; SaveTrace writes one.
func LoadTrace(path string) (*Trace, error)          { return trace.Load(path) }
func SaveTrace(path string, tr *Trace) error         { return trace.Save(path, tr) }
func EmpiricalRates(tr *Trace) *RateMatrix           { return trace.EmpiricalRates(tr) }
func UniformRates(nodes int, mu float64) *RateMatrix { return trace.UniformRates(nodes, mu) }

// GenerateHomogeneousTrace draws memoryless homogeneous contacts.
func GenerateHomogeneousTrace(nodes int, mu, duration float64, rng *rand.Rand) (*Trace, error) {
	return contact.GenerateHomogeneous(nodes, mu, duration, rng)
}

// GenerateTrace draws memoryless contacts from an arbitrary rate matrix.
func GenerateTrace(rm *RateMatrix, duration float64, rng *rand.Rand) (*Trace, error) {
	return contact.Generate(rm, duration, rng)
}

// Synthetic data sets standing in for the paper's measured traces.
type (
	// ConferenceConfig parameterizes the Infocom'06-like generator.
	ConferenceConfig = synth.ConferenceConfig
	// VehicularConfig parameterizes the Cabspotting-like generator.
	VehicularConfig = synth.VehicularConfig
)

// DefaultConference mirrors the paper's Infocom'06 subset scale.
func DefaultConference() ConferenceConfig { return synth.DefaultConference() }

// DefaultVehicular mirrors the paper's Cabspotting subset scale.
func DefaultVehicular() VehicularConfig { return synth.DefaultVehicular() }

// ConferenceTrace generates a conference trace.
func ConferenceTrace(cfg ConferenceConfig, rng *rand.Rand) (*Trace, error) {
	return synth.Conference(cfg, rng)
}

// VehicularTrace generates a taxi trace.
func VehicularTrace(cfg VehicularConfig, rng *rand.Rand) (*Trace, error) {
	return synth.Vehicular(cfg, rng)
}

// MemorylessTrace rebuilds tr with identical pairwise rates but Poisson
// contact times (Figure 5c's synthesized counterpart).
func MemorylessTrace(tr *Trace, rng *rand.Rand) (*Trace, error) {
	return synth.Memoryless(tr, rng)
}

// Allocations (Section 4) and welfare.
type (
	// AllocationCounts is an integer per-item replica-count allocation.
	AllocationCounts = alloc.Counts
	// Placement assigns items to concrete servers.
	Placement = alloc.Placement
	// Homogeneous evaluates and optimizes welfare under uniform contact
	// rates (Theorem 2, Property 1).
	Homogeneous = welfare.Homogeneous
	// Hetero evaluates and optimizes welfare under arbitrary pairwise
	// rates (Lemma 1, Theorem 1).
	Hetero = welfare.Hetero
)

// Fixed heuristic allocations of Section 6.1.
func UniformAllocation(items, servers, rho int) AllocationCounts {
	return alloc.Uniform(items, servers, rho)
}
func SqrtAllocation(d []float64, servers, rho int) AllocationCounts {
	return alloc.Sqrt(d, servers, rho)
}
func PropAllocation(d []float64, servers, rho int) AllocationCounts {
	return alloc.Prop(d, servers, rho)
}
func DomAllocation(d []float64, servers, rho int) AllocationCounts { return alloc.Dom(d, servers, rho) }

// PlaceAllocation spreads an integer allocation across concrete caches.
func PlaceAllocation(c AllocationCounts, servers, rho int) (*Placement, error) {
	return alloc.Place(c, servers, rho)
}

// The QCR protocol (Section 5) and the simulator (Section 6).
type (
	// ReplicationPolicy is the simulator's replication hook: Name, Init,
	// OnFulfill and OnMeeting, plus OnCrash (discard a crashed node's
	// protocol state) and Counters (the policy's mandate tallies). Faults
	// and adversaries reach a policy only through the cache its hooks are
	// handed, so a policy wrapping another must forward every method.
	ReplicationPolicy = core.Policy
	// QCR is Query Counting Replication with mandate routing.
	QCR = core.QCR
	// StaticPolicy never replicates (fixed-allocation competitors).
	StaticPolicy = core.Static
	// ReactionFunc maps query counts to replica budgets.
	ReactionFunc = core.ReactionFunc
	// SimConfig parameterizes a simulation run.
	SimConfig = sim.Config
	// SimResult summarizes a run.
	SimResult = sim.Result
	// SimBin is one time-series bucket.
	SimBin = sim.Bin
)

// TunedReaction builds the Property-2 reaction for f under rate mu with
// |S| = servers; scale trades convergence speed against equilibrium
// variance (0.1 is a good default at the paper's scale).
func TunedReaction(f UtilityFunction, mu float64, servers int, scale float64) ReactionFunc {
	return core.TunedReaction(f, mu, servers, scale)
}

// PathReplication is ψ(y) = scale·y (square-root equilibrium).
func PathReplication(scale float64) ReactionFunc { return core.PathReplication(scale) }

// ConstantReaction is ψ(y) = c (proportional equilibrium).
func ConstantReaction(c float64) ReactionFunc { return core.ConstantReaction(c) }

// Simulate runs the discrete-event simulation.
func Simulate(cfg SimConfig) (*SimResult, error) { return sim.Run(cfg) }

// MeanField is the Eq.-7 fluid model of QCR's replica dynamics.
type MeanField = meanfield.System

// AdaptiveQCR learns the population's impatience from consumption
// feedback and re-tunes the reaction function online — the Section 7
// open problem. See internal/adaptive for the estimator details.
type AdaptiveQCR = adaptive.Policy

// TunedReactions builds a per-item reaction function for catalogs whose
// items follow different delay-utilities (Section 3.2).
func TunedReactions(fs []UtilityFunction, fallback UtilityFunction, mu float64, servers int, scale float64) func(item, queries int) float64 {
	return core.TunedReactions(fs, fallback, mu, servers, scale)
}

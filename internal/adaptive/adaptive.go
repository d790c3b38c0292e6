// Package adaptive implements the paper's closing open problem (Section
// 7): estimating the delay-utility function implicitly from user
// feedback instead of assuming it known, and re-tuning QCR's reaction
// function online.
//
// The feedback model follows the advertising-revenue interpretation of
// Section 3.2: when a request is fulfilled after waiting `age`, the user
// consumes the content (watches the video, and its ads) with probability
// h(age) — for the exponential family h(t) = e^{-νt}, each fulfillment is
// a Bernoulli(e^{-ν·age}) observation of the unknown ν. The estimator
// matches the empirical consumption count to its expectation,
//
//	Σ_k consumed_k  =  Σ_k e^{-ν̂·age_k},
//
// whose right side is strictly decreasing in ν̂ — a one-dimensional
// moment-matching problem solved by bisection. It is consistent (both
// sides concentrate on Σ e^{-ν·age_k}) and needs no knowledge of the
// fulfillment-delay distribution, which depends on the evolving cache
// allocation.
package adaptive

import (
	"fmt"
	"math"

	"impatience/internal/core"
	"impatience/internal/numeric"
	"impatience/internal/utility"
)

// NuEstimator estimates the decay rate ν of an exponential delay-utility
// from (age, consumed) observations.
type NuEstimator struct {
	ages     []float64
	consumed int
}

// Observe records one fulfillment outcome.
func (e *NuEstimator) Observe(age float64, consumed bool) {
	if age < 0 || math.IsNaN(age) {
		return
	}
	e.ages = append(e.ages, age)
	if consumed {
		e.consumed++
	}
}

// N returns the number of observations.
func (e *NuEstimator) N() int { return len(e.ages) }

// Estimate returns ν̂ and whether enough informative data has been seen.
// It needs at least MinObservations and a consumption count strictly
// between 0 and n (all-consumed or none-consumed pins ν̂ at a boundary).
func (e *NuEstimator) Estimate() (float64, bool) {
	n := len(e.ages)
	if n < MinObservations || e.consumed == 0 || e.consumed == n {
		return 0, false
	}
	target := float64(e.consumed)
	f := func(nu float64) float64 {
		var sum float64
		for _, a := range e.ages {
			sum += math.Exp(-nu * a)
		}
		return sum
	}
	nu, err := numeric.InvertDecreasing(f, target, 0.1)
	if err != nil || nu <= 0 || math.IsNaN(nu) {
		return 0, false
	}
	return nu, true
}

// MinObservations is the minimum sample size before Estimate reports a
// value; below it the moment estimate is too noisy to act on.
const MinObservations = 30

// Policy is a QCR variant that does not know the population's impatience
// a priori: it observes consumption feedback on every fulfillment,
// estimates the exponential decay rate ν, and re-tunes the Property-2
// reaction function as the estimate firms up. Until the first estimate it
// replicates with a neutral constant reaction.
type Policy struct {
	// Feedback reports whether the user consumed content for item
	// delivered after age. In simulation this is Bernoulli(h_true(age)).
	Feedback func(item int, age float64) bool
	// Mu, Servers and Scale tune the reaction exactly as for plain QCR.
	Mu      float64
	Servers int
	Scale   float64
	// RetuneEvery re-estimates after this many new observations (default
	// 50).
	RetuneEvery int
	// Inner carries the QCR mechanics (routing flags, cap, seed). Its
	// Reaction is overwritten by the estimator. Required.
	Inner *core.QCR

	est       NuEstimator
	sinceTune int
	lastNu    float64
	haveNu    bool
}

// Name implements core.Policy.
func (p *Policy) Name() string { return "adaptive-qcr" }

// Init implements core.Policy.
func (p *Policy) Init(c core.Cache) {
	if p.RetuneEvery <= 0 {
		p.RetuneEvery = 50
	}
	if p.Inner.Reaction == nil {
		// Neutral prior: modest constant replication until ν̂ exists.
		p.Inner.Reaction = core.ConstantReaction(math.Max(p.Scale, 0.05))
	}
	p.Inner.Init(c)
}

// LastEstimate returns the most recent ν̂ and whether one exists.
func (p *Policy) LastEstimate() (float64, bool) { return p.lastNu, p.haveNu }

// Observations returns the number of feedback samples consumed.
func (p *Policy) Observations() int { return p.est.N() }

// OnCrash implements core.Policy by forwarding to the inner QCR.
func (p *Policy) OnCrash(node int) int { return p.Inner.OnCrash(node) }

// Counters implements core.Policy with the inner QCR's tallies.
func (p *Policy) Counters() core.Counters { return p.Inner.Counters() }

// OnFulfill implements core.Policy: records feedback, periodically
// re-tunes, and delegates mandate creation to the inner QCR.
func (p *Policy) OnFulfill(c core.Cache, node, peer, item, queries int, age, now float64) {
	if p.Feedback != nil {
		p.est.Observe(age, p.Feedback(item, age))
		p.sinceTune++
		if p.sinceTune >= p.RetuneEvery {
			p.sinceTune = 0
			if nu, ok := p.est.Estimate(); ok {
				p.lastNu = nu
				p.haveNu = true
				p.Inner.Reaction = core.TunedReaction(
					utility.Exponential{Nu: nu}, p.Mu, p.Servers, p.Scale)
			}
		}
	}
	p.Inner.OnFulfill(c, node, peer, item, queries, age, now)
}

// OnMeeting implements core.Policy.
func (p *Policy) OnMeeting(c core.Cache, a, b int, now float64) {
	p.Inner.OnMeeting(c, a, b, now)
}

// Validate reports configuration errors.
func (p *Policy) Validate() error {
	if p.Inner == nil {
		return fmt.Errorf("adaptive: nil inner QCR")
	}
	if p.Mu <= 0 || p.Servers <= 0 {
		return fmt.Errorf("adaptive: µ=%g servers=%d", p.Mu, p.Servers)
	}
	return nil
}

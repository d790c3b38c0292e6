package adaptive

import (
	"math"
	"math/rand/v2"
	"testing"

	"impatience/internal/contact"
	"impatience/internal/core"
	"impatience/internal/demand"
	"impatience/internal/sim"
	"impatience/internal/utility"
	"impatience/internal/welfare"
)

func TestEstimatorRecoversNu(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	for _, nu := range []float64{0.05, 0.2, 1} {
		var e NuEstimator
		for k := 0; k < 4000; k++ {
			age := rng.ExpFloat64() * 8 // arbitrary delay distribution
			consumed := rng.Float64() < math.Exp(-nu*age)
			e.Observe(age, consumed)
		}
		got, ok := e.Estimate()
		if !ok {
			t.Fatalf("ν=%g: no estimate", nu)
		}
		if math.Abs(got-nu) > 0.15*nu {
			t.Errorf("ν=%g: estimated %g", nu, got)
		}
	}
}

func TestEstimatorRefusesDegenerate(t *testing.T) {
	var e NuEstimator
	if _, ok := e.Estimate(); ok {
		t.Error("empty estimator produced a value")
	}
	for k := 0; k < 100; k++ {
		e.Observe(1, true) // all consumed → ν̂ would be 0
	}
	if _, ok := e.Estimate(); ok {
		t.Error("all-consumed estimator produced a value")
	}
	var e2 NuEstimator
	for k := 0; k < 100; k++ {
		e2.Observe(1, false)
	}
	if _, ok := e2.Estimate(); ok {
		t.Error("none-consumed estimator produced a value")
	}
	var e3 NuEstimator
	e3.Observe(-1, true)
	e3.Observe(math.NaN(), true)
	if e3.N() != 0 {
		t.Error("invalid ages recorded")
	}
}

func TestEstimatorNeedsMinSamples(t *testing.T) {
	var e NuEstimator
	rng := rand.New(rand.NewPCG(3, 4))
	for k := 0; k < MinObservations-1; k++ {
		age := rng.ExpFloat64()
		e.Observe(age, rng.Float64() < math.Exp(-0.5*age))
	}
	if _, ok := e.Estimate(); ok {
		t.Error("estimate below minimum sample size")
	}
}

// End to end: an adaptive policy that does not know ν approaches the
// welfare of a QCR tuned with the true ν.
func TestAdaptivePolicyConvergence(t *testing.T) {
	const (
		nodes = 30
		items = 20
		mu    = 0.05
		rho   = 3
		nu    = 0.1
	)
	truth := utility.Exponential{Nu: nu}
	pop := demand.Pareto(items, 1, 2)
	tr, err := contact.GenerateHomogeneous(nodes, mu, 8000, rand.New(rand.NewPCG(5, 6)))
	if err != nil {
		t.Fatal(err)
	}
	feedbackRNG := rand.New(rand.NewPCG(7, 8))
	adaptivePolicy := &Policy{
		Feedback: func(item int, age float64) bool {
			return feedbackRNG.Float64() < truth.H(age)
		},
		Mu: mu, Servers: nodes, Scale: 0.1,
		Inner: &core.QCR{MandateRouting: true, StrictSource: true, MaxMandates: 5, Seed: 9},
	}
	if err := adaptivePolicy.Validate(); err != nil {
		t.Fatal(err)
	}
	resA, err := sim.Run(sim.Config{
		Rho: rho, Utility: truth, Pop: pop, Contacts: tr.Source(), Policy: adaptivePolicy,
		Seed: 10, WarmupFrac: 0.3,
	})
	if err != nil {
		t.Fatal(err)
	}
	oracle := &core.QCR{
		Reaction:       core.TunedReaction(truth, mu, nodes, 0.1),
		MandateRouting: true, StrictSource: true, MaxMandates: 5, Seed: 9,
	}
	resO, err := sim.Run(sim.Config{
		Rho: rho, Utility: truth, Pop: pop, Contacts: tr.Source(), Policy: oracle,
		Seed: 10, WarmupFrac: 0.3,
	})
	if err != nil {
		t.Fatal(err)
	}
	nuHat, ok := adaptivePolicy.LastEstimate()
	if !ok {
		t.Fatal("no ν estimate after a full run")
	}
	if math.Abs(nuHat-nu) > 0.5*nu {
		t.Errorf("ν̂=%g, true %g", nuHat, nu)
	}
	if resA.AvgUtilityRate < 0.85*resO.AvgUtilityRate {
		t.Errorf("adaptive %g below 85%% of oracle %g", resA.AvgUtilityRate, resO.AvgUtilityRate)
	}
	t.Logf("ν̂=%.4f (true %.2f, %d obs); adaptive %.4f vs oracle %.4f",
		nuHat, nu, adaptivePolicy.Observations(), resA.AvgUtilityRate, resO.AvgUtilityRate)
	// Sanity against the analytic optimum.
	h := welfare.Homogeneous{Utility: truth, Pop: pop, Mu: mu, Servers: nodes, Clients: nodes, PureP2P: true}
	opt, err := h.GreedyOptimal(rho)
	if err != nil {
		t.Fatal(err)
	}
	if resA.AvgUtilityRate > h.WelfareCounts(opt)*1.1 {
		t.Errorf("adaptive beat the analytic optimum %g by >10%%: %g", h.WelfareCounts(opt), resA.AvgUtilityRate)
	}
}

func TestAdaptiveValidate(t *testing.T) {
	p := &Policy{}
	if err := p.Validate(); err == nil {
		t.Error("nil inner accepted")
	}
	p.Inner = &core.QCR{}
	if err := p.Validate(); err == nil {
		t.Error("zero µ accepted")
	}
}

package impatience_test

import (
	"math"
	"math/rand/v2"
	"testing"

	"impatience"
)

// TestEndToEnd exercises the public facade exactly the way README's
// quickstart does: theory → optimal allocation → QCR simulation.
func TestEndToEnd(t *testing.T) {
	const (
		nodes = 20
		items = 12
		mu    = 0.05
		rho   = 3
	)
	u := impatience.Exponential{Nu: 0.1}
	pop := impatience.ParetoPopularity(items, 1, 2)
	hom := impatience.Homogeneous{
		Utility: u, Pop: pop, Mu: mu, Servers: nodes, Clients: nodes, PureP2P: true,
	}
	opt, err := hom.GreedyOptimal(rho)
	if err != nil {
		t.Fatalf("GreedyOptimal: %v", err)
	}
	uOpt := hom.WelfareCounts(opt)
	if uOpt <= 0 {
		t.Fatalf("optimal welfare %g", uOpt)
	}

	rng := rand.New(rand.NewPCG(1, 2))
	tr, err := impatience.GenerateHomogeneousTrace(nodes, mu, 4000, rng)
	if err != nil {
		t.Fatalf("trace: %v", err)
	}
	qcr := &impatience.QCR{
		Reaction:       impatience.TunedReaction(u, mu, nodes, 0.1),
		MandateRouting: true,
		Seed:           3,
	}
	res, err := impatience.Simulate(impatience.SimConfig{
		Rho: rho, Utility: u, Pop: pop, Contacts: tr.Source(), Policy: qcr, Seed: 4,
	})
	if err != nil {
		t.Fatalf("Simulate: %v", err)
	}
	if res.AvgUtilityRate <= 0 {
		t.Fatalf("QCR utility %g", res.AvgUtilityRate)
	}
	if res.AvgUtilityRate < 0.5*uOpt {
		t.Errorf("QCR %g below half of optimum %g", res.AvgUtilityRate, uOpt)
	}
}

func TestFacadeUtilities(t *testing.T) {
	u, err := impatience.ParseUtility("step:5")
	if err != nil {
		t.Fatalf("ParseUtility: %v", err)
	}
	if got := u.H(4); got != 1 {
		t.Errorf("h(4)=%g", got)
	}
	if v := impatience.Psi(u, 0.05, 50, 10); v <= 0 {
		t.Errorf("ψ=%g", v)
	}
}

func TestFacadeAllocations(t *testing.T) {
	d := impatience.ParetoPopularity(10, 1, 1).Rates
	for _, c := range []impatience.AllocationCounts{
		impatience.UniformAllocation(10, 20, 2),
		impatience.SqrtAllocation(d, 20, 2),
		impatience.PropAllocation(d, 20, 2),
		impatience.DomAllocation(d, 20, 2),
	} {
		if err := c.Validate(20, 2); err != nil {
			t.Errorf("facade allocation infeasible: %v", err)
		}
		if _, err := impatience.PlaceAllocation(c, 20, 2); err != nil {
			t.Errorf("placement failed: %v", err)
		}
	}
}

func TestFacadeTraceRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 6))
	tr, err := impatience.GenerateHomogeneousTrace(8, 0.1, 200, rng)
	if err != nil {
		t.Fatal(err)
	}
	path := t.TempDir() + "/t.txt"
	if err := impatience.SaveTrace(path, tr); err != nil {
		t.Fatal(err)
	}
	back, err := impatience.LoadTrace(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Contacts) != len(tr.Contacts) {
		t.Error("round trip lost contacts")
	}
	if m := impatience.EmpiricalRates(back).Mean(); math.Abs(m-0.1) > 0.05 {
		t.Errorf("rate recovery %g", m)
	}
}

func TestFacadeSynthGenerators(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 8))
	conf := impatience.DefaultConference()
	conf.Nodes = 10
	conf.Days = 1
	tr, err := impatience.ConferenceTrace(conf, rng)
	if err != nil {
		t.Fatal(err)
	}
	ml, err := impatience.MemorylessTrace(tr, rng)
	if err != nil {
		t.Fatal(err)
	}
	if ml.Nodes != tr.Nodes {
		t.Error("memoryless node mismatch")
	}
	veh := impatience.DefaultVehicular()
	veh.Cabs = 10
	veh.DurationMin = 120
	if _, err := impatience.VehicularTrace(veh, rng); err != nil {
		t.Fatal(err)
	}
}

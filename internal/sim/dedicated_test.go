package sim

import (
	"math"
	"testing"

	"impatience/internal/alloc"
	"impatience/internal/contact"
	"impatience/internal/core"
	"impatience/internal/demand"
	"impatience/internal/utility"
	"impatience/internal/welfare"
)

// Dedicated-node case (C ∩ S = ∅): a few kiosk-like servers cache
// content, everyone else only requests. This mode admits the unbounded
// utilities (inverse power, neglog).

func TestDedicatedBasics(t *testing.T) {
	const (
		nodes   = 20
		servers = 5
		items   = 8
		rho     = 2
	)
	tr := smallTrace(t, nodes, 0.08, 2000, 31)
	cfg := Config{
		Rho: rho, Utility: utility.NegLog{}, Pop: demand.Pareto(items, 1, 1),
		Contacts: tr.Source(), Policy: core.Static{}, Seed: 7,
		ServerCount: servers,
		Initial:     alloc.Uniform(items, servers, rho),
		NoSticky:    true,
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Fulfillments == 0 {
		t.Fatal("no fulfillments")
	}
	if res.Immediate != 0 {
		t.Errorf("dedicated clients fulfilled %d requests immediately", res.Immediate)
	}
	if err := res.FinalCounts.Validate(servers, rho); err != nil {
		t.Errorf("allocation outside server capacity: %v", err)
	}
}

func TestDedicatedRejectsBadServerCount(t *testing.T) {
	tr := smallTrace(t, 10, 0.05, 100, 32)
	cfg := baseConfig(t, tr, core.Static{})
	cfg.NoSticky = true
	cfg.ServerCount = 10 // == nodes: no clients left
	if _, err := Run(cfg); err == nil {
		t.Error("ServerCount == nodes accepted")
	}
	cfg.ServerCount = -2
	if _, err := Run(cfg); err == nil {
		t.Error("negative ServerCount accepted")
	}
}

func TestDedicatedRejectsDemandAtServers(t *testing.T) {
	tr := smallTrace(t, 6, 0.05, 100, 33)
	profile := demand.UniformProfile(3, 6) // gives demand to servers 0..1 too
	cfg := Config{
		Rho: 1, Utility: utility.Step{Tau: 5}, Pop: demand.Uniform(3, 1),
		Profile: profile, Contacts: tr.Source(), Policy: core.Static{}, Seed: 1,
		ServerCount: 2, NoSticky: true, Initial: alloc.Counts{1, 1, 0},
	}
	if _, err := Run(cfg); err == nil {
		t.Error("profile with server demand accepted in dedicated mode")
	}
}

func TestDedicatedPureP2PUtilityGateLifted(t *testing.T) {
	tr := smallTrace(t, 10, 0.05, 200, 34)
	cfg := Config{
		Rho: 2, Utility: utility.Power{Alpha: 1.5}, Pop: demand.Uniform(4, 1),
		Contacts: tr.Source(), Policy: core.Static{}, Seed: 1,
	}
	if _, err := Run(cfg); err == nil {
		t.Error("unbounded utility accepted in pure P2P")
	}
	cfg.ServerCount = 3
	cfg.Initial = alloc.Uniform(4, 3, 2)
	cfg.NoSticky = true
	if _, err := Run(cfg); err != nil {
		t.Errorf("unbounded utility rejected in dedicated mode: %v", err)
	}
}

// Observed utility in the dedicated case matches the Eq. 3 closed form.
func TestDedicatedObservedMatchesEq3(t *testing.T) {
	const (
		nodes   = 30
		servers = 10
		items   = 6
		rho     = 2
		mu      = 0.06
	)
	tr, err := contact.GenerateHomogeneous(nodes, mu, 8000, newRNG(35))
	if err != nil {
		t.Fatal(err)
	}
	pop := demand.Pareto(items, 1, 1.5)
	counts := alloc.Sqrt(pop.Rates, servers, rho)
	cfg := Config{
		Rho: rho, Utility: utility.Exponential{Nu: 0.2}, Pop: pop,
		Contacts: tr.Source(), Policy: core.Static{}, Seed: 36,
		ServerCount: servers, Initial: counts, NoSticky: true,
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	h := welfare.Homogeneous{
		Utility: cfg.Utility, Pop: pop, Mu: mu,
		Servers: servers, Clients: nodes - servers, PureP2P: false,
	}
	want := h.WelfareCounts(counts)
	if math.Abs(res.AvgUtilityRate-want) > 0.1*math.Abs(want) {
		t.Errorf("observed %g vs Eq.3 %g", res.AvgUtilityRate, want)
	}
}

// QCR works end-to-end in dedicated mode: mandates created at clients are
// routed to servers (which hold the copies) and executed there.
func TestDedicatedQCRReplicates(t *testing.T) {
	const (
		nodes   = 24
		servers = 8
		items   = 8
		rho     = 2
	)
	tr := smallTrace(t, nodes, 0.1, 4000, 37)
	q := &core.QCR{
		Reaction:       core.TunedReaction(utility.NegLog{}, 0.1, servers, 0.2),
		MandateRouting: true,
		Seed:           5,
	}
	cfg := Config{
		Rho: rho, Utility: utility.NegLog{}, Pop: demand.Pareto(items, 1, 2),
		Contacts: tr.Source(), Policy: q, Seed: 38,
		ServerCount: servers,
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.ReplicasMade == 0 {
		t.Error("dedicated QCR made no replicas")
	}
	for i, c := range res.FinalCounts {
		if c < 1 {
			t.Errorf("item %d lost its sticky replica", i)
		}
		if c > servers {
			t.Errorf("item %d has %d replicas on %d servers", i, c, servers)
		}
	}
	// NegLog's optimal allocation is proportional to demand: the top item
	// should end with more replicas than the bottom one.
	if res.FinalCounts[0] <= res.FinalCounts[items-1] {
		t.Logf("note: final allocation not ordered (%v); acceptable for one trial", res.FinalCounts)
	}
}

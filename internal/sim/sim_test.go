package sim

import (
	"math"
	"math/rand/v2"
	"testing"

	"impatience/internal/alloc"
	"impatience/internal/contact"
	"impatience/internal/core"
	"impatience/internal/demand"
	"impatience/internal/trace"
	"impatience/internal/utility"
	"impatience/internal/welfare"
)

func newRNG(seed uint64) *rand.Rand { return rand.New(rand.NewPCG(seed, seed+3)) }

// smallTrace builds a homogeneous contact trace for fast tests.
func smallTrace(t *testing.T, nodes int, mu, duration float64, seed uint64) *trace.Trace {
	t.Helper()
	tr, err := contact.GenerateHomogeneous(nodes, mu, duration, newRNG(seed))
	if err != nil {
		t.Fatalf("trace: %v", err)
	}
	return tr
}

// baseConfig builds a small run over a fresh view of tr; a nil tr leaves
// Contacts unset for the batch executors.
func baseConfig(t *testing.T, tr *trace.Trace, pol core.Policy) Config {
	t.Helper()
	cfg := Config{
		Rho:     3,
		Utility: utility.Step{Tau: 10},
		Pop:     demand.Pareto(10, 1, 2),
		Policy:  pol,
		Seed:    1,
	}
	if tr != nil {
		cfg.Contacts = tr.Source()
	}
	return cfg
}

func TestValidation(t *testing.T) {
	tr := smallTrace(t, 10, 0.05, 100, 1)
	good := baseConfig(t, tr, core.Static{})
	bads := []func(*Config){
		func(c *Config) { c.Utility = nil },
		func(c *Config) { c.Policy = nil },
		func(c *Config) { c.Contacts = nil },
		func(c *Config) { c.Rho = 0 },
		func(c *Config) { c.Pop = demand.Popularity{} },
		func(c *Config) { c.WarmupFrac = 1.5 },
		func(c *Config) { c.Utility = utility.NegLog{} }, // unbounded h(0+)
		func(c *Config) { c.Pop = demand.Pareto(1000, 1, 1) },
	}
	for i, mod := range bads {
		cfg := good
		cfg.Contacts = tr.Source()
		mod(&cfg)
		if _, err := Run(cfg); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
	if _, err := Run(good); err != nil {
		t.Errorf("good config rejected: %v", err)
	}
}

func TestStaticAllocationStaysFixed(t *testing.T) {
	tr := smallTrace(t, 10, 0.05, 500, 2)
	cfg := baseConfig(t, tr, core.Static{Label: "uni"})
	cfg.NoSticky = true
	initial := alloc.Uniform(10, 10, 3)
	cfg.Initial = initial
	res, err := Run(cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	for i := range initial {
		if res.FinalCounts[i] != initial[i] {
			t.Errorf("item %d: count changed %d → %d under static policy", i, initial[i], res.FinalCounts[i])
		}
	}
	if res.ReplicasMade != 0 {
		t.Errorf("static run made %d replicas", res.ReplicasMade)
	}
}

func TestGainsAreRecorded(t *testing.T) {
	tr := smallTrace(t, 20, 0.05, 1000, 3)
	cfg := baseConfig(t, tr, core.Static{})
	cfg.NoSticky = true
	res, err := Run(cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Fulfillments == 0 {
		t.Fatal("no fulfillments in a dense trace")
	}
	if res.TotalGain <= 0 {
		t.Errorf("step-utility total gain %g, want > 0", res.TotalGain)
	}
	if res.AvgUtilityRate <= 0 {
		t.Errorf("avg utility rate %g", res.AvgUtilityRate)
	}
	if res.Meetings != len(tr.Contacts) {
		t.Errorf("meetings %d, want %d", res.Meetings, len(tr.Contacts))
	}
}

// The observed utility rate of a static allocation must match the
// analytic social welfare (Eq. 5) within sampling noise — this ties the
// whole simulator to the theory.
func TestObservedMatchesAnalyticWelfare(t *testing.T) {
	const (
		nodes = 25
		mu    = 0.05
		rho   = 3
		items = 10
	)
	tr := smallTrace(t, nodes, mu, 6000, 4)
	pop := demand.Pareto(items, 1, 2)
	counts := alloc.Sqrt(pop.Rates, nodes, rho)
	cfg := Config{
		Rho: rho, Utility: utility.Step{Tau: 5}, Pop: pop,
		Contacts: tr.Source(), Policy: core.Static{}, Initial: counts,
		NoSticky: true, Seed: 9,
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	h := welfare.Homogeneous{
		Utility: cfg.Utility, Pop: pop, Mu: mu,
		Servers: nodes, Clients: nodes, PureP2P: true,
	}
	want := h.WelfareCounts(counts)
	got := res.AvgUtilityRate
	if math.Abs(got-want) > 0.08*math.Abs(want) {
		t.Errorf("observed %g vs analytic %g (>8%% off)", got, want)
	}
}

// TestImmediateFulfillment: a single node with no contacts fulfills every
// request for a cached item immediately; requests for others stay
// outstanding. A 1-node trace passes the shared dimension rule, and all
// three entry points agree bit for bit.
func TestImmediateFulfillment(t *testing.T) {
	tr := &trace.Trace{Nodes: 1, Duration: 1000}
	cfg := Config{
		Rho: 1, Utility: utility.Step{Tau: 10}, Pop: demand.Uniform(2, 1),
		Policy:   core.Static{},
		Initial:  alloc.Counts{1, 0},
		NoSticky: true, Seed: 5, WarmupFrac: -1,
	}
	single := cfg
	single.Contacts = tr.Source()
	res, err := Run(single)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Immediate == 0 {
		t.Error("no immediate fulfillments")
	}
	if res.Immediate != res.Fulfillments {
		t.Errorf("non-immediate fulfillments without any contacts: %d vs %d", res.Fulfillments, res.Immediate)
	}
	if res.Outstanding == 0 {
		t.Error("requests for the uncached item should stay outstanding")
	}
	// Every immediate fulfillment earns exactly h(0+) = 1.
	if math.Abs(res.TotalGain-float64(res.Immediate)) > 1e-9 {
		t.Errorf("gain %g != immediate count %d", res.TotalGain, res.Immediate)
	}
	// The digest a materialized 1-node trace produced when it still ran
	// through its own front end.
	if d := res.Digest(); d != 0xd36dcc080f74483f {
		t.Errorf("digest %#x, pinned 0xd36dcc080f74483f", d)
	}
	batch, err := RunBatch([]Config{cfg}, tr.Source())
	if err != nil {
		t.Fatalf("RunBatch: %v", err)
	}
	sharded, err := RunBatchSharded([]Config{cfg}, tr.Source(), 2)
	if err != nil {
		t.Fatalf("RunBatchSharded: %v", err)
	}
	for name, got := range map[string]*Result{"RunBatch": batch[0], "RunBatchSharded": sharded[0]} {
		if got.Digest() != res.Digest() {
			t.Errorf("%s digest %#x != Run %#x", name, got.Digest(), res.Digest())
		}
	}
}

func TestStickyReplicasNeverLost(t *testing.T) {
	tr := smallTrace(t, 15, 0.08, 2000, 6)
	items := 15
	q := &core.QCR{
		Reaction:       core.TunedReaction(utility.Step{Tau: 5}, 0.08, 15, 1),
		MandateRouting: true,
		Seed:           3,
	}
	cfg := Config{
		Rho: 3, Utility: utility.Step{Tau: 5}, Pop: demand.Pareto(items, 1, 2),
		Contacts: tr.Source(), Policy: q, Seed: 11,
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	for i, c := range res.FinalCounts {
		if c < 1 {
			t.Errorf("item %d lost all replicas despite sticky pinning", i)
		}
	}
	if res.ReplicasMade == 0 {
		t.Error("QCR made no replicas at all")
	}
}

func TestCapacityInvariant(t *testing.T) {
	tr := smallTrace(t, 12, 0.08, 1500, 7)
	q := &core.QCR{
		Reaction:       core.PathReplication(1),
		MandateRouting: true,
		Seed:           5,
	}
	cfg := Config{
		Rho: 2, Utility: utility.Exponential{Nu: 0.2}, Pop: demand.Pareto(12, 1, 2),
		Contacts: tr.Source(), Policy: q, Seed: 13,
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if total := res.FinalCounts.Total(); total > 12*2 {
		t.Errorf("total replicas %d exceed capacity %d", total, 24)
	}
	if err := res.FinalCounts.Validate(12, 2); err != nil {
		t.Errorf("final allocation infeasible: %v", err)
	}
}

func TestBinsSeries(t *testing.T) {
	tr := smallTrace(t, 10, 0.05, 400, 8)
	cfg := baseConfig(t, tr, core.Static{})
	cfg.NoSticky = true
	cfg.BinWidth = 50
	cfg.RecordCounts = true
	res, err := Run(cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(res.Bins) != 8 {
		t.Fatalf("got %d bins, want 8", len(res.Bins))
	}
	var gain float64
	var fuls int
	for k, b := range res.Bins {
		if b.T0 != float64(k)*50 || b.T1 != float64(k+1)*50 {
			t.Errorf("bin %d spans [%g,%g)", k, b.T0, b.T1)
		}
		gain += b.Gain
		fuls += b.Fulfillments
		if b.Counts == nil {
			t.Errorf("bin %d missing counts snapshot", k)
		}
	}
	if fuls == 0 {
		t.Error("series recorded no fulfillments")
	}
	// Bins cover the whole run (no warmup trim in series).
	if gain < res.TotalGain-1e-9 {
		t.Errorf("binned gain %g below measured %g", gain, res.TotalGain)
	}
}

func TestDeterminism(t *testing.T) {
	tr := smallTrace(t, 12, 0.06, 800, 9)
	mk := func() *Result {
		q := &core.QCR{Reaction: core.PathReplication(1), MandateRouting: true, Seed: 21}
		cfg := Config{
			Rho: 2, Utility: utility.Step{Tau: 8}, Pop: demand.Pareto(10, 1, 2),
			Contacts: tr.Source(), Policy: q, Seed: 22,
		}
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		return res
	}
	a, b := mk(), mk()
	if a.TotalGain != b.TotalGain || a.Fulfillments != b.Fulfillments || a.ReplicasMade != b.ReplicasMade {
		t.Errorf("nondeterministic: %+v vs %+v", a, b)
	}
}

func TestDemandSwitch(t *testing.T) {
	tr := smallTrace(t, 10, 0.1, 2000, 10)
	newPop := demand.Popularity{Rates: make([]float64, 10)}
	newPop.Rates[9] = 2 // all demand flips to the least popular item
	q := &core.QCR{Reaction: core.PathReplication(1), MandateRouting: true, Seed: 31}
	cfg := Config{
		Rho: 2, Utility: utility.Step{Tau: 5}, Pop: demand.Pareto(10, 1, 2),
		Contacts: tr.Source(), Policy: q, Seed: 32,
		DemandSwitch: &newPop, DemandSwitchTime: 500,
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	// After the switch, QCR should have grown item 9 well beyond its
	// single sticky replica.
	if res.FinalCounts[9] < 3 {
		t.Errorf("QCR did not adapt to the demand flip: item 9 has %d replicas", res.FinalCounts[9])
	}
}

// The headline integration test: with the Property-2 reaction function,
// QCR's time-average allocation approaches the optimal allocation, and
// its realized utility approaches the optimal static allocation's.
func TestQCRConvergesTowardOptimum(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	const (
		nodes = 30
		items = 20
		mu    = 0.05
		rho   = 3
	)
	f := utility.Power{Alpha: 0}
	pop := demand.Pareto(items, 1, 2)
	h := welfare.Homogeneous{Utility: f, Pop: pop, Mu: mu, Servers: nodes, Clients: nodes, PureP2P: true}
	opt, err := h.GreedyOptimal(rho)
	if err != nil {
		t.Fatal(err)
	}

	var qcrGain, optGain float64
	const trials = 3
	for trial := uint64(0); trial < trials; trial++ {
		tr := smallTrace(t, nodes, mu, 8000, 40+trial)
		q := &core.QCR{
			Reaction:       core.TunedReaction(f, mu, nodes, 0.1),
			MandateRouting: true,
			Seed:           trial,
		}
		cfg := Config{
			Rho: rho, Utility: f, Pop: pop, Contacts: tr.Source(), Policy: q,
			Seed: 100 + trial, WarmupFrac: 0.3,
		}
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		qcrGain += res.AvgUtilityRate / trials

		cfgO := Config{
			Rho: rho, Utility: f, Pop: pop, Contacts: tr.Source(), Policy: core.Static{Label: "opt"},
			Initial: opt, NoSticky: true, Seed: 200 + trial, WarmupFrac: 0.3,
		}
		resO, err := Run(cfgO)
		if err != nil {
			t.Fatal(err)
		}
		optGain += resO.AvgUtilityRate / trials
	}
	// Waiting-cost utilities are negative: "within 25% of OPT" means
	// qcrGain ≥ optGain − 0.25·|optGain| = 1.25·optGain.
	if qcrGain < 1.25*optGain {
		t.Errorf("QCR %g too far from OPT %g", qcrGain, optGain)
	}
	t.Logf("QCR %.4f vs OPT %.4f (loss %.1f%%)", qcrGain, optGain, 100*(qcrGain-optGain)/math.Abs(optGain))
}

package welfare

import (
	"hash/fnv"
	"math"
	"testing"

	"impatience/internal/alloc"
	"impatience/internal/contact"
	"impatience/internal/demand"
	"impatience/internal/trace"
	"impatience/internal/utility"
)

// fig4Taus is Figure 4's τ sweep: 7 values log-spaced over [1, 1000].
func fig4Taus() []float64 {
	taus := make([]float64, 7)
	for k := range taus {
		taus[k] = math.Exp(math.Log(1000) * float64(k) / 6)
	}
	return taus
}

// fig4Hetero is the OPT instance of one Figure 4 trial: 50 nodes that
// are both clients and servers, 50 Pareto items, and the empirical rates
// of a homogeneous µ = 0.05 contact stream over 5000 time units.
func fig4Hetero(t testing.TB, f utility.Function, seed uint64) Hetero {
	t.Helper()
	const nodes, items = 50, 50
	src, err := contact.NewHomogeneousReplayStream(nodes, 0.05, 5000, seed, seed^0xabcdef)
	if err != nil {
		t.Fatal(err)
	}
	rm, err := trace.EmpiricalRatesFrom(src)
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]int, nodes)
	for i := range ids {
		ids[i] = i
	}
	return Hetero{
		Utility: f,
		Pop:     demand.Pareto(items, 1, 2),
		Profile: demand.UniformProfile(items, nodes),
		Rates:   rm,
		Clients: ids,
		Servers: ids,
	}
}

// hybridHomogeneous has the shape of the hybrid-engine figures' OPT
// instance at N = 10⁵: pure P2P, 32 Pareto items, and the waiting cost
// (power α = 0) whose first copy of an item has infinite value.
func hybridHomogeneous(f utility.Function) Homogeneous {
	const nodes = 100_000
	return Homogeneous{
		Utility: f,
		Pop:     demand.Pareto(32, 1, 2),
		Mu:      2.5e-5,
		Servers: nodes,
		Clients: nodes,
		PureP2P: true,
	}
}

// placementDigest folds a placement's (item, server) bits into h.
func placementDigest(h interface{ Write([]byte) (int, error) }, p *alloc.Placement, items, servers int) {
	buf := make([]byte, 0, items*servers)
	for i := 0; i < items; i++ {
		for k := 0; k < servers; k++ {
			b := byte(0)
			if p.Has(i, k) {
				b = 1
			}
			buf = append(buf, b)
		}
	}
	h.Write(buf)
}

func countsDigest(c alloc.Counts) uint64 {
	h := fnv.New64a()
	for _, v := range c {
		h.Write([]byte{byte(v), byte(v >> 8), byte(v >> 16), byte(v >> 24)})
	}
	return h.Sum64()
}

// greedyPins holds digests taken from the greedies before they were
// memoized: every placement below must survive any rewrite of them bit
// for bit. Ties occur: at τ = 1000 the step's ExpectedGain saturates to
// exactly 1, so the heap's layout decides which tied entry wins.
var greedyPins = struct {
	fig4     map[string][3]uint64 // family → per-seed digest over the τ sweep
	hybrid   uint64               // GreedyOptimal counts, power α = 0
	stepTies uint64               // GreedyOptimal counts, step τ = 1000
}{
	fig4: map[string][3]uint64{
		"step": {0x24f48a632096c713, 0x8922f9508d875f9b, 0x50cdb6780c010a1b},
		"exp":  {0xc4162a8a6fc798d3, 0x251925510e0a60e7, 0x5204c0f458704f37},
	},
	hybrid:   0xd94d0675ca9ae214,
	stepTies: 0x56e6ac85171b8ea5,
}

// TestGreedyPlacementsPinned pins the heterogeneous greedy's placements
// over Figure 4's τ sweep, for step and exponential utilities at three
// seeds, and the homogeneous greedy's counts at the hybrid workload's
// shape and under saturated ties.
func TestGreedyPlacementsPinned(t *testing.T) {
	families := map[string]func(tau float64) utility.Function{
		"step": func(tau float64) utility.Function { return utility.Step{Tau: tau} },
		"exp":  func(tau float64) utility.Function { return utility.Exponential{Nu: 1 / tau} },
	}
	for name, family := range families {
		for k, seed := range []uint64{1, 2, 3} {
			h := fnv.New64a()
			for _, tau := range fig4Taus() {
				s := fig4Hetero(t, family(tau), seed)
				p, err := s.GreedySubmodular(5)
				if err != nil {
					t.Fatalf("%s seed %d τ=%g: %v", name, seed, tau, err)
				}
				placementDigest(h, p, s.Pop.Items(), len(s.Servers))
			}
			if got, want := h.Sum64(), greedyPins.fig4[name][k]; got != want {
				t.Errorf("%s seed %d: placement digest %#016x, pinned %#016x", name, seed, got, want)
			}
		}
	}

	c, err := hybridHomogeneous(utility.Power{Alpha: 0}).GreedyOptimal(3)
	if err != nil {
		t.Fatal(err)
	}
	if got := countsDigest(c); got != greedyPins.hybrid {
		t.Errorf("hybrid shape: counts digest %#016x, pinned %#016x", got, greedyPins.hybrid)
	}
	ties := Homogeneous{Utility: utility.Step{Tau: 1000}, Pop: demand.Pareto(50, 1, 2), Mu: 0.05, Servers: 50, Clients: 50, PureP2P: true}
	c, err = ties.GreedyOptimal(5)
	if err != nil {
		t.Fatal(err)
	}
	if got := countsDigest(c); got != greedyPins.stepTies {
		t.Errorf("step τ=1000: counts digest %#016x, pinned %#016x (%v)", got, greedyPins.stepTies, c)
	}
}

// countingUtility counts ExpectedGain calls.
type countingUtility struct {
	utility.Function
	calls *int
}

func (c countingUtility) ExpectedGain(rate float64) float64 {
	*c.calls++
	return c.Function.ExpectedGain(rate)
}

// TestGreedyEvaluationBudget bounds the utility evaluations each greedy
// spends. The heterogeneous greedy keeps every (item, client) term
// E[h(Exp(Λ))] from the last placement of the item, so an evaluation of
// a pair costs one ExpectedGain per client; the initial fill, where Λ = 0
// for every item, shares one row per server. The homogeneous greedy
// carries each item's gain at its next count forward, so it spends at
// most one ExpectedGain per placement plus one per item.
func TestGreedyEvaluationBudget(t *testing.T) {
	var calls int
	s := fig4Hetero(t, countingUtility{utility.Step{Tau: 10}, &calls}, 1)
	if _, err := s.GreedySubmodular(5); err != nil {
		t.Fatal(err)
	}
	t.Logf("GreedySubmodular, fig4 τ=10: %d ExpectedGain calls", calls)
	if calls > 400_000 {
		t.Errorf("GreedySubmodular spent %d ExpectedGain calls, want ≤ 400000", calls)
	}

	calls = 0
	h := hybridHomogeneous(countingUtility{utility.Power{Alpha: 0}, &calls})
	const rho = 3
	if _, err := h.GreedyOptimal(rho); err != nil {
		t.Fatal(err)
	}
	bound := alloc.Capacity(h.Servers, rho) + h.Pop.Items()
	t.Logf("GreedyOptimal, N=%d: %d ExpectedGain calls", h.Servers, calls)
	if calls > bound {
		t.Errorf("GreedyOptimal spent %d ExpectedGain calls, want ≤ placements + items = %d", calls, bound)
	}
}

// TestGreedyOptimalAllocs: the homogeneous greedy allocates its result
// and a few per-item slices, nothing per placement.
func TestGreedyOptimalAllocs(t *testing.T) {
	h := hybridHomogeneous(utility.Power{Alpha: 0})
	allocs := testing.AllocsPerRun(3, func() {
		if _, err := h.GreedyOptimal(3); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 8 {
		t.Errorf("GreedyOptimal: %g allocations per call at N=%d, want ≤ 8", allocs, h.Servers)
	}
}

// FuzzGreedyOptimalBruteForce: on instances small enough to enumerate,
// Theorem 2's greedy attains the brute-force optimum for any utility
// family, parameter and contact rate, pure P2P or dedicated.
func FuzzGreedyOptimalBruteForce(f *testing.F) {
	f.Add(uint8(3), uint8(4), uint8(1), 0.1, uint8(0), 8.0, false)
	f.Add(uint8(4), uint8(6), uint8(2), 0.05, uint8(0), 1000.0, true)
	f.Add(uint8(2), uint8(5), uint8(2), 0.3, uint8(1), 0.3, true)
	f.Add(uint8(4), uint8(3), uint8(1), 2.0, uint8(2), 0.5, false)
	f.Add(uint8(3), uint8(6), uint8(2), 0.01, uint8(2), -1.0, true)
	f.Fuzz(func(t *testing.T, items, servers, rho uint8, mu float64, family uint8, param float64, pure bool) {
		if math.IsNaN(mu) || math.IsInf(mu, 0) || math.IsNaN(param) || math.IsInf(param, 0) {
			t.Skip()
		}
		mu = 1e-3 + math.Mod(math.Abs(mu), 10)
		a := math.Mod(math.Abs(param), 1)
		var u utility.Function
		switch family % 3 {
		case 0:
			u = utility.Step{Tau: 0.1 + math.Mod(math.Abs(param), 1000)}
		case 1:
			u = utility.Exponential{Nu: 0.01 + math.Mod(math.Abs(param), 10)}
		default:
			u = utility.Power{Alpha: 0.95 - 3*a} // α ∈ (−2.05, 0.95]
		}
		h := Homogeneous{
			Utility: u,
			Pop:     demand.Pareto(1+int(items)%4, 1, 1),
			Mu:      mu,
			Servers: 1 + int(servers)%6,
			PureP2P: pure,
		}
		h.Clients = h.Servers
		checkGreedyOptimal(t, h, 1+int(rho)%2)
	})
}

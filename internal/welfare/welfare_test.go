package welfare

import (
	"fmt"
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"

	"impatience/internal/alloc"
	"impatience/internal/demand"
	"impatience/internal/trace"
	"impatience/internal/utility"
)

func newRNG(seed uint64) *rand.Rand { return rand.New(rand.NewPCG(seed, seed|1)) }

func homog(f utility.Function, items, servers int, pure bool) Homogeneous {
	return Homogeneous{
		Utility: f,
		Pop:     demand.Pareto(items, 1, 1),
		Mu:      0.05,
		Servers: servers,
		Clients: servers,
		PureP2P: pure,
	}
}

func TestValidate(t *testing.T) {
	h := homog(utility.Step{Tau: 10}, 5, 10, false)
	if err := h.Validate(); err != nil {
		t.Fatalf("valid system rejected: %v", err)
	}
	h.Mu = 0
	if err := h.Validate(); err == nil {
		t.Error("µ=0 accepted")
	}
	h = homog(utility.NegLog{}, 5, 10, true)
	if err := h.Validate(); err == nil {
		t.Error("unbounded utility accepted for pure P2P")
	}
	h = homog(utility.Step{Tau: 1}, 5, 10, true)
	h.Clients = 7
	if err := h.Validate(); err == nil {
		t.Error("pure P2P with |C|≠|S| accepted")
	}
}

// Eq. (3): dedicated-node welfare equals the direct sum Σ d_i E[h(Exp(µx_i))].
func TestWelfareDedicatedClosedForm(t *testing.T) {
	h := homog(utility.Exponential{Nu: 0.2}, 4, 10, false)
	x := []float64{3, 1, 0.5, 7}
	var want float64
	for i, d := range h.Pop.Rates {
		want += d * h.Utility.ExpectedGain(h.Mu*x[i])
	}
	if got := h.Welfare(x); math.Abs(got-want) > 1e-12 {
		t.Errorf("got %g, want %g", got, want)
	}
}

// Eq. (5): the pure-P2P correction weights h(0+) by x_i/N.
func TestWelfarePureP2PImmediateTerm(t *testing.T) {
	h := homog(utility.Step{Tau: 5}, 2, 10, true)
	x := []float64{10, 0}
	// Item 0 on all nodes: every request for it is immediate → gain 1.
	// Item 1 nowhere: gain 0.
	want := h.Pop.Rates[0] * 1
	if got := h.Welfare(x); math.Abs(got-want) > 1e-12 {
		t.Errorf("got %g, want %g", got, want)
	}
}

func TestWelfareZeroDemandItemIgnored(t *testing.T) {
	h := homog(utility.Power{Alpha: 0}, 3, 10, false)
	h.Pop.Rates[2] = 0
	x := []float64{5, 5, 0} // item 2 has no replicas and no demand
	if got := h.Welfare(x); math.IsInf(got, -1) || math.IsNaN(got) {
		t.Errorf("zero-demand item poisoned welfare: %g", got)
	}
}

// Theorem 2 (concavity): welfare along the replica count of any single
// item has non-increasing increments.
func TestWelfareConcaveIncrements(t *testing.T) {
	for _, f := range []utility.Function{
		utility.Step{Tau: 10}, utility.Exponential{Nu: 0.1}, utility.Power{Alpha: 0.5}, utility.Power{Alpha: -1},
	} {
		for _, pure := range []bool{false, true} {
			h := homog(f, 1, 50, pure)
			prev := math.Inf(1)
			for k := 0; k < 49; k++ {
				inc := h.itemGain(0, float64(k+1)) - h.itemGain(0, float64(k))
				if inc > prev+1e-9 {
					t.Errorf("%s pure=%v: increment grew at k=%d (%g > %g)", f.Name(), pure, k, inc, prev)
				}
				prev = inc
			}
		}
	}
}

// Greedy equals brute force on instances small enough to enumerate:
// every grid point of items ≤ 4, servers ≤ 6 and ρ ≤ 2, pure P2P and
// dedicated, for one utility of each family.
func TestGreedyOptimalMatchesBruteForce(t *testing.T) {
	for _, f := range []utility.Function{
		utility.Step{Tau: 8}, utility.Exponential{Nu: 0.3}, utility.Power{Alpha: 0.5},
	} {
		for _, pure := range []bool{false, true} {
			for items := 1; items <= 4; items++ {
				for servers := 1; servers <= 6; servers++ {
					for rho := 1; rho <= 2; rho++ {
						h := Homogeneous{
							Utility: f,
							Pop:     demand.Pareto(items, 1, 1),
							Mu:      0.1,
							Servers: servers,
							Clients: servers,
							PureP2P: pure,
						}
						checkGreedyOptimal(t, h, rho)
					}
				}
			}
		}
	}
}

// checkGreedyOptimal compares GreedyOptimal's welfare with the best over
// every count vector that fits the budget.
func checkGreedyOptimal(t *testing.T, h Homogeneous, rho int) {
	t.Helper()
	got, err := h.GreedyOptimal(rho)
	if err != nil {
		t.Fatalf("%s: GreedyOptimal: %v", h.Utility.Name(), err)
	}
	if err := got.Validate(h.Servers, rho); err != nil {
		t.Fatalf("%s: infeasible greedy %v: %v", h.Utility.Name(), got, err)
	}
	budget := alloc.Capacity(h.Servers, rho)
	best := math.Inf(-1)
	var bestAlloc alloc.Counts
	cand := make(alloc.Counts, h.Pop.Items())
	var rec func(i, left int)
	rec = func(i, left int) {
		if i == len(cand) {
			if u := h.WelfareCounts(cand); u > best {
				best = u
				bestAlloc = append(alloc.Counts(nil), cand...)
			}
			return
		}
		for c := 0; c <= h.Servers && c <= left; c++ {
			cand[i] = c
			rec(i+1, left-c)
		}
	}
	rec(0, budget)
	gu := h.WelfareCounts(got)
	if gu == best {
		return
	}
	if math.IsInf(best, 0) || math.Abs(gu-best) > 1e-9*math.Max(1, math.Abs(best)) {
		t.Errorf("%s pure=%v I=%d S=%d ρ=%d µ=%g: greedy %v (U=%g) vs brute %v (U=%g)",
			h.Utility.Name(), h.PureP2P, h.Pop.Items(), h.Servers, rho, h.Mu, got, gu, bestAlloc, best)
	}
}

func TestGreedyOptimalExhaustsBudget(t *testing.T) {
	h := homog(utility.Step{Tau: 10}, 50, 50, true)
	c, err := h.GreedyOptimal(5)
	if err != nil {
		t.Fatalf("GreedyOptimal: %v", err)
	}
	if c.Total() != 250 {
		t.Errorf("total %d, want 250", c.Total())
	}
	if err := c.Validate(50, 5); err != nil {
		t.Errorf("infeasible: %v", err)
	}
}

func TestGreedyOptimalCostUtilityCoversAllItems(t *testing.T) {
	// With a cost-type utility every demanded item must get at least one
	// replica (the first copy has unbounded marginal value).
	h := homog(utility.Power{Alpha: 0}, 50, 50, true)
	c, err := h.GreedyOptimal(5)
	if err != nil {
		t.Fatalf("GreedyOptimal: %v", err)
	}
	for i, v := range c {
		if v == 0 {
			t.Errorf("item %d got no replicas under waiting-cost utility", i)
		}
	}
}

// Property 1 balance: the relaxed optimum satisfies d_i·ϕ(x_i) = const on
// interior coordinates, and for power utilities follows d^{1/(2-α)}.
func TestRelaxedOptimalBalance(t *testing.T) {
	h := homog(utility.Exponential{Nu: 0.15}, 20, 50, false)
	x, err := h.RelaxedOptimal(5)
	if err != nil {
		t.Fatalf("RelaxedOptimal: %v", err)
	}
	var total float64
	for _, v := range x {
		total += v
	}
	if math.Abs(total-250) > 1e-6 {
		t.Errorf("budget %g, want 250", total)
	}
	var lambda float64
	seen := false
	for i, v := range x {
		if v > 1e-6 && v < 50-1e-6 {
			m := h.Pop.Rates[i] * h.Utility.Phi(h.Mu, v)
			if !seen {
				lambda, seen = m, true
			} else if math.Abs(m-lambda) > 1e-4*lambda {
				t.Errorf("balance violated at %d: %g vs %g", i, m, lambda)
			}
		}
	}
	if !seen {
		t.Error("no interior coordinates")
	}
}

func TestRelaxedOptimalPowerLaw(t *testing.T) {
	// Figure 2: for power utility the interior optimum follows
	// x_i ∝ d_i^{1/(2-α)}.
	for _, alpha := range []float64{-1, 0, 0.5} {
		h := homog(utility.Power{Alpha: alpha}, 25, 200, false)
		x, err := h.RelaxedOptimal(2) // budget 400, caps loose
		if err != nil {
			t.Fatalf("α=%g: %v", alpha, err)
		}
		exp := 1 / (2 - alpha)
		ref := x[0] / math.Pow(h.Pop.Rates[0], exp)
		for i := 1; i < len(x); i++ {
			if x[i] >= 200-1e-6 || x[i] <= 1e-9 {
				continue
			}
			want := ref * math.Pow(h.Pop.Rates[i], exp)
			if math.Abs(x[i]-want) > 1e-3*want {
				t.Errorf("α=%g item %d: x=%g, want %g", alpha, i, x[i], want)
			}
		}
	}
}

// The integer greedy optimum should closely track the relaxed optimum.
func TestGreedyNearRelaxed(t *testing.T) {
	h := homog(utility.Step{Tau: 20}, 50, 50, false)
	gi, err := h.GreedyOptimal(5)
	if err != nil {
		t.Fatal(err)
	}
	xr, err := h.RelaxedOptimal(5)
	if err != nil {
		t.Fatal(err)
	}
	ui := h.WelfareCounts(gi)
	ur := h.Welfare(xr)
	if ui > ur+1e-9 {
		t.Errorf("integer optimum %g exceeds relaxed %g", ui, ur)
	}
	if ui < ur-0.02*math.Abs(ur) {
		t.Errorf("integer optimum %g too far below relaxed %g", ui, ur)
	}
}

// Discrete-time welfare approaches the continuous one as δ → 0 (§3.4).
func TestDiscreteWelfareConverges(t *testing.T) {
	h := homog(utility.Exponential{Nu: 0.5}, 10, 20, false)
	c, err := h.GreedyOptimal(2)
	if err != nil {
		t.Fatal(err)
	}
	want := h.WelfareCounts(c)
	prevGap := math.Inf(1)
	for _, delta := range []float64{1, 0.25, 0.05} {
		got := h.WelfareDiscrete(c, delta)
		gap := math.Abs(got - want)
		if gap > prevGap*1.2+1e-12 {
			t.Errorf("δ=%g: gap %g did not shrink (prev %g)", delta, gap, prevGap)
		}
		prevGap = gap
	}
	if prevGap > 0.02*math.Abs(want) {
		t.Errorf("residual gap %g too large (U=%g)", prevGap, want)
	}
}

// ---------------------------------------------------------------------------
// Heterogeneous (Lemma 1) tests.

func heteroUniform(f utility.Function, items, nodes int, mu float64) Hetero {
	ids := make([]int, nodes)
	for i := range ids {
		ids[i] = i
	}
	return Hetero{
		Utility: f,
		Pop:     demand.Pareto(items, 1, 1),
		Profile: demand.UniformProfile(items, nodes),
		Rates:   trace.UniformRates(nodes, mu),
		Clients: ids,
		Servers: ids,
	}
}

// With uniform rates, Lemma 1 must reduce exactly to the homogeneous
// pure-P2P closed form (Eq. 5).
func TestHeteroReducesToHomogeneous(t *testing.T) {
	const (
		items = 6
		nodes = 8
		mu    = 0.07
		rho   = 2
	)
	f := utility.Step{Tau: 6}
	s := heteroUniform(f, items, nodes, mu)
	h := Homogeneous{Utility: f, Pop: s.Pop, Mu: mu, Servers: nodes, Clients: nodes, PureP2P: true}
	counts := alloc.Counts{2, 3, 1, 0, 4, 6}
	p, err := alloc.Place(counts, nodes, rho)
	if err != nil {
		t.Fatalf("Place: %v", err)
	}
	got := s.Welfare(p)
	want := h.WelfareCounts(counts)
	if math.Abs(got-want) > 1e-9*math.Max(1, math.Abs(want)) {
		t.Errorf("hetero=%g homog=%g", got, want)
	}
}

// Theorem 1 (submodularity): for random systems, random placements A ⊆ B
// and a random extra copy, the marginal at A is ≥ the marginal at B.
func TestSubmodularityProperty(t *testing.T) {
	prop := func(seed uint64) bool {
		rng := newRNG(seed)
		nodes := 4 + rng.IntN(4)
		items := 1 + rng.IntN(3)
		rho := items // plenty of room so Set never fails
		fams := []utility.Function{
			utility.Step{Tau: 1 + rng.Float64()*20},
			utility.Exponential{Nu: 0.05 + rng.Float64()},
			utility.Power{Alpha: rng.Float64()},
		}
		f := fams[rng.IntN(len(fams))]
		s := heteroUniform(f, items, nodes, 0.05)
		// Random heterogeneous rates.
		for a := 0; a < nodes; a++ {
			for b := a + 1; b < nodes; b++ {
				s.Rates.Set(a, b, rng.Float64()*0.2)
			}
		}
		// Build nested placements A ⊆ B.
		pA := alloc.NewPlacement(items, nodes, rho)
		pB := alloc.NewPlacement(items, nodes, rho)
		for i := 0; i < items; i++ {
			for m := 0; m < nodes; m++ {
				r := rng.Float64()
				if r < 0.25 {
					pA.Set(i, m, true)
					pB.Set(i, m, true)
				} else if r < 0.5 {
					pB.Set(i, m, true)
				}
			}
		}
		// Random candidate copy not in B.
		var ci, cm int
		found := false
		for tries := 0; tries < 50; tries++ {
			ci, cm = rng.IntN(items), rng.IntN(nodes)
			if !pB.Has(ci, cm) {
				found = true
				break
			}
		}
		if !found {
			return true
		}
		uA := s.Welfare(pA)
		uB := s.Welfare(pB)
		pA.Set(ci, cm, true)
		pB.Set(ci, cm, true)
		dA := s.Welfare(pA) - uA
		dB := s.Welfare(pB) - uB
		if math.IsInf(uA, -1) || math.IsInf(uB, -1) {
			return true // degenerate; cost utility with uncovered demand
		}
		return dA >= dB-1e-9*math.Max(1, math.Abs(dB))
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

// Monotonicity: adding a replica never decreases welfare.
func TestMonotonicityProperty(t *testing.T) {
	prop := func(seed uint64) bool {
		rng := newRNG(seed)
		nodes := 3 + rng.IntN(5)
		items := 1 + rng.IntN(4)
		s := heteroUniform(utility.Exponential{Nu: 0.2}, items, nodes, 0.03+rng.Float64()*0.1)
		p := alloc.NewPlacement(items, nodes, items)
		var u float64 = s.Welfare(p)
		for step := 0; step < 6; step++ {
			i, m := rng.IntN(items), rng.IntN(nodes)
			if p.Has(i, m) {
				continue
			}
			p.Set(i, m, true)
			u2 := s.Welfare(p)
			if u2 < u-1e-12 {
				return false
			}
			u = u2
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// The lazy submodular greedy must match the plain greedy (recompute all
// marginals each step) on small instances, over seeds, utilities and
// system shapes: pure P2P, dedicated clients disjoint from the servers,
// a non-uniform profile, per-item utilities and zero-rate pairs.
func TestGreedySubmodularMatchesPlainGreedy(t *testing.T) {
	const (
		items = 4
		nodes = 5
		rho   = 2
	)
	utilities := []utility.Function{
		utility.Step{Tau: 1}, utility.Step{Tau: 10}, utility.Step{Tau: 1000},
		utility.Exponential{Nu: 0.1}, utility.Power{Alpha: 0.5},
	}
	shapes := []string{"p2p", "dedicated", "profile", "per-item", "zero-rate"}
	for _, seed := range []uint64{17, 29, 41} {
		for _, f := range utilities {
			for _, shape := range shapes {
				rng := newRNG(seed)
				s := heteroUniform(f, items, nodes, 0.05)
				if shape == "dedicated" {
					s = dedicated(f, items, nodes, 3, 0.05)
				}
				for a := 0; a < s.Rates.Nodes; a++ {
					for b := a + 1; b < s.Rates.Nodes; b++ {
						r := 0.01 + rng.Float64()*0.1
						if shape == "zero-rate" && rng.IntN(3) == 0 {
							r = 0
						}
						s.Rates.Set(a, b, r)
					}
				}
				switch shape {
				case "profile":
					s.Profile = randomProfile(rng, items, len(s.Clients))
				case "per-item":
					s.Utilities = []utility.Function{nil, utility.Exponential{Nu: 0.3}, utility.Step{Tau: 4}, utility.Power{Alpha: -1}}
				}
				name := fmt.Sprintf("seed=%d/%s/%s", seed, f.Name(), shape)
				checkLazyMatchesPlain(t, name, s, rho)
			}
		}
	}
}

// randomProfile draws a profile whose rows sum to 1 over clients, with
// some clients issuing no requests for an item.
func randomProfile(rng *rand.Rand, items, clients int) demand.Profile {
	p := demand.Profile{P: make([][]float64, items)}
	for i := range p.P {
		row := make([]float64, clients)
		var sum float64
		for cn := range row {
			if rng.IntN(4) > 0 {
				row[cn] = rng.Float64()
				sum += row[cn]
			}
		}
		if sum == 0 {
			row[0], sum = 1, 1
		}
		for cn := range row {
			row[cn] /= sum
		}
		p.P[i] = row
	}
	return p
}

// checkLazyMatchesPlain checks that the lazy greedy's placement is one
// the plain greedy (re-evaluate every feasible pair at every step) can
// reach. It replays the placement: at each step some remaining pair of
// it must attain the best marginal over all feasible pairs, and at the
// end no feasible pair may be left. Ties, as among the first copies of
// a cost-type item, whose marginals are all infinite, may be broken
// either way, so the replay tries every tied pair; without ties it asks
// for the plain greedy's placement itself.
func checkLazyMatchesPlain(t *testing.T, name string, s Hetero, rho int) {
	t.Helper()
	items, servers := s.Pop.Items(), len(s.Servers)
	lazy, err := s.GreedySubmodular(rho)
	if err != nil {
		t.Fatalf("%s: GreedySubmodular: %v", name, err)
	}
	plain := alloc.NewPlacement(items, servers, rho)
	var replay func() bool
	replay = func() bool {
		best := math.Inf(-1)
		gains := make([]float64, items*servers)
		for i := 0; i < items; i++ {
			for k := 0; k < servers; k++ {
				gains[i*servers+k] = math.Inf(-1)
				if plain.Has(i, k) || plain.Load(k) >= rho {
					continue
				}
				gains[i*servers+k] = plainMarginal(s, plain, i, k)
				best = math.Max(best, gains[i*servers+k])
			}
		}
		if math.IsInf(best, -1) {
			return true // nothing feasible is left
		}
		for i := 0; i < items; i++ {
			for k := 0; k < servers; k++ {
				g := gains[i*servers+k]
				if !lazy.Has(i, k) || plain.Has(i, k) || math.IsInf(g, -1) || g < best-1e-9*math.Max(1, math.Abs(best)) {
					continue
				}
				plain.Set(i, k, true)
				ok := replay()
				plain.Set(i, k, false)
				if ok {
					return true
				}
			}
		}
		return false
	}
	if !replay() {
		t.Errorf("%s: no plain greedy run reaches the lazy greedy's placement %v", name, lazy.Counts())
	}
}

// plainMarginal is the welfare gain of adding item i on server k to p,
// summed client by client from Lemma 1's per-client terms. An infinite
// gain, the first copy reaching a client of a cost-type utility, ranks
// by demand as in the greedy.
func plainMarginal(s Hetero, p *alloc.Placement, i, k int) float64 {
	d := s.Pop.Rates[i]
	var gain float64
	for cn, pi := range s.Profile.P[i] {
		if pi == 0 {
			continue
		}
		before := plainClientGain(s, p, i, cn)
		p.Set(i, k, true)
		after := plainClientGain(s, p, i, cn)
		p.Set(i, k, false)
		if after != before {
			gain += d * pi * (after - before)
		}
	}
	if math.IsInf(gain, 1) {
		return math.MaxFloat64 * math.Min(1, d)
	}
	return gain
}

// plainClientGain is U_{i,n} for the client at index cn: h(0⁺) if the
// client holds item i, else E[h(Exp(Λ))] over the holders' rates.
func plainClientGain(s Hetero, p *alloc.Placement, i, cn int) float64 {
	f := s.utilityFor(i)
	n := s.Clients[cn]
	var lambda float64
	for k, m := range s.Servers {
		if !p.Has(i, k) {
			continue
		}
		if m == n {
			return f.H0()
		}
		lambda += s.Rates.At(m, n)
	}
	return f.ExpectedGain(lambda)
}

func TestGreedySubmodularNearBruteForceOptimum(t *testing.T) {
	// (1−1/e) guarantee; on tiny instances greedy is usually optimal.
	rng := newRNG(23)
	const (
		items = 3
		nodes = 3
		rho   = 1
	)
	s := heteroUniform(utility.Exponential{Nu: 0.4}, items, nodes, 0.05)
	for a := 0; a < nodes; a++ {
		for b := a + 1; b < nodes; b++ {
			s.Rates.Set(a, b, 0.02+rng.Float64()*0.2)
		}
	}
	g, err := s.GreedySubmodular(rho)
	if err != nil {
		t.Fatal(err)
	}
	ug := s.Welfare(g)
	// Brute force over all assignments of one item per server.
	var best float64 = math.Inf(-1)
	var rec func(m int, p *alloc.Placement)
	p := alloc.NewPlacement(items, nodes, rho)
	rec = func(m int, p *alloc.Placement) {
		if m == nodes {
			if u := s.Welfare(p); u > best {
				best = u
			}
			return
		}
		for i := 0; i < items; i++ {
			p.Set(i, m, true)
			rec(m+1, p)
			p.Set(i, m, false)
		}
	}
	rec(0, p)
	if ug < (1-1/math.E)*best-1e-9 {
		t.Errorf("greedy U=%g below guarantee of optimum %g", ug, best)
	}
	if ug < best-0.05*math.Abs(best) {
		t.Logf("note: greedy U=%g vs optimum %g (within guarantee)", ug, best)
	}
}

func TestHeteroValidate(t *testing.T) {
	s := heteroUniform(utility.Step{Tau: 1}, 3, 4, 0.05)
	if err := s.Validate(); err != nil {
		t.Fatalf("valid rejected: %v", err)
	}
	bad := s
	bad.Clients = []int{9}
	if err := bad.Validate(); err == nil {
		t.Error("out-of-range client accepted")
	}
	bad = s
	bad.Profile = demand.UniformProfile(3, 2)
	if err := bad.Validate(); err == nil {
		t.Error("profile width mismatch accepted")
	}
}

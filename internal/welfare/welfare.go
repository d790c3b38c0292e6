// Package welfare evaluates the social welfare U(x) of Section 3.5 — the
// aggregate expected delay-utility of all client demand under a given
// cache allocation — and computes optimal allocations:
//
//   - closed-form homogeneous evaluators (Eqs. 2–5, both contact models,
//     dedicated-node and pure-P2P populations);
//   - the general heterogeneous evaluator of Lemma 1, driven by a pairwise
//     contact-rate matrix;
//   - the homogeneous greedy of Theorem 2 (optimal, by concavity);
//   - the lazy submodular greedy of Theorem 1 + Nemhauser et al., a
//     (1−1/e)-approximation for heterogeneous systems;
//   - the relaxed (real-valued) optimum via water-filling on the balance
//     condition of Property 1.
package welfare

import (
	"fmt"
	"math"

	"impatience/internal/alloc"
	"impatience/internal/demand"
	"impatience/internal/numeric"
	"impatience/internal/trace"
	"impatience/internal/utility"
)

// Homogeneous describes a system with uniform pairwise contact rate µ and
// uniform item popularity across clients (π_{i,n} = 1/N), the setting of
// Section 4. In the pure-P2P case clients double as servers, enabling
// immediate fulfillment of a request for a locally cached item.
type Homogeneous struct {
	Utility utility.Function
	// Utilities, when non-empty, gives each item its own delay-utility
	// (Section 3.2); nil entries fall back to Utility.
	Utilities []utility.Function
	Pop       demand.Popularity
	Mu        float64 // pairwise contact rate
	Servers   int     // |S|
	Clients   int     // |C| = N; used by the pure-P2P correction factor
	PureP2P   bool    // C = S (true) or C ∩ S = ∅ (false)
}

// Validate reports structural errors.
func (h Homogeneous) Validate() error {
	switch {
	case h.Utility == nil && len(h.Utilities) == 0:
		return fmt.Errorf("welfare: nil utility")
	case h.Mu <= 0:
		return fmt.Errorf("welfare: µ=%g", h.Mu)
	case h.Servers <= 0:
		return fmt.Errorf("welfare: %d servers", h.Servers)
	case h.PureP2P && h.Clients != h.Servers:
		return fmt.Errorf("welfare: pure P2P requires |C|=|S| (got %d,%d)", h.Clients, h.Servers)
	case h.PureP2P && h.Utility != nil && !utility.SupportsPureP2P(h.Utility):
		return fmt.Errorf("welfare: %s has unbounded h(0+); dedicated-node case only", h.Utility.Name())
	case !h.PureP2P && h.Clients <= 0:
		return fmt.Errorf("welfare: %d clients", h.Clients)
	}
	return validateUtilities(h.Utilities, h.Pop.Items(), h.PureP2P)
}

// itemGain returns the expected gain of one request for item i with x
// replicas (real-valued), under the continuous-time contact model:
// Eq. (3) per-item term for dedicated nodes, Eq. (5) for pure P2P.
func (h Homogeneous) itemGain(i int, x float64) float64 {
	f := h.utilityFor(i)
	g := f.ExpectedGain(h.Mu * x)
	if !h.PureP2P {
		return g
	}
	frac := x / float64(h.Clients)
	if frac > 1 {
		frac = 1
	}
	return frac*f.H0() + (1-frac)*g
}

// Welfare evaluates U(x) for a real-valued replica vector under the
// continuous-time model. Items with zero demand contribute nothing even
// if their gain would be −∞ (no requests are ever made for them).
func (h Homogeneous) Welfare(x []float64) float64 {
	var u float64
	for i, d := range h.Pop.Rates {
		if d == 0 {
			continue
		}
		u += d * h.itemGain(i, x[i])
	}
	return u
}

// WelfareCounts evaluates U(x) for an integer allocation.
func (h Homogeneous) WelfareCounts(c alloc.Counts) float64 {
	x := make([]float64, len(c))
	for i, v := range c {
		x[i] = float64(v)
	}
	return h.Welfare(x)
}

// WelfareDiscrete evaluates the discrete-time social welfare of Eq. (2)
// (dedicated) or Eq. (4) (pure P2P) for slot length delta: the per-slot
// miss probability of an item with x replicas is q = (1−µδ)^x.
func (h Homogeneous) WelfareDiscrete(c alloc.Counts, delta float64) float64 {
	var u float64
	for i, d := range h.Pop.Rates {
		if d == 0 {
			continue
		}
		f := h.utilityFor(i)
		q := math.Pow(1-h.Mu*delta, float64(c[i]))
		g := utility.DiscreteExpectedGain(f, q, delta)
		if h.PureP2P {
			frac := float64(c[i]) / float64(h.Clients)
			if frac > 1 {
				frac = 1
			}
			// A request from a holder is fulfilled immediately (before the
			// first slot elapses): gain h(0+) ~ here h evaluated at 0⁺,
			// approximated by H0 as in the continuous model.
			g = frac*f.H0() + (1-frac)*g
		}
		u += d * g
	}
	return u
}

// GreedyOptimal computes the optimal integer allocation of Theorem 2 for
// per-server capacity rho: repeatedly grant the next cache slot to the
// item with the largest marginal welfare gain. Concavity of the per-item
// gain makes the greedy exact. The returned allocation uses the full
// capacity unless every item already has |S| replicas.
//
// Each item's gain at its next count is carried into the following
// step, so a grant costs one gain evaluation; the first step's gains at
// 0 and 1 replicas are shared by every item of the shared utility.
func (h Homogeneous) GreedyOptimal(rho int) (alloc.Counts, error) {
	if err := h.Validate(); err != nil {
		return nil, err
	}
	items := h.Pop.Items()
	c := make(alloc.Counts, items)
	budget := alloc.Capacity(h.Servers, rho)
	// next[i] is G_i(c_i+1), the gain item i's heap entry leads to.
	next := make([]float64, items)
	pq := make(maxHeap, 0, items)
	var g0, g1 float64 // G(0), G(1) under the shared utility
	shared := false
	for i := 0; i < items; i++ {
		if h.Pop.Rates[i] <= 0 {
			continue
		}
		var lo float64
		switch {
		case h.ownUtility(i):
			lo, next[i] = h.itemGain(i, 0), h.itemGain(i, 1)
		case !shared:
			g0, g1, shared = h.itemGain(i, 0), h.itemGain(i, 1), true
			fallthrough
		default:
			lo, next[i] = g0, g1
		}
		pq.push(candidate{item: i, gain: h.marginalGain(i, lo, next[i])})
	}
	for placed := 0; placed < budget && len(pq) > 0; placed++ {
		i := pq.pop().item
		c[i]++
		if c[i] < h.Servers && placed+1 < budget {
			lo := next[i]
			next[i] = h.itemGain(i, float64(c[i]+1))
			pq.push(candidate{item: i, gain: h.marginalGain(i, lo, next[i])})
		}
	}
	// Spill leftover capacity (all demanded items saturated) onto
	// zero-demand items; it cannot hurt.
	placed := c.Total()
	for i := 0; i < items && placed < budget; i++ {
		for c[i] < h.Servers && placed < budget {
			c[i]++
			placed++
		}
	}
	return c, nil
}

// marginalGain is d_i·(hi − lo): the welfare increase from a replica of
// item i that raises its per-request gain from lo to hi.
func (h Homogeneous) marginalGain(i int, lo, hi float64) float64 {
	d := h.Pop.Rates[i]
	gain := d * (hi - lo)
	if math.IsNaN(gain) {
		return 0
	}
	// G(0) may be −∞ (cost-type utilities): the first replica has infinite
	// marginal value; order those by demand.
	if math.IsInf(gain, 1) {
		return math.MaxFloat64 * math.Min(1, d)
	}
	return gain
}

// RelaxedOptimal solves the continuous relaxation of the welfare
// maximization (Theorem 2) by water-filling on Property 1's balance
// condition d_i·ϕ(x_i) = λ, using the dedicated-node transform ϕ. The
// budget is the full capacity ρ·|S|; per-item caps are |S|. For large
// systems this tracks the integer optimum closely (Section 4.2).
func (h Homogeneous) RelaxedOptimal(rho int) ([]float64, error) {
	if err := h.Validate(); err != nil {
		return nil, err
	}
	p := numeric.WaterFillProblem{
		Weights: h.Pop.Rates,
		Caps:    capsFor(h.Pop.Items(), float64(h.Servers)),
		Budget:  float64(alloc.Capacity(h.Servers, rho)),
	}
	if len(h.Utilities) > 0 {
		p.DerivFor = func(i int, x float64) float64 { return h.utilityFor(i).Phi(h.Mu, x) }
	} else {
		p.Deriv = func(x float64) float64 { return h.Utility.Phi(h.Mu, x) }
	}
	return numeric.WaterFill(p)
}

func capsFor(items int, cap float64) []float64 {
	caps := make([]float64, items)
	for i := range caps {
		caps[i] = cap
	}
	return caps
}

// candidate is a greedy's heap entry: the marginal gain of one more
// copy of item (on server, in the heterogeneous greedy), evaluated when
// item had stamp copies placed.
type candidate struct {
	gain         float64
	item, server int
	stamp        int
}

// maxHeap is a max-heap of candidates by gain. push and pop follow
// container/heap's Push and Pop step for step, strict comparisons
// included: tied gains occur (a saturated step utility's gain is exactly
// 1), and the heap's layout decides which tied entry wins.
type maxHeap []candidate

func (h *maxHeap) push(c candidate) {
	*h = append(*h, c)
	q := *h
	for j := len(q) - 1; ; {
		i := (j - 1) / 2 // parent
		if i == j || !(q[j].gain > q[i].gain) {
			break
		}
		q[i], q[j] = q[j], q[i]
		j = i
	}
}

func (h *maxHeap) pop() candidate {
	q := *h
	n := len(q) - 1
	q[0], q[n] = q[n], q[0]
	for i := 0; ; {
		j1 := 2*i + 1
		if j1 >= n || j1 < 0 { // j1 < 0 after int overflow
			break
		}
		j := j1 // left child
		if j2 := j1 + 1; j2 < n && q[j2].gain > q[j1].gain {
			j = j2 // right child
		}
		if !(q[j].gain > q[i].gain) {
			break
		}
		q[i], q[j] = q[j], q[i]
		i = j
	}
	*h = q[:n]
	return q[n]
}

// ---------------------------------------------------------------------------
// Heterogeneous systems (Lemma 1).

// Hetero describes a system with arbitrary pairwise contact rates. Nodes
// 0..Rates.Nodes-1 are partitioned (possibly overlappingly) into clients
// and servers; the popularity profile maps items to clients.
type Hetero struct {
	Utility utility.Function
	// Utilities, when non-empty, gives each item its own delay-utility
	// (Section 3.2); nil entries fall back to Utility.
	Utilities []utility.Function
	Pop       demand.Popularity
	Profile   demand.Profile // rows sum to 1 over Clients indices
	Rates     *trace.RateMatrix
	Clients   []int // node ids that issue requests; Profile columns follow this order
	Servers   []int // node ids that cache content
}

// Validate reports structural errors.
func (s Hetero) Validate() error {
	switch {
	case s.Utility == nil && len(s.Utilities) == 0:
		return fmt.Errorf("welfare: nil utility")
	case s.Rates == nil:
		return fmt.Errorf("welfare: nil rate matrix")
	case len(s.Clients) == 0 || len(s.Servers) == 0:
		return fmt.Errorf("welfare: empty client or server set")
	case len(s.Profile.P) != s.Pop.Items():
		return fmt.Errorf("welfare: profile rows %d != items %d", len(s.Profile.P), s.Pop.Items())
	}
	for _, row := range s.Profile.P {
		if len(row) != len(s.Clients) {
			return fmt.Errorf("welfare: profile row width %d != clients %d", len(row), len(s.Clients))
		}
	}
	for _, n := range append(append([]int(nil), s.Clients...), s.Servers...) {
		if n < 0 || n >= s.Rates.Nodes {
			return fmt.Errorf("welfare: node %d outside rate matrix (%d nodes)", n, s.Rates.Nodes)
		}
	}
	return validateUtilities(s.Utilities, s.Pop.Items(), false)
}

// clientServers returns, per client, its index in Servers, or −1 for a
// client that caches nothing.
func (s Hetero) clientServers() []int {
	idx := make([]int, s.Rates.Nodes)
	for n := range idx {
		idx[n] = -1
	}
	for k, m := range s.Servers {
		idx[m] = k
	}
	srv := make([]int, len(s.Clients))
	for cn, n := range s.Clients {
		srv[cn] = idx[n]
	}
	return srv
}

// Welfare evaluates Lemma 1's continuous-time expression for a concrete
// placement (columns of p follow the order of s.Servers):
//
//	U(x) = Σ_i d_i Σ_n π_{i,n} [ x_{i,n}·h(0⁺) + (1−x_{i,n})·E[h(Exp(Λ_{i,n}))] ]
//
// with Λ_{i,n} = Σ_m x_{i,m}·µ_{m,n}.
func (s Hetero) Welfare(p *alloc.Placement) float64 {
	srv := s.clientServers()
	var u float64
	for i, d := range s.Pop.Rates {
		if d == 0 {
			continue
		}
		for cn, pi := range s.Profile.P[i] {
			if pi == 0 {
				continue
			}
			u += d * pi * s.clientGain(p, srv[cn], i, s.Clients[cn])
		}
	}
	return u
}

// clientGain is U_{i,n} for client node n, whose index in Servers is k
// (−1 if n caches nothing).
func (s Hetero) clientGain(p *alloc.Placement, k, item, n int) float64 {
	f := s.utilityFor(item)
	if k >= 0 && p.Has(item, k) {
		return f.H0()
	}
	var lambda float64
	for k, m := range s.Servers {
		if p.Has(item, k) {
			lambda += s.Rates.At(m, n)
		}
	}
	return f.ExpectedGain(lambda)
}

// GreedySubmodular computes a (1−1/e)-approximate optimal placement by
// lazy greedy over (item, server) pairs: submodularity of U (Theorem 1)
// guarantees stale upper bounds in the priority queue only ever
// overestimate, so re-evaluating the top candidate until it stays on top
// yields exactly the greedy solution at a fraction of the evaluations.
//
// A pair's marginal depends on its own item's copies only, so an entry
// goes stale only when its item is placed again; an entry that is not
// stale is on top with its exact value and is placed. Each client's
// E[h(Exp(Λ_{i,n}))] is kept from item i's last placement, so evaluating
// a pair costs one utility evaluation per client it reaches; in the
// initial fill, where Λ = 0 for every item, that evaluation does not
// depend on the item and is made once per server for every item of the
// shared utility.
func (s Hetero) GreedySubmodular(rho int) (*alloc.Placement, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	items, S, C := s.Pop.Items(), len(s.Servers), len(s.Clients)
	g := heteroGreedy{
		s:      s,
		p:      alloc.NewPlacement(items, S, rho),
		srv:    s.clientServers(),
		lambda: make([]float64, items*C),
		base:   make([]float64, items*C),
		placed: make([]int, items),
	}

	// Initial fill. Λ = 0 for every item, so base rows hold E[h(Exp(0))],
	// and under the shared utility a pair's E[h(Exp(µ_{m,n}))] depends on
	// the server alone: row holds it for one server at a time.
	shared := false // some demanded item has the shared utility
	for i := 0; i < items; i++ {
		shared = shared || s.Pop.Rates[i] > 0 && !s.ownUtility(i)
	}
	var e0 float64
	var row []float64
	if shared {
		e0, row = s.Utility.ExpectedGain(0), make([]float64, C)
	}
	for i := 0; i < items; i++ {
		e := e0
		if s.ownUtility(i) {
			e = s.Utilities[i].ExpectedGain(0)
		}
		for cn := range C {
			g.base[i*C+cn] = e
		}
	}
	gains := make([]float64, items*S)
	for k, m := range s.Servers {
		if shared {
			for cn, n := range s.Clients {
				if r := s.Rates.At(m, n); n != m && r != 0 {
					row[cn] = s.Utility.ExpectedGain(r)
				}
			}
		}
		for i := 0; i < items; i++ {
			if s.Pop.Rates[i] <= 0 {
				continue
			}
			if s.ownUtility(i) {
				gains[i*S+k] = g.marginal(i, k, nil)
			} else {
				gains[i*S+k] = g.marginal(i, k, row)
			}
		}
	}
	// Push in (item, server) order: the heap's layout, and with it the
	// winner among tied gains, depends on the push order.
	pq := make(maxHeap, 0, items*S)
	for i := 0; i < items; i++ {
		if s.Pop.Rates[i] <= 0 {
			continue
		}
		for k := 0; k < S; k++ {
			pq.push(candidate{item: i, server: k, gain: gains[i*S+k]})
		}
	}

	budget := alloc.Capacity(S, rho)
	for placed := 0; placed < budget && len(pq) > 0; {
		top := pq.pop()
		if g.p.Has(top.item, top.server) || g.p.Load(top.server) >= rho {
			continue
		}
		if top.stamp != g.placed[top.item] {
			top.gain = g.marginal(top.item, top.server, nil)
			top.stamp = g.placed[top.item]
			if len(pq) > 0 && top.gain < pq[0].gain {
				pq.push(top)
				continue
			}
		}
		if err := g.place(top.item, top.server); err != nil {
			return nil, err
		}
		placed++
	}
	return g.p, nil
}

// heteroGreedy is GreedySubmodular's state. lambda and base are flat
// items × clients: lambda holds Λ_{i,n} and base E[h(Exp(Λ_{i,n}))].
type heteroGreedy struct {
	s            Hetero
	p            *alloc.Placement
	srv          []int // per client: its index in Servers, or −1
	lambda, base []float64
	placed       []int // per item: copies placed, the stamp of fresh entries
}

// marginal is the welfare gain of adding item i on server k. row, when
// non-nil, holds E[h(Exp(Λ_{i,n}+µ_{m,n}))] per client, computed for an
// item with Λ = 0.
func (g *heteroGreedy) marginal(i, k int, row []float64) float64 {
	s := &g.s
	C := len(s.Clients)
	lambda, base := g.lambda[i*C:(i+1)*C], g.base[i*C:(i+1)*C]
	m := s.Servers[k]
	f := s.utilityFor(i)
	d := s.Pop.Rates[i]
	var gain float64
	for cn, pi := range s.Profile.P[i] {
		if pi == 0 {
			continue
		}
		if ck := g.srv[cn]; ck >= 0 && g.p.Has(i, ck) {
			continue // already served locally, no change
		}
		n := s.Clients[cn]
		if n == m {
			// This client becomes a holder: gain jumps to h(0⁺).
			gain += d * pi * (f.H0() - base[cn])
			continue
		}
		r := s.Rates.At(m, n)
		if r == 0 {
			continue
		}
		var e float64
		if row != nil {
			e = row[cn]
		} else {
			e = f.ExpectedGain(lambda[cn] + r)
		}
		gain += d * pi * (e - base[cn])
	}
	if math.IsNaN(gain) {
		return 0
	}
	if math.IsInf(gain, 1) {
		return math.MaxFloat64 * math.Min(1, d)
	}
	return gain
}

// place adds item i on server k and refreshes item i's rows.
func (g *heteroGreedy) place(i, k int) error {
	s := &g.s
	if err := g.p.Set(i, k, true); err != nil {
		return err
	}
	g.placed[i]++
	C := len(s.Clients)
	m := s.Servers[k]
	f := s.utilityFor(i)
	for cn, n := range s.Clients {
		r := s.Rates.At(m, n)
		if r == 0 {
			continue
		}
		g.lambda[i*C+cn] += r
		if s.Profile.P[i][cn] != 0 {
			g.base[i*C+cn] = f.ExpectedGain(g.lambda[i*C+cn])
		}
	}
	return nil
}

package sim

import (
	"math"
	"sort"
	"testing"
	"time"

	"impatience/internal/adversary"
	"impatience/internal/alloc"
	"impatience/internal/core"
	"impatience/internal/demand"
	"impatience/internal/faults"
	"impatience/internal/trace"
	"impatience/internal/utility"
)

// countingPolicy forwards to a QCR and logs every non-immediate
// OnFulfill, together with how many open items the requester had at that
// meeting.
type countingPolicy struct {
	core.Policy
	log []countedFulfill
}

type countedFulfill struct {
	node, item, q, open int
	age, t              float64
}

func (p *countingPolicy) OnFulfill(c core.Cache, node, peer, item, queries int, age, now float64) {
	if node != peer {
		open := len(c.(*state).reqs.Entries(node))
		p.log = append(p.log, countedFulfill{node, item, queries, open, age, now})
	}
	p.Policy.OnFulfill(c, node, peer, item, queries, age, now)
}

// TestQueryCountIsMeetingsSinceArrival checks every reported query
// counter against an independent recount from the contact list: a
// request fulfilled at time t after waiting age has seen exactly the
// meetings of its node in [t − age, t], the misses plus the hit, capped
// at core.MaxQueryCount + 1. Truncated meetings (fault-plan PLoss) and
// meetings with free-riding peers fulfil nothing but still count. The
// run is sized so that requesters hold both fewer and more open items
// than a peer has slots.
func TestQueryCountIsMeetingsSinceArrival(t *testing.T) {
	const (
		nodes, items, rho = 20, 40, 2
		mu, duration      = 0.05, 3000.0
	)
	tr := smallTrace(t, nodes, mu, duration, 23)
	// meetings[n] holds node n's contact times in ascending order.
	meetings := make([][]float64, nodes)
	for _, c := range tr.Contacts {
		meetings[c.A] = append(meetings[c.A], c.T)
		meetings[c.B] = append(meetings[c.B], c.T)
	}
	cases := []struct {
		name string
		mod  func(*Config)
	}{
		{"plain", func(*Config) {}},
		{"ploss", func(c *Config) { c.Faults = &faults.Config{PLoss: 0.3, Seed: 5} }},
		{"free-riders", func(c *Config) { c.Adversary = &adversary.Config{FreeRiderFrac: 0.25, Seed: 9} }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			pol := &countingPolicy{Policy: &core.QCR{
				Reaction:       core.PathReplication(0.5),
				MandateRouting: true,
				StrictSource:   true,
				Seed:           3,
			}}
			cfg := Config{
				Rho:      rho,
				Utility:  utility.Step{Tau: 10},
				Pop:      demand.Pareto(items, 1, 10),
				Contacts: tr.Source(),
				Policy:   pol,
				Seed:     7,
			}
			tc.mod(&cfg)
			if _, err := Run(cfg); err != nil {
				t.Fatal(err)
			}
			if len(pol.log) < 100 {
				t.Fatalf("only %d fulfillments reached the policy", len(pol.log))
			}
			few, many := 0, 0
			for _, f := range pol.log {
				ts := meetings[f.node]
				lo := sort.SearchFloat64s(ts, f.t-f.age)
				hi := sort.Search(len(ts), func(i int) bool { return ts[i] > f.t })
				want := min(hi-lo, core.MaxQueryCount+1)
				if f.q != want {
					t.Fatalf("node %d item %d at t=%g (age %g): q = %d, %d meetings since arrival", f.node, f.item, f.t, f.age, f.q, want)
				}
				if f.open > rho {
					many++
				} else {
					few++
				}
			}
			if few == 0 || many == 0 {
				t.Errorf("open items at fulfillment: %d at most ρ, %d above ρ; want both", few, many)
			}
		})
	}
}

// TestMeetingCostIndependentOfBacklog times runner.step on meetings of a
// requester with 1 open request and with 2,000 open requests for items
// the peer does not cache: a meeting must cost the matched items, not
// the backlog, so the two costs stay within a factor of 4. The requests
// are for even items and the peer caches two odd items inside their
// range, so every cached item is really searched for.
func TestMeetingCostIndependentOfBacklog(t *testing.T) {
	if raceEnabled {
		t.Skip("wall-clock ratio under the race detector")
	}
	const (
		backlog = 2000
		items   = 2 * backlog
	)
	cached := []int{backlog + 1, items - 3}
	evens := func(n int) []int {
		req := make([]int, n)
		for k := range req {
			req[k] = 2 * k
		}
		return req
	}
	d := missMeetingCosts(t,
		missRunner(t, items, cached, evens(1)),
		missRunner(t, items, cached, evens(backlog)))
	ratio := float64(d[1]) / float64(d[0])
	t.Logf("per meeting: %v with 1 open request, %v with %d (ratio %.2f)",
		d[0], d[1], backlog, ratio)
	if ratio >= 4 {
		t.Errorf("a meeting with %d open requests costs %.1f× one with 1, want < 4", backlog, ratio)
	}
}

// TestMeetingCostIndependentOfCatalog times runner.step on miss meetings
// at ρ = 2 over a 64-item catalog, whose rows are one word, and a
// 4,096-item one, whose rows are 64: a meeting must cost the peer's
// slots, not the catalog width, so the two costs stay within a factor of
// 4. In both the requester has 16 open requests spread evenly over the
// catalog and the peer caches two items between them that nobody
// requests.
func TestMeetingCostIndependentOfCatalog(t *testing.T) {
	if raceEnabled {
		t.Skip("wall-clock ratio under the race detector")
	}
	const open = 16
	build := func(items int) *runner {
		gap := items / open
		req := make([]int, open)
		for k := range req {
			req[k] = k * gap
		}
		return missRunner(t, items, []int{gap + 1, items - gap + 1}, req)
	}
	d := missMeetingCosts(t, build(64), build(4096))
	ratio := float64(d[1]) / float64(d[0])
	t.Logf("per meeting: %v over 64 items, %v over 4096 (ratio %.2f)", d[0], d[1], ratio)
	if ratio >= 4 {
		t.Errorf("a meeting over 4096 items costs %.1f× one over 64, want < 4", ratio)
	}
}

// missRunner returns a static-policy runner over an items-wide catalog
// on 4 nodes at ρ = 2 in which node 1 caches the items cached and node 0
// has one open request, issued at time 0, for each item of requested.
func missRunner(t *testing.T, items int, cached, requested []int) *runner {
	const nodes, rho = 4, 2
	p := alloc.NewPlacement(items, nodes, rho)
	for _, it := range cached {
		if err := p.Set(it, 1, true); err != nil {
			t.Fatal(err)
		}
	}
	cfg := Config{
		Rho:              rho,
		Utility:          utility.Step{Tau: 10},
		Pop:              demand.Popularity{Rates: make([]float64, items)},
		Policy:           core.Static{},
		InitialPlacement: p,
		NoSticky:         true,
		Seed:             1,
		WarmupFrac:       -1,
	}
	runners, err := newRunners([]Config{cfg}, (&trace.Trace{Nodes: nodes, Duration: math.MaxFloat64}).Source())
	if err != nil {
		t.Fatal(err)
	}
	r := runners[0]
	for _, it := range requested {
		r.s.addRequest(0, it, 0)
	}
	return r
}

// missMeetingCosts times meetings of node 0 with node 1 on each runner
// and returns the per-meeting cost of each: the best of 7 repetitions of
// 20,000 meetings, the runners taking turns within each repetition. It
// fails the test if a meeting fulfilled a request, since every meeting
// must be a miss.
func missMeetingCosts(t *testing.T, runners ...*runner) []time.Duration {
	const meetings, reps = 20000, 7
	open := make([]int, len(runners))
	clock := make([]float64, len(runners))
	best := make([]time.Duration, len(runners))
	for i, r := range runners {
		open[i] = r.s.reqs.Total()
		best[i] = time.Duration(math.MaxInt64)
	}
	for rep := 0; rep < reps; rep++ {
		for i, r := range runners {
			start := time.Now()
			for k := 0; k < meetings; k++ {
				clock[i]++
				if err := r.step(trace.Contact{T: clock[i], A: 0, B: 1}); err != nil {
					t.Fatal(err)
				}
			}
			best[i] = min(best[i], time.Since(start))
		}
	}
	for i, r := range runners {
		if r.res.Fulfillments != 0 || r.s.reqs.Total() != open[i] {
			t.Fatalf("a request was fulfilled: the peer must miss every open item")
		}
		best[i] /= meetings
	}
	return best
}

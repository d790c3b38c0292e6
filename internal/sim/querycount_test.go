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
		nodes, rho, backlog = 4, 2, 2000
		items               = 2 * backlog
		meetings, reps      = 20000, 7
	)
	build := func(open int) *runner {
		// The peer, node 1, caches only two items nobody requests.
		p := alloc.NewPlacement(items, nodes, rho)
		for _, it := range []int{backlog + 1, items - 3} {
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
		for k := 0; k < open; k++ {
			r.s.addRequest(0, 2*k, 0)
		}
		return r
	}
	small, large := build(1), build(backlog)
	clock := map[*runner]float64{}
	timed := func(r *runner) time.Duration {
		start := time.Now()
		for k := 0; k < meetings; k++ {
			clock[r]++
			if err := r.step(trace.Contact{T: clock[r], A: 0, B: 1}); err != nil {
				t.Fatal(err)
			}
		}
		return time.Since(start)
	}
	best := func(d *time.Duration, v time.Duration) { *d = min(*d, v) }
	ds, dl := time.Duration(math.MaxInt64), time.Duration(math.MaxInt64)
	for rep := 0; rep < reps; rep++ {
		best(&ds, timed(small))
		best(&dl, timed(large))
	}
	if small.res.Fulfillments+large.res.Fulfillments != 0 || large.s.reqs.Total() != backlog {
		t.Fatalf("a request was fulfilled: the peer must miss every open item")
	}
	ratio := float64(dl) / float64(ds)
	t.Logf("per meeting: %v with 1 open request, %v with %d (ratio %.2f)",
		ds/meetings, dl/meetings, backlog, ratio)
	if ratio >= 4 {
		t.Errorf("a meeting with %d open requests costs %.1f× one with 1, want < 4", backlog, ratio)
	}
}

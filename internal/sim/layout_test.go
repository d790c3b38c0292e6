package sim

import (
	"math/rand/v2"
	"runtime"
	"slices"
	"testing"

	"impatience/internal/alloc"
	"impatience/internal/core"
	"impatience/internal/demand"
	"impatience/internal/trace"
	"impatience/internal/utility"
)

// TestSetupBytesPerNode pins the runner's memory footprint at scale: a
// QCR runner over N=10⁵ nodes, 4 items and ρ=2 allocates at most 128
// bytes per node while it is built (caches, request and mandate heads,
// the shared demand row and its CDF, the initial-allocation buckets).
// A per-(node, item) slice-of-slices layout costs several times that.
func TestSetupBytesPerNode(t *testing.T) {
	const (
		nodes = 100_000
		items = 4
	)
	cfg := Config{
		Rho:     2,
		Utility: utility.Step{Tau: 10},
		Pop:     demand.Uniform(items, 0.04*nodes),
		Policy: &core.QCR{
			Reaction:       core.PathReplication(1),
			MandateRouting: true,
			StrictSource:   true,
			Seed:           1,
		},
		Seed: 1,
	}
	src := (&trace.Trace{Nodes: nodes, Duration: 4}).Source()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	r, err := newRunners([]Config{cfg}, src)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatalf("newRunners: %v", err)
	}
	runtime.KeepAlive(r)
	perNode := float64(after.TotalAlloc-before.TotalAlloc) / nodes
	t.Logf("runner setup allocates %.1f B/node", perNode)
	if perNode > 128 {
		t.Errorf("runner setup allocates %.1f B/node, want ≤ 128", perNode)
	}
}

// TestSpreadInitialMatchesGreedy checks the bucketed initial-allocation
// traversal against the greedy it implements, one copy at a time: the
// lowest-index server among those with the most free slots, excluding
// holders. Random sticky seeding gives the servers uneven free counts.
func TestSpreadInitialMatchesGreedy(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 4))
	for trial := 0; trial < 200; trial++ {
		servers := 1 + rng.IntN(40)
		rho := 1 + rng.IntN(4)
		items := 1 + rng.IntN(12)
		want := make(alloc.Counts, items)
		for i := range want {
			want[i] = rng.IntN(servers + 1)
		}
		type caches struct {
			free   []int
			counts []int
			has    []bool
		}
		// Seed a few replicas first, as sticky seeding does.
		seed := func() *caches {
			st := &caches{free: make([]int, servers), counts: make([]int, items), has: make([]bool, servers*items)}
			for n := range st.free {
				st.free[n] = rho
			}
			r := rand.New(rand.NewPCG(uint64(trial), 9))
			for i := 0; i < items; i++ {
				if n := r.IntN(servers); r.IntN(2) == 0 && st.free[n] > 0 {
					st.free[n]--
					st.counts[i]++
					st.has[n*items+i] = true
				}
			}
			return st
		}
		type copyAt struct{ n, i int }

		got := seed()
		var gotSeq []copyAt
		err := spreadInitial(items, servers, rho, want,
			func(n int) int { return got.free[n] },
			func(i int) int { return got.counts[i] },
			func(n, i int) bool { return got.has[n*items+i] },
			func(n, i int) error {
				got.free[n]--
				got.counts[i]++
				got.has[n*items+i] = true
				gotSeq = append(gotSeq, copyAt{n, i})
				return nil
			})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}

		ref := seed()
		var refSeq []copyAt
		order := make([]int, items)
		for i := range order {
			order[i] = i
		}
		slices.SortStableFunc(order, func(a, b int) int { return want[b] - want[a] })
		for _, i := range order {
			for need := want[i] - ref.counts[i]; need > 0; need-- {
				best := -1
				for n := 0; n < servers; n++ {
					if !ref.has[n*items+i] && ref.free[n] > 0 && (best < 0 || ref.free[n] > ref.free[best]) {
						best = n
					}
				}
				if best < 0 {
					break
				}
				ref.free[best]--
				ref.counts[i]++
				ref.has[best*items+i] = true
				refSeq = append(refSeq, copyAt{best, i})
			}
		}
		if !slices.Equal(gotSeq, refSeq) {
			t.Fatalf("trial %d (servers %d, ρ %d, want %v): placements\n got %v\nwant %v", trial, servers, rho, want, gotSeq, refSeq)
		}
	}
}

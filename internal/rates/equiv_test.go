package rates

import (
	"math/rand/v2"
	"sort"
	"testing"

	"impatience/internal/contact"
	"impatience/internal/numeric"
	"impatience/internal/stats"
	"impatience/internal/trace"
)

// The statistical-equivalence suite: the two-level structured sampler
// (ShardedSource, with one group and with DefaultGroups) must be
// indistinguishable from the dense
// alias sampler (contact.NewStream over DenseRates) on the same rate
// matrix. Gates are deliberately loose (α = 0.001 with fixed seeds) so
// they only fire on real distributional defects, not sampling noise.

// equivModels returns the small-N models the suite checks: one per
// structured kind, all within the dense sampler's comfortable range.
func equivModels(t *testing.T) map[string]*Model {
	t.Helper()
	community, err := NewCommunity(CommunityConfig{Nodes: 60, Communities: 4, In: 0.5, Out: 0.02})
	if err != nil {
		t.Fatal(err)
	}
	hub, err := NewHubSpoke(HubSpokeConfig{Nodes: 60, Hubs: 6, HubHub: 0.4, HubSpoke: 0.15, SpokeSpoke: 0.002})
	if err != nil {
		t.Fatal(err)
	}
	dist, err := NewDistanceKernel(DistanceConfig{
		Nodes: 60, CellsX: 3, CellsY: 3, Width: 3000, Height: 3000, Mu0: 0.3, Lambda: 800, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	// A weighted block model so the heterogeneous member tables (and the
	// same-community pair rejection) are exercised, not just uniform ones.
	weights := make([]float64, 48)
	wrng := rand.New(rand.NewPCG(3, 9))
	for i := range weights {
		weights[i] = 0.2 + wrng.Float64()*2
	}
	weighted, err := New([]int{20, 16, 12}, [][]float64{
		{0.6, 0.05, 0.01},
		{0.05, 0.8, 0.02},
		{0.01, 0.02, 0.4},
	}, weights)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]*Model{
		"community": community,
		"hubspoke":  hub,
		"distance":  dist,
		"weighted":  weighted,
	}
}

// pairCounts drains a source and histograms contacts by dense pair index.
func pairCounts(t *testing.T, src trace.Source, nodes int) []float64 {
	t.Helper()
	counts := make([]float64, trace.NumPairs(nodes))
	for {
		c, ok := src.Next()
		if !ok {
			break
		}
		counts[trace.PairIndex(nodes, c.A, c.B)]++
	}
	return counts
}

// TestPairMarginalChiSquare runs both chi-square gates per model: the
// structured sampler at one group and at DefaultGroups against the
// analytic pair distribution (GOF), and each against the dense sampler
// head-to-head (two-sample homogeneity). The
// dense sampler also passes its own GOF gate, pinning that the reference
// itself is sound.
func TestPairMarginalChiSquare(t *testing.T) {
	if testing.Short() {
		t.Skip("statistical gates draw ~10⁵ contacts per model")
	}
	for name, m := range equivModels(t) {
		t.Run(name, func(t *testing.T) {
			total := m.TotalRate()
			duration := 150000 / total // ~150k contacts from each sampler
			rm, err := m.DenseRates()
			if err != nil {
				t.Fatal(err)
			}
			dense, err := contact.NewStream(rm, duration, rand.New(rand.NewPCG(101, 202)))
			if err != nil {
				t.Fatal(err)
			}
			single, err := NewSharded(m, duration, 11, 1)
			if err != nil {
				t.Fatal(err)
			}
			sharded, err := NewSharded(m, duration, 13, 0)
			if err != nil {
				t.Fatal(err)
			}

			denseCounts := pairCounts(t, dense, m.Nodes())
			singleCounts := pairCounts(t, single, m.Nodes())
			shardCounts := pairCounts(t, sharded, m.Nodes())

			sum := func(cs []float64) float64 {
				var s float64
				for _, c := range cs {
					s += c
				}
				return s
			}
			expected := func(draws float64) []float64 {
				exp := make([]float64, trace.NumPairs(m.Nodes()))
				for idx := range exp {
					a, b := trace.PairFromIndex(m.Nodes(), idx)
					exp[idx] = m.RateAt(a, b) / total * draws
				}
				return exp
			}
			for sampler, counts := range map[string][]float64{
				"dense": denseCounts, "single-group": singleCounts, "sharded": shardCounts,
			} {
				stat, df, err := stats.ChiSquareGOF(counts, expected(sum(counts)))
				if err != nil {
					t.Fatalf("%s GOF: %v", sampler, err)
				}
				if crit := stats.ChiSquareCritical(0.001, df); stat > crit {
					t.Errorf("%s sampler fails GOF vs analytic marginals: χ² %.1f > crit %.1f (df %d)",
						sampler, stat, crit, df)
				}
			}
			for sampler, counts := range map[string][]float64{
				"single-group": singleCounts, "sharded": shardCounts,
			} {
				stat, df, err := stats.ChiSquareTwoSample(counts, denseCounts)
				if err != nil {
					t.Fatalf("%s two-sample: %v", sampler, err)
				}
				if crit := stats.ChiSquareCritical(0.001, df); stat > crit {
					t.Errorf("%s vs dense homogeneity: χ² %.1f > crit %.1f (df %d)",
						sampler, stat, crit, df)
				}
			}
		})
	}
}

// TestInterContactKS runs the KS gates on inter-contact times. Globally,
// every sampler's event gaps must be Exp(TotalRate) — for the sharded
// source this is a genuine test that merging 32 independent Poisson
// sub-streams reassembles the superposed process. Per pair, the gaps of
// a specific pair's contacts must be Exp(RateAt(a,b)) under every
// sampler, which exercises the endpoint draw jointly with the clock.
func TestInterContactKS(t *testing.T) {
	if testing.Short() {
		t.Skip("statistical gates draw ~10⁵ contacts per model")
	}
	m, err := NewCommunity(CommunityConfig{Nodes: 40, Communities: 4, In: 0.6, Out: 0.15})
	if err != nil {
		t.Fatal(err)
	}
	total := m.TotalRate()
	duration := 200000 / total
	rm, err := m.DenseRates()
	if err != nil {
		t.Fatal(err)
	}
	// Pairs under watch: an intra-community pair and a cross pair.
	watch := [][2]int{{0, 1}, {0, m.Nodes() - 1}}

	type gapSet struct {
		global []float64
		pair   [][]float64
	}
	collect := func(src trace.Source) gapSet {
		gs := gapSet{pair: make([][]float64, len(watch))}
		prev := 0.0
		prevPair := make([]float64, len(watch))
		for i := range prevPair {
			prevPair[i] = -1
		}
		for {
			c, ok := src.Next()
			if !ok {
				break
			}
			gs.global = append(gs.global, c.T-prev)
			prev = c.T
			for i, w := range watch {
				if (c.A == w[0] && c.B == w[1]) || (c.A == w[1] && c.B == w[0]) {
					if prevPair[i] >= 0 {
						gs.pair[i] = append(gs.pair[i], c.T-prevPair[i])
					}
					prevPair[i] = c.T
				}
			}
		}
		return gs
	}

	dense, err := contact.NewStream(rm, duration, rand.New(rand.NewPCG(55, 66)))
	if err != nil {
		t.Fatal(err)
	}
	single, err := NewSharded(m, duration, 17, 1)
	if err != nil {
		t.Fatal(err)
	}
	sharded, err := NewSharded(m, duration, 19, 0)
	if err != nil {
		t.Fatal(err)
	}
	for sampler, src := range map[string]trace.Source{
		"dense": dense, "single-group": single, "sharded": sharded,
	} {
		gs := collect(src)
		// Subsample the global gaps: KSCritical's finite-n threshold at
		// full n is so tight that float discretization noise can trip it;
		// 20k gaps give plenty of power at α=0.001.
		gaps := gs.global
		if len(gaps) > 20000 {
			stride := len(gaps) / 20000
			sub := make([]float64, 0, 20000)
			for i := 0; i < len(gaps); i += stride {
				sub = append(sub, gaps[i])
			}
			gaps = sub
		}
		d := stats.KSExponential(gaps, total)
		if crit := stats.KSCritical(0.001, len(gaps)); d > crit {
			t.Errorf("%s: global inter-contact KS %g > crit %g (n=%d)", sampler, d, crit, len(gaps))
		}
		for i, w := range watch {
			rate := m.RateAt(w[0], w[1])
			if len(gs.pair[i]) < 50 {
				t.Fatalf("%s: pair %v produced only %d gaps — scenario too thin", sampler, w, len(gs.pair[i]))
			}
			d := stats.KSExponential(gs.pair[i], rate)
			if crit := stats.KSCritical(0.001, len(gs.pair[i])); d > crit {
				t.Errorf("%s: pair %v inter-contact KS %g > crit %g (n=%d)", sampler, w, d, crit, len(gs.pair[i]))
			}
		}
	}
}

// TestSourceStreamContract checks the trace.Source contract mechanics of
// the single-group sampler on every structured model: time-ordered, within duration, valid
// endpoints, and a sorted A < B convention; plus Reopen bit-equality.
func TestSourceStreamContract(t *testing.T) {
	for name, m := range equivModels(t) {
		src, err := NewSharded(m, 200, 5, 1)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		re, err := src.Reopen()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		prev := 0.0
		n := 0
		for {
			c, ok := src.Next()
			if !ok {
				break
			}
			n++
			if err := trace.CheckStreamContact(c, prev, m.Nodes(), 200); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if c.A >= c.B {
				t.Fatalf("%s: endpoints not sorted: (%d,%d)", name, c.A, c.B)
			}
			prev = c.T
			rc, ok := re.Next()
			if !ok || rc != c {
				t.Fatalf("%s: reopened stream diverged at contact %d (%v vs %v)", name, n, rc, c)
			}
		}
		if _, ok := re.Next(); ok {
			t.Fatalf("%s: reopened stream longer than original", name)
		}
		if n == 0 {
			t.Fatalf("%s: empty stream", name)
		}
	}
}

// TestGapsAreSorted is a guard on the test harness itself: KSStatistic
// requires no ordering, but KSExponential sorts internally — make sure
// the collected per-pair gaps are all positive, which the exponential
// CDF assumes.
func TestGapsAreSorted(t *testing.T) {
	m, err := NewCommunity(CommunityConfig{Nodes: 20, Communities: 2, In: 0.8, Out: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	src, err := NewSharded(m, 500, 23, 1)
	if err != nil {
		t.Fatal(err)
	}
	var ts []float64
	for {
		c, ok := src.Next()
		if !ok {
			break
		}
		ts = append(ts, c.T)
	}
	if !sort.Float64sAreSorted(ts) {
		t.Fatal("contact times not sorted")
	}
}

// fullTable is an alias table with explicit arrays, drawn as
// numeric.Alias.Sample draws from one.
type fullTable struct {
	prob  []float64
	alias []int32
}

func (f fullTable) sample(rng *rand.Rand) int {
	u := rng.Float64() * float64(len(f.prob))
	i := int(u)
	if i >= len(f.prob) {
		i = len(f.prob) - 1
	}
	if u-float64(i) < f.prob[i] {
		return i
	}
	return int(f.alias[i])
}

// TestSamplePairIndexExact pins samplePair's draws, index for index, to
// the table path: a member alias table with arrays and a members[c]
// lookup. Equal-weight communities get the Vose table of equal weights,
// the identity (prob 1, alias itself); weighted ones keep their arrays,
// so they are their own reference. The four models cover the offset
// path with array-free tables (community, hub-spoke), the lookup
// (distance kernel) and weighted tables (weighted).
func TestSamplePairIndexExact(t *testing.T) {
	models := equivModels(t)
	contiguous := map[string]bool{"community": true, "hubspoke": true, "weighted": true}
	for _, name := range []string{"community", "hubspoke", "distance", "weighted"} {
		m := models[name]
		t.Run(name, func(t *testing.T) {
			gaps := false
			for c := range m.members {
				gaps = gaps || m.first[c] < 0
			}
			if gaps == contiguous[name] {
				t.Fatalf("contiguous communities = %v, want %v", !gaps, contiguous[name])
			}
			member, err := m.memberAliases()
			if err != nil {
				t.Fatal(err)
			}
			ref := make([]func(*rand.Rand) int, len(member))
			for c, mem := range m.members {
				if !m.UniformWeights() {
					ref[c] = member[c].Sample
					continue
				}
				id := fullTable{prob: make([]float64, len(mem)), alias: make([]int32, len(mem))}
				for j := range mem {
					id.prob[j], id.alias[j] = 1, int32(j)
				}
				ref[c] = id.sample
			}
			refMember := func(c int, rng *rand.Rand) int { return int(m.members[c][ref[c](rng)]) }
			top, err := numeric.NewAlias(m.pairW)
			if err != nil {
				t.Fatal(err)
			}
			got := rand.New(rand.NewPCG(5, 17))
			want := rand.New(rand.NewPCG(5, 17))
			for k := 0; k < 10_000; k++ {
				cd := m.pairC[top.Sample(got)]
				if wcd := m.pairC[top.Sample(want)]; wcd != cd {
					t.Fatalf("draw %d: block pairs diverged", k)
				}
				c, d := int(cd[0]), int(cd[1])
				a, b := samplePair(m, member, c, d, got)
				var ra, rb int
				for {
					ra, rb = refMember(c, want), refMember(d, want)
					if ra != rb {
						break
					}
				}
				if ra > rb {
					ra, rb = rb, ra
				}
				if a != ra || b != rb {
					t.Fatalf("draw %d in block (%d,%d): samplePair = (%d,%d), table path = (%d,%d)", k, c, d, a, b, ra, rb)
				}
			}
			if got.Uint64() != want.Uint64() {
				t.Fatal("RNG states diverged")
			}
		})
	}
}

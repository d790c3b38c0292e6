package rates

import (
	"errors"
	"math"
	"math/rand/v2"
	"testing"

	"impatience/internal/trace"
)

// TestConstructionValidation is the construction-time error table: every
// malformed model must be rejected at New/NewAssigned/constructor time
// with ErrModel, never deferred to sampling.
func TestConstructionValidation(t *testing.T) {
	sym := func(in, out float64, c int) [][]float64 {
		b := make([][]float64, c)
		for i := range b {
			b[i] = make([]float64, c)
			for j := range b[i] {
				if i == j {
					b[i][j] = in
				} else {
					b[i][j] = out
				}
			}
		}
		return b
	}
	cases := []struct {
		name  string
		build func() (*Model, error)
	}{
		{"no communities", func() (*Model, error) { return New(nil, nil, nil) }},
		{"empty community", func() (*Model, error) { return New([]int{3, 0, 2}, sym(1, 1, 3), nil) }},
		{"negative size", func() (*Model, error) { return New([]int{3, -1}, sym(1, 1, 2), nil) }},
		{"one node", func() (*Model, error) { return New([]int{1}, sym(1, 0, 1), nil) }},
		{"ragged block", func() (*Model, error) {
			return New([]int{2, 2}, [][]float64{{1, 1}, {1}}, nil)
		}},
		{"non-square block", func() (*Model, error) {
			return New([]int{2, 2}, [][]float64{{1, 1, 1}, {1, 1, 1}}, nil)
		}},
		{"non-symmetric block", func() (*Model, error) {
			return New([]int{2, 2}, [][]float64{{1, 0.5}, {0.6, 1}}, nil)
		}},
		{"negative rate", func() (*Model, error) {
			return New([]int{2, 2}, [][]float64{{1, -0.1}, {-0.1, 1}}, nil)
		}},
		{"NaN rate", func() (*Model, error) {
			return New([]int{2, 2}, [][]float64{{1, math.NaN()}, {math.NaN(), 1}}, nil)
		}},
		{"infinite rate", func() (*Model, error) {
			return New([]int{2, 2}, [][]float64{{math.Inf(1), 1}, {1, 1}}, nil)
		}},
		{"weight count mismatch", func() (*Model, error) {
			return New([]int{2, 2}, sym(1, 1, 2), []float64{1, 1, 1})
		}},
		{"negative weight", func() (*Model, error) {
			return New([]int{2, 2}, sym(1, 1, 2), []float64{1, -1, 1, 1})
		}},
		{"NaN weight", func() (*Model, error) {
			return New([]int{2, 2}, sym(1, 1, 2), []float64{1, math.NaN(), 1, 1})
		}},
		{"zero-weight community", func() (*Model, error) {
			return New([]int{2, 2}, sym(1, 1, 2), []float64{0, 0, 1, 1})
		}},
		{"zero total rate", func() (*Model, error) { return New([]int{2, 2}, sym(0, 0, 2), nil) }},
		{"community out of range", func() (*Model, error) {
			return NewAssigned([]int32{0, 2}, sym(1, 1, 2), nil)
		}},
		{"negative community", func() (*Model, error) {
			return NewAssigned([]int32{0, -1}, sym(1, 1, 2), nil)
		}},
		{"bad community cfg", func() (*Model, error) {
			return NewCommunity(CommunityConfig{Nodes: 3, Communities: 5, In: 1})
		}},
		{"bad hub cfg", func() (*Model, error) {
			return NewHubSpoke(HubSpokeConfig{Nodes: 5, Hubs: 5, HubHub: 1})
		}},
		{"bad distance grid", func() (*Model, error) {
			return NewDistanceKernel(DistanceConfig{Nodes: 10, CellsX: 0, CellsY: 2, Width: 100, Height: 100, Mu0: 1, Lambda: 10})
		}},
		{"bad distance mu0", func() (*Model, error) {
			return NewDistanceKernel(DistanceConfig{Nodes: 10, CellsX: 2, CellsY: 2, Width: 100, Height: 100, Mu0: 0, Lambda: 10})
		}},
		{"bad distance lambda", func() (*Model, error) {
			return NewDistanceKernel(DistanceConfig{Nodes: 10, CellsX: 2, CellsY: 2, Width: 100, Height: 100, Mu0: 1, Lambda: math.Inf(1)})
		}},
	}
	for _, c := range cases {
		m, err := c.build()
		if err == nil {
			t.Errorf("%s: accepted (model %v)", c.name, m)
			continue
		}
		if !errors.Is(err, ErrModel) {
			t.Errorf("%s: error %v does not wrap ErrModel", c.name, err)
		}
	}
}

// TestModelBasics checks the derived quantities on a hand-computable
// model: 2 communities of sizes 2 and 3, in-rate 0.6, cross 0.1.
func TestModelBasics(t *testing.T) {
	m, err := NewCommunity(CommunityConfig{Nodes: 5, Communities: 2, In: 0.6, Out: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	// 5 across 2: sizes 3 and 2.
	if m.Nodes() != 5 || m.Communities() != 2 {
		t.Fatalf("nodes=%d communities=%d", m.Nodes(), m.Communities())
	}
	// total = in·(C(3,2)+C(2,2)... sizes are 3 and 2: intra pairs 3+1,
	// cross pairs 6 → 0.6·4 + 0.1·6 = 3.0
	if got := m.TotalRate(); math.Abs(got-3.0) > 1e-12 {
		t.Errorf("TotalRate = %g, want 3.0", got)
	}
	if got := m.MeanPairRate(); math.Abs(got-0.3) > 1e-12 {
		t.Errorf("MeanPairRate = %g, want 0.3", got)
	}
	if got := m.RateAt(0, 1); got != 0.6 {
		t.Errorf("RateAt(0,1) = %g, want 0.6 (intra)", got)
	}
	if got := m.RateAt(0, 4); got != 0.1 {
		t.Errorf("RateAt(0,4) = %g, want 0.1 (cross)", got)
	}
	if got := m.RateAt(2, 2); got != 0 {
		t.Errorf("RateAt(2,2) = %g, want 0", got)
	}
	rm, err := m.DenseRates()
	if err != nil {
		t.Fatal(err)
	}
	if got := rm.TotalRate(); math.Abs(got-3.0) > 1e-12 {
		t.Errorf("dense TotalRate = %g, want 3.0", got)
	}
	for a := 0; a < 5; a++ {
		for b := a + 1; b < 5; b++ {
			if rm.At(a, b) != m.RateAt(a, b) {
				t.Errorf("dense At(%d,%d) = %g, model %g", a, b, rm.At(a, b), m.RateAt(a, b))
			}
		}
	}
}

// randomCommunityModel draws a valid random block model for the property
// test: 2–6 communities of 1–12 members, block rates zeroed with
// probability 0.3, strictly positive node weights, and one guaranteed
// positive cross block so the total rate cannot vanish.
func randomCommunityModel(rng *rand.Rand) *Model {
	nc := 2 + rng.IntN(5)
	sizes := make([]int, nc)
	nodes := 0
	for c := range sizes {
		sizes[c] = 1 + rng.IntN(12)
		nodes += sizes[c]
	}
	block := make([][]float64, nc)
	for c := range block {
		block[c] = make([]float64, nc)
	}
	for c := 0; c < nc; c++ {
		for d := c; d < nc; d++ {
			r := 0.0
			if rng.Float64() > 0.3 {
				r = 0.05 + rng.Float64()
			}
			block[c][d], block[d][c] = r, r
		}
	}
	block[0][nc-1] = 0.2 + rng.Float64() // total rate cannot be zero
	block[nc-1][0] = block[0][nc-1]
	var weights []float64
	if rng.Float64() < 0.5 {
		weights = make([]float64, nodes)
		for i := range weights {
			weights[i] = 0.1 + rng.Float64()
		}
	}
	m, err := New(sizes, block, weights)
	if err != nil {
		panic(err) // generator bug, not a model property
	}
	return m
}

// TestTwoLevelProbabilityProperty is the 1e-12 equivalence property over
// 500 random community configs: the realized two-level sampling
// distribution — top-table block probability times the exact member-table
// probabilities (with the same-community pair-rejection normalization
// 2·q_a·q_b/(1−Σq²)) — must equal the normalized flat pair rates
// RateAt(a,b)/TotalRate to 1e-12, for every pair. The realized
// distributions are read back out of the alias tables via
// numeric.Alias.Probabilities, so this pins the tables actually sampled
// from, not the intended weights.
func TestTwoLevelProbabilityProperty(t *testing.T) {
	rng := rand.New(rand.NewPCG(42, 4242))
	const configs = 500
	for cfg := 0; cfg < configs; cfg++ {
		m := randomCommunityModel(rng)
		src, err := NewSource(m, 100, 1)
		if err != nil {
			t.Fatalf("config %d: %v", cfg, err)
		}
		topP := src.top.Probabilities()
		memP := make([][]float64, len(m.members))
		rejNorm := make([]float64, len(m.members)) // 1 − Σ q_i² per community
		for c := range m.members {
			memP[c] = src.member[c].Probabilities()
			sq := 0.0
			for _, q := range memP[c] {
				sq += q * q
			}
			rejNorm[c] = 1 - sq
		}
		// Position of each node within its community's member slice.
		pos := make([]int, m.Nodes())
		for _, mem := range m.members {
			for i, n := range mem {
				pos[n] = i
			}
		}
		realized := make([]float64, trace.NumPairs(m.Nodes()))
		for k, cd := range m.pairC {
			c, d := int(cd[0]), int(cd[1])
			if c == d {
				mem := m.members[c]
				for i := 0; i < len(mem); i++ {
					for j := i + 1; j < len(mem); j++ {
						p := topP[k] * 2 * memP[c][i] * memP[c][j] / rejNorm[c]
						realized[trace.PairIndex(m.Nodes(), int(mem[i]), int(mem[j]))] += p
					}
				}
			} else {
				for _, a := range m.members[c] {
					for _, b := range m.members[d] {
						p := topP[k] * memP[c][pos[a]] * memP[d][pos[b]]
						realized[trace.PairIndex(m.Nodes(), int(a), int(b))] += p
					}
				}
			}
		}
		total := m.TotalRate()
		var sum float64
		for idx, p := range realized {
			sum += p
			a, b := trace.PairFromIndex(m.Nodes(), idx)
			want := m.RateAt(a, b) / total
			if math.Abs(p-want) > 1e-12 {
				t.Fatalf("config %d pair (%d,%d): realized %.17g, flat %.17g (|Δ| %g)",
					cfg, a, b, p, want, math.Abs(p-want))
			}
		}
		if math.Abs(sum-1) > 1e-10 {
			t.Fatalf("config %d: realized distribution sums to %.17g", cfg, sum)
		}
	}
}

// TestDenseRatesRefusesLargeN pins the O(N²) guard.
func TestDenseRatesRefusesLargeN(t *testing.T) {
	m, err := NewCommunity(CommunityConfig{Nodes: 30000, Communities: 4, In: 0.5, Out: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.DenseRates(); err == nil {
		t.Fatal("DenseRates materialized O(N²) state at N=30000")
	}
}

// TestPaperCommunity: every node keeps the paper scenario's meeting
// budget, so the mean pair rate times N−1 is 2.45, and a split
// that leaves a community without intra-community pairs is rejected.
func TestPaperCommunity(t *testing.T) {
	m, err := PaperCommunity(1000, 8)
	if err != nil {
		t.Fatal(err)
	}
	if got := m.MeanPairRate() * 999; math.Abs(got-perNodeRate) > 1e-12 {
		t.Errorf("per-node meeting rate %.15g, want %g", got, perNodeRate)
	}
	for _, bad := range [][2]int{{10, 8}, {10, 0}, {10, -1}} {
		if _, err := PaperCommunity(bad[0], bad[1]); !errors.Is(err, ErrModel) {
			t.Errorf("PaperCommunity(%d, %d): err %v, want ErrModel", bad[0], bad[1], err)
		}
	}
}

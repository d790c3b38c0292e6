package numeric

import (
	"errors"
	"math"
	"math/rand/v2"
	"strings"
	"testing"
)

func aliasRNG(seed uint64) *rand.Rand { return rand.New(rand.NewPCG(seed, seed*0x9e3779b9)) }

// TestAliasMatchesWeights draws heavily from several weight shapes and
// chi-square-tests the empirical frequencies against the weights. The
// 99.9% critical values are generous so the fixed-seed test is far from
// its rejection boundary.
func TestAliasMatchesWeights(t *testing.T) {
	cases := []struct {
		name    string
		weights []float64
		crit    float64 // chi-square 99.9% critical value for df = k-1 (positive-weight columns)
	}{
		{"uniform", []float64{1, 1, 1, 1}, 16.27},
		{"skewed", []float64{10, 1, 0.1, 0.01}, 16.27},
		{"with-zeros", []float64{0, 3, 0, 1, 0, 2}, 16.27},
		{"single", []float64{0, 0, 5}, 10.83},
		{"pareto-ish", []float64{1, 0.5, 1.0 / 3, 0.25, 0.2, 1.0 / 6, 1.0 / 7, 0.125}, 24.32},
	}
	const draws = 200000
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			a, err := NewAlias(tc.weights)
			if err != nil {
				t.Fatalf("NewAlias: %v", err)
			}
			rng := aliasRNG(11)
			counts := make([]int, len(tc.weights))
			for i := 0; i < draws; i++ {
				counts[a.Sample(rng)]++
			}
			var total float64
			for _, w := range tc.weights {
				total += w
			}
			var chi2 float64
			for i, w := range tc.weights {
				exp := w / total * draws
				if exp == 0 {
					if counts[i] != 0 {
						t.Fatalf("zero-weight column %d sampled %d times", i, counts[i])
					}
					continue
				}
				d := float64(counts[i]) - exp
				chi2 += d * d / exp
			}
			if chi2 > tc.crit {
				t.Errorf("chi-square %.2f exceeds 99.9%% critical value %.2f (counts %v)", chi2, tc.crit, counts)
			}
		})
	}
}

// TestAliasRejectsBadWeights pins the error conventions: NaN entries
// surface ErrNaN, negative/infinite entries and degenerate totals surface
// ErrBadWeights — never a silently corrupt table. The overflowing total
// is finite entry by entry; built anyway, its table never returned
// column 1, which carries a fifth of the weight.
func TestAliasRejectsBadWeights(t *testing.T) {
	cases := []struct {
		name    string
		weights []float64
		want    error
		cause   string
	}{
		{"empty", nil, ErrBadWeights, "empty"},
		{"all-zero", []float64{0, 0, 0}, ErrBadWeights, "zero"},
		{"negative", []float64{1, -0.5, 2}, ErrBadWeights, "weight 1 is -0.5"},
		{"inf", []float64{1, math.Inf(1)}, ErrBadWeights, "weight 1 is +Inf"},
		{"nan", []float64{1, math.NaN(), 2}, ErrNaN, "weight 1 is NaN"},
		{"overflowing-total", []float64{1e308, 5e307, 1e308}, ErrBadWeights, "overflows"},
		{"overflowing-equal", []float64{1e308, 1e308}, ErrBadWeights, "overflows"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			a, err := NewAlias(tc.weights)
			if err == nil {
				t.Fatalf("NewAlias accepted %v", tc.weights)
			}
			if !errors.Is(err, tc.want) {
				t.Errorf("error %v does not wrap %v", err, tc.want)
			}
			if !strings.Contains(err.Error(), tc.cause) {
				t.Errorf("error %q does not name its cause %q", err, tc.cause)
			}
			if a != nil {
				t.Errorf("non-nil table returned with error")
			}
		})
	}
}

// TestAliasPropertyRandomWeights fuzzes construction over random weight
// vectors (with zeros mixed in, and every fifth vector equal-weight) and
// checks the realized distribution: every probability in [0,1], zero
// exactly on the zero-weight columns, which are never sampled.
func TestAliasPropertyRandomWeights(t *testing.T) {
	rng := aliasRNG(7)
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.IntN(40)
		w := make([]float64, n)
		positive := false
		for i := range w {
			switch {
			case trial%5 == 0:
				w[i] = 2.5
			case rng.Float64() < 0.3:
				w[i] = 0
			default:
				w[i] = rng.ExpFloat64()
			}
			positive = positive || w[i] > 0
		}
		if !positive {
			w[rng.IntN(n)] = 1
		}
		a, err := NewAlias(w)
		if err != nil {
			t.Fatalf("trial %d: NewAlias(%v): %v", trial, w, err)
		}
		if a.Len() != n {
			t.Fatalf("trial %d: Len() = %d, want %d", trial, a.Len(), n)
		}
		for i, p := range a.Probabilities() {
			if p < 0 || p > 1 || math.IsNaN(p) {
				t.Fatalf("trial %d: P[%d]=%g out of [0,1]", trial, i, p)
			}
			if (p == 0) != (w[i] == 0) {
				t.Fatalf("trial %d: P[%d]=%g for weight %g", trial, i, p, w[i])
			}
		}
		for i := 0; i < 2000; i++ {
			if k := a.Sample(rng); w[k] == 0 {
				t.Fatalf("trial %d: sampled zero-weight column %d", trial, k)
			}
		}
	}
}

// maxSource is a rand.Source stuck at its largest output, so Float64
// returns its largest value, 1 − 2⁻⁵³: the top-end draw of a table.
type maxSource struct{}

func (maxSource) Uint64() uint64 { return math.MaxUint64 }

// FuzzAliasEqualWeights checks that the array-free table NewAlias builds
// for n equal weights w is the full Vose table, draw for draw: vose
// builds the identity (prob 1, alias itself) for them, and from one seed
// both tables return the same indices and leave the RNG in the same
// state. Each input also takes the top-end draw, where the column index
// is clamped to n−1. (For Go's 53-bit Float64 the product never rounds
// up to n: n·2⁻⁵³ is more than half an ulp of n. The clamp is a guard.)
func FuzzAliasEqualWeights(f *testing.F) {
	f.Add(uint32(1), 1.0, uint64(1))
	f.Add(uint32(3), 1.0, uint64(2))
	f.Add(uint32(1_000_003), 1.0, uint64(3))
	f.Add(uint32(7), 0.1, uint64(4))
	f.Add(uint32(48), 3.7e-300, uint64(5))
	f.Add(uint32(1000), 2.5e300, uint64(6))
	f.Fuzz(func(t *testing.T, n uint32, w float64, seed uint64) {
		n = 1 + n%(1<<20)
		weights := make([]float64, n)
		for i := range weights {
			weights[i] = w
		}
		total, equal, err := aliasTotal(weights)
		if err != nil {
			t.Skip()
		}
		if !equal {
			t.Fatalf("%d copies of %g not reported equal", n, w)
		}
		fast, err := NewAlias(weights)
		if err != nil {
			t.Fatal(err)
		}
		if fast.prob != nil || fast.alias != nil {
			t.Fatalf("n=%d w=%g: equal weights built arrays", n, w)
		}
		full := vose(weights, total)
		for i := range full.prob {
			if full.prob[i] != 1 || int(full.alias[i]) != i {
				t.Fatalf("n=%d w=%g: vose column %d is (prob %g, alias %d), want (1, %d)", n, w, i, full.prob[i], full.alias[i], i)
			}
		}
		rf, rv := aliasRNG(seed), aliasRNG(seed)
		for d := 0; d < 1000; d++ {
			if x, y := fast.Sample(rf), full.Sample(rv); x != y {
				t.Fatalf("n=%d w=%g seed=%d: draw %d returned %d (array-free) vs %d (full)", n, w, seed, d, x, y)
			}
		}
		if rf.Uint64() != rv.Uint64() {
			t.Fatalf("n=%d w=%g seed=%d: RNG states diverged", n, w, seed)
		}
		top := rand.New(maxSource{})
		if x, y := fast.Sample(top), full.Sample(top); x != int(n)-1 || y != int(n)-1 {
			t.Fatalf("n=%d: top-end draw returned %d (array-free) and %d (full), want %d", n, x, y, n-1)
		}
		fp, vp := fast.Probabilities(), full.Probabilities()
		for i := range fp {
			if fp[i] != vp[i] {
				t.Fatalf("n=%d w=%g: P[%d] = %g (array-free) vs %g (full)", n, w, i, fp[i], vp[i])
			}
		}
	})
}

func BenchmarkAliasSample(b *testing.B) {
	w := make([]float64, 1<<19) // ~ node pairs at N=1k
	rng := aliasRNG(3)
	for i := range w {
		w[i] = rng.ExpFloat64()
	}
	a, err := NewAlias(w)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var sink int
	for i := 0; i < b.N; i++ {
		sink += a.Sample(rng)
	}
	_ = sink
}

// TestAliasProbabilities checks that the realized distribution read back
// from the table matches the normalized weights to float accuracy — the
// guarantee the hierarchical samplers' 1e-12 equivalence suite builds on.
func TestAliasProbabilities(t *testing.T) {
	rng := aliasRNG(11)
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.IntN(64)
		w := make([]float64, n)
		var total float64
		for i := range w {
			if rng.Float64() < 0.25 {
				w[i] = 0 // exercise zero-weight columns
			} else {
				w[i] = rng.ExpFloat64()
			}
			total += w[i]
		}
		if total == 0 {
			w[0] = 1
			total = 1
		}
		a, err := NewAlias(w)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		p := a.Probabilities()
		var sum float64
		for i := range p {
			sum += p[i]
			if want := w[i] / total; math.Abs(p[i]-want) > 1e-12 {
				t.Fatalf("trial %d: P[%d] = %g, want %g (Δ=%g)", trial, i, p[i], want, p[i]-want)
			}
		}
		if math.Abs(sum-1) > 1e-12 {
			t.Fatalf("trial %d: probabilities sum to %g", trial, sum)
		}
	}
}

// TestAliasProbabilitiesNearOverflow pins the scaling of weights whose
// product with the column count overflows although their total does not:
// scaled as w·n/total, both large columns of [7e307, 7e307, 1] read +Inf,
// and the table returned P = [1/3, 2/3, ~0] instead of [1/2, 1/2, ~0].
func TestAliasProbabilitiesNearOverflow(t *testing.T) {
	w := []float64{7e307, 7e307, 1}
	a, err := NewAlias(w)
	if err != nil {
		t.Fatal(err)
	}
	total := w[0] + w[1] + w[2]
	for i, p := range a.Probabilities() {
		if want := w[i] / total; math.Abs(p-want) > 1e-12 {
			t.Errorf("P[%d] = %g, want %g", i, p, want)
		}
	}
}

package numeric

import (
	"math"
	"sort"
	"testing"
)

// fuzzWeights decodes one weight per byte: zero, a tie with the previous
// weight, a subnormal, or a normal value, so fuzzed CDFs carry flat runs,
// repeated steps and totals below the normal range.
func fuzzWeights(raw []byte) []float64 {
	w := make([]float64, min(len(raw), 4096))
	prev := 1.0
	for i := range w {
		b := raw[i]
		switch b % 4 {
		case 0:
			w[i] = 0
		case 1:
			w[i] = prev
		case 2:
			w[i] = math.SmallestNonzeroFloat64 * float64(b>>2+1)
		default:
			w[i] = float64(b>>2+1) / 64
		}
		if w[i] > 0 {
			prev = w[i]
		}
	}
	return w
}

// callerCDF builds a cumulative array in one of the two shapes the
// samplers own: normalised with the last entry forced to 1 (the contact
// pair CDF and the demand CDFs), or the raw running sum searched at
// u·total (the hybrid probe CDFs). It returns the array and the value a
// uniform u = 1 would scale to.
func callerCDF(w []float64, normalised bool) (cum []float64, total float64) {
	cum = make([]float64, len(w))
	run := 0.0
	for i, v := range w {
		run += v
		cum[i] = run
	}
	if !normalised || len(cum) == 0 {
		return cum, run
	}
	if run > 0 {
		for i := range cum {
			cum[i] /= run
		}
	}
	cum[len(cum)-1] = 1
	return cum, 1
}

// FuzzCDFIndex holds Search to sort.SearchFloat64s on fuzzed weights in
// both caller shapes, at 0, at the total and just below it, at every
// cumulative value and both its neighbours, and at the fuzzed value, both
// as given (negative, NaN, infinite or past the total) and folded to
// u·total with u ∈ [0, 1).
func FuzzCDFIndex(f *testing.F) {
	f.Add([]byte{3, 3, 3, 3}, true, 0.5)
	f.Add([]byte{0, 0, 7, 1, 1, 0, 0, 11}, false, 0.25)
	f.Add([]byte{2, 6, 10, 0, 2}, false, 0.999)
	f.Add([]byte{2, 1, 1, 3, 0, 0, 0, 1}, true, math.Nextafter(1, 0))
	f.Add([]byte{0, 0, 0, 0}, false, 0.0)
	f.Add([]byte{255, 0, 0, 0, 0, 0, 0, 3}, true, -1.0)
	f.Add([]byte{}, true, 0.1)
	f.Add([]byte{7, 2, 2, 2, 2, 2, 2, 2, 2, 2}, false, math.NaN())
	f.Fuzz(func(t *testing.T, raw []byte, normalised bool, x float64) {
		cum, total := callerCDF(fuzzWeights(raw), normalised)
		idx := NewCDFIndex(cum)
		xs := []float64{0, total, math.Nextafter(total, 0), x}
		if u := math.Abs(x); u < math.Inf(1) {
			xs = append(xs, (u-math.Floor(u))*total)
		}
		for _, c := range cum {
			xs = append(xs, c, math.Nextafter(c, math.Inf(-1)), math.Nextafter(c, math.Inf(1)))
		}
		for _, x := range xs {
			if got, want := idx.Search(x), sort.SearchFloat64s(cum, x); got != want {
				t.Fatalf("normalised=%v cum=%v x=%v: index %d, binary search %d", normalised, cum, x, got, want)
			}
		}
	})
}

// TestCDFIndexDegenerate pins the CDFs a sampler can hand over with no
// usable mass or with flat runs: an all-zero CDF (a zero popularity
// total, an isolated community's partner row) answers 0 at x = 0 like
// the binary search, and a flat run of zero-rate entries is entered only
// at the index where the binary search enters it.
func TestCDFIndexDegenerate(t *testing.T) {
	sub := math.SmallestNonzeroFloat64
	cases := []struct {
		name string
		cum  []float64
		x    float64
		want int
	}{
		{"empty", nil, 0.5, 0},
		{"all zero at 0", []float64{0, 0, 0, 0}, 0, 0},
		{"all zero past total", []float64{0, 0, 0, 0}, sub, 4},
		{"single at 0", []float64{5}, 0, 0},
		{"single at total", []float64{5}, 5, 0},
		{"single past total", []float64{5}, 6, 1},
		{"leading zero run at 0", []float64{0, 0, 1, 2}, 0, 0},
		{"leading zero run above 0", []float64{0, 0, 1, 2}, sub, 2},
		{"middle flat run at its value", []float64{1, 3, 3, 3, 4}, 3, 1},
		{"middle flat run just above", []float64{1, 3, 3, 3, 4}, math.Nextafter(3, 4), 4},
		{"middle flat run just below", []float64{1, 3, 3, 3, 4}, math.Nextafter(3, 0), 1},
		{"trailing flat run at total", []float64{1, 2, 2, 2}, 2, 1},
		{"trailing flat run below total", []float64{1, 2, 2, 2}, 1.5, 1},
		{"subnormal total", []float64{0, sub, sub, 3 * sub}, 2 * sub, 3},
		{"negative x", []float64{0, 1, 2}, -1, 0},
		{"NaN x", []float64{0, 1, 2}, math.NaN(), 3},
		{"infinite x", []float64{0, 1, 2}, math.Inf(1), 3},
	}
	for _, tc := range cases {
		idx := NewCDFIndex(tc.cum)
		got := idx.Search(tc.x)
		if want := sort.SearchFloat64s(tc.cum, tc.x); want != tc.want {
			t.Fatalf("%s: table says %d, binary search %d", tc.name, tc.want, want)
		}
		if got != tc.want {
			t.Errorf("%s: Search(%v) = %d, want %d", tc.name, tc.x, got, tc.want)
		}
	}
}

// searchReads counts the cumulative entries Search reads for x: on the
// uniform arm the step-back check (and any step back) from the bucket,
// then the forward walk from the start to the answer, whose last read is
// the entry that stops it.
func searchReads(c *CDFIndex, x float64) int {
	a := c.Search(x)
	start, reads := c.bucket(x), 0
	if c.guide != nil {
		start = int(c.guide[start])
	} else {
		s := min(start, a)
		reads = start - s
		if s > 0 {
			reads++
		}
		start = s
	}
	reads += a - start
	if a < len(c.cum) {
		reads++
	}
	return reads
}

// TestCDFIndexProbeCount bounds the walk by counting reads, not time: on
// a fine uniform grid of x the mean number of cumulative entries read per
// Search stays within the guide table's 1 + n/m = 2 on the CDFs the
// samplers search: Figure 4's pair CDF (N = 50, uniform arm), a Pareto
// ω = 1 item CDF of 50, and every row of the hybrid-xh partner CDF (64
// communities of a 10⁵-node In/Out model, 70 % of each node's contacts
// inside its community).
func TestCDFIndexProbeCount(t *testing.T) {
	type probe struct {
		name string
		cum  []float64
	}
	var probes []probe

	const nodes = 50
	pairs := make([]float64, nodes*(nodes-1)/2)
	for i := range pairs {
		pairs[i] = 0.05
	}
	cum, _ := callerCDF(pairs, true)
	probes = append(probes, probe{"fig4 pair CDF", cum})

	pareto := make([]float64, 50)
	for i := range pareto {
		pareto[i] = 1 / float64(i+1)
	}
	cum, _ = callerCDF(pareto, true)
	probes = append(probes, probe{"Pareto item CDF", cum})

	const total, comms = 100_000, 64
	sizes := make([]int, comms)
	for l := range sizes {
		sizes[l] = total / comms
		if l < total%comms {
			sizes[l]++
		}
	}
	per := total / comms
	in, out := 0.7/float64(per-1), 0.3/float64(total-per)
	for k := 0; k < comms; k++ {
		w := make([]float64, comms)
		for l := range w {
			w[l] = out * float64(sizes[l])
			if l == k {
				w[l] = in * float64(sizes[l]-1)
			}
		}
		cum, _ := callerCDF(w, false)
		probes = append(probes, probe{"hybrid partner CDF", cum})
	}

	const grid = 100_000
	for i, p := range probes {
		idx := NewCDFIndex(p.cum)
		if (i == 0) != (idx.guide == nil) {
			t.Errorf("%s: uniform arm %v, want %v", p.name, idx.guide == nil, i == 0)
		}
		top := p.cum[len(p.cum)-1]
		reads := 0
		for k := 0; k < grid; k++ {
			reads += searchReads(&idx, (float64(k)+0.5)/grid*top)
		}
		if mean := float64(reads) / grid; mean > 2 {
			t.Errorf("%s (row %d): %.4f reads per search, want ≤ 2", p.name, i, mean)
		}
	}
}

// TestCDFIndexUniformArmIsArrayFree: equal weights, including a
// million-entry row, keep no guide array; other CDFs store one guide
// entry per bucket.
func TestCDFIndexUniformArmIsArrayFree(t *testing.T) {
	for _, n := range []int{1, 2, 3, 1225, 1_000_000} {
		w := make([]float64, n)
		for i := range w {
			w[i] = 1 / float64(n)
		}
		cum, _ := callerCDF(w, true)
		if idx := NewCDFIndex(cum); idx.Bytes() != 0 {
			t.Errorf("n=%d: %d guide bytes, want the array-free uniform arm", n, idx.Bytes())
		}
	}
	idx := NewCDFIndex([]float64{0, 0, 1, 2})
	if idx.Bytes() != 16 {
		t.Errorf("leading zero run: %d guide bytes, want 16", idx.Bytes())
	}
}

// BenchmarkCDFIndexSearch prices one Search over a 500k-entry
// heterogeneous CDF against the binary search it replaces.
func BenchmarkCDFIndexSearch(b *testing.B) {
	w := make([]float64, 500_000)
	for i := range w {
		w[i] = float64(i%7 + 1)
	}
	cum, _ := callerCDF(w, true)
	idx := NewCDFIndex(cum)
	rng := aliasRNG(1)
	b.Run("index", func(b *testing.B) {
		sink := 0
		for i := 0; i < b.N; i++ {
			sink += idx.Search(rng.Float64())
		}
		_ = sink
	})
	b.Run("binary", func(b *testing.B) {
		sink := 0
		for i := 0; i < b.N; i++ {
			sink += sort.SearchFloat64s(cum, rng.Float64())
		}
		_ = sink
	})
}

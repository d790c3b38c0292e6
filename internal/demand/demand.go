// Package demand models client demand for content: item popularity
// distributions (the paper uses Pareto/Zipf with parameter ω), per-node
// popularity profiles π_{i,n}, and the Poisson request processes that the
// simulator draws request arrivals from.
package demand

import (
	"fmt"
	"math"
	"math/rand/v2"
)

// Popularity holds the per-item total demand rates d_i for a catalog of
// items. Rates are arbitrary non-negative reals; the paper's analysis
// works with any values.
type Popularity struct {
	Rates []float64 // d_i, indexed by item
}

// Items returns the catalog size.
func (p Popularity) Items() int { return len(p.Rates) }

// Total returns Σ_i d_i, the aggregate request rate.
func (p Popularity) Total() float64 {
	var sum float64
	for _, d := range p.Rates {
		sum += d
	}
	return sum
}

// Normalized returns a copy scaled so the aggregate rate is total.
func (p Popularity) Normalized(total float64) Popularity {
	cur := p.Total()
	out := Popularity{Rates: make([]float64, len(p.Rates))}
	if cur == 0 {
		return out
	}
	for i, d := range p.Rates {
		out.Rates[i] = d * total / cur
	}
	return out
}

// Clone returns a deep copy.
func (p Popularity) Clone() Popularity {
	return Popularity{Rates: append([]float64(nil), p.Rates...)}
}

// Validate reports an error when any rate is negative or non-finite.
func (p Popularity) Validate() error {
	for i, d := range p.Rates {
		if d < 0 || math.IsNaN(d) || math.IsInf(d, 0) {
			return fmt.Errorf("demand: item %d has invalid rate %g", i, d)
		}
	}
	return nil
}

// DriftL1 measures how far popularity b has drifted from a as half the L1
// distance between the two normalized distributions — 0 for identical
// shapes (any scale), 1 for disjoint support. The serving layer compares
// it against a threshold to decide when a warm re-solve is worthwhile;
// total-rate changes alone do not move the optimal allocation's shape, so
// the metric deliberately ignores them.
func DriftL1(a, b Popularity) float64 {
	if len(a.Rates) != len(b.Rates) {
		return 1
	}
	ta, tb := a.Total(), b.Total()
	if ta == 0 || tb == 0 {
		if ta == tb {
			return 0
		}
		return 1
	}
	var d float64
	for i := range a.Rates {
		d += math.Abs(a.Rates[i]/ta - b.Rates[i]/tb)
	}
	return d / 2
}

// Pareto builds the paper's default popularity: d_i ∝ (i+1)^{-ω} for a
// catalog of items, scaled so the aggregate request rate equals total.
// ω = 1 is the value used throughout Section 6.
func Pareto(items int, omega, total float64) Popularity {
	p := Popularity{Rates: make([]float64, items)}
	for i := range p.Rates {
		p.Rates[i] = math.Pow(float64(i+1), -omega)
	}
	return p.Normalized(total)
}

// Uniform builds equal demand across the catalog with aggregate rate total.
func Uniform(items int, total float64) Popularity {
	p := Popularity{Rates: make([]float64, items)}
	for i := range p.Rates {
		p.Rates[i] = 1
	}
	return p.Normalized(total)
}

// Geometric builds d_i ∝ r^i for 0 < r < 1, a sharply skewed alternative
// used in ablations.
func Geometric(items int, r, total float64) Popularity {
	p := Popularity{Rates: make([]float64, items)}
	v := 1.0
	for i := range p.Rates {
		p.Rates[i] = v
		v *= r
	}
	return p.Normalized(total)
}

// Profile is the per-node demand split π_{i,n}: Profile[i][n] is the
// probability that a request for item i originates at client n, with
// Σ_n Profile[i][n] = 1 for each item that has demand.
type Profile struct {
	P [][]float64 // [item][client]
}

// UniformProfile builds the paper's default π_{i,n} = 1/|C|: every item is
// equally popular at every client.
func UniformProfile(items, clients int) Profile {
	p := Profile{P: make([][]float64, items)}
	for i := range p.P {
		row := make([]float64, clients)
		for n := range row {
			row[n] = 1 / float64(clients)
		}
		p.P[i] = row
	}
	return p
}

// Validate checks that every row with demand sums to 1 and entries are
// valid probabilities.
func (p Profile) Validate() error {
	for i, row := range p.P {
		var sum float64
		for n, v := range row {
			if v < 0 || v > 1 || math.IsNaN(v) {
				return fmt.Errorf("demand: π[%d][%d]=%g invalid", i, n, v)
			}
			sum += v
		}
		if math.Abs(sum-1) > 1e-9 {
			return fmt.Errorf("demand: π row %d sums to %g, want 1", i, sum)
		}
	}
	return nil
}

// Request is one demand event: client Node wants Item at time T.
type Request struct {
	T    float64
	Node int
	Item int
}

// Process generates request arrivals. The aggregate process is Poisson
// with rate Σ d_i; each arrival picks an item with probability d_i/Σd and
// then a node from the item's profile row. This is exactly the
// superposition of the independent Poisson(d_i·π_{i,n}) processes of
// Section 3.3.
type Process struct {
	items   int
	itemCDF []float64
	nodeCDF [][]float64 // per item; items whose profile rows share storage share one CDF
	equal   []bool      // per item: its profile row's weights are all equal (sampleEqual)
	total   float64
	rng     *rand.Rand
	now     float64
}

// NewProcess builds a request process starting at time 0. The profile must
// have one row per item; pass UniformProfile for the paper's default.
// Rows that share a backing array (the same row given to several items)
// get one shared CDF, so a profile built from one row costs one CDF
// rather than one per item. A row whose weights are all equal (the uniform
// profile) is flagged, and its node draws cost O(1) instead of a binary
// search over the row's N-entry CDF.
func NewProcess(pop Popularity, profile Profile, rng *rand.Rand) (*Process, error) {
	if err := pop.Validate(); err != nil {
		return nil, err
	}
	if len(profile.P) != pop.Items() {
		return nil, fmt.Errorf("demand: profile has %d rows for %d items", len(profile.P), pop.Items())
	}
	if err := profile.Validate(); err != nil {
		return nil, err
	}
	p := &Process{items: pop.Items(), rng: rng, total: pop.Total()}
	p.itemCDF = cdf(pop.Rates)
	p.nodeCDF = make([][]float64, len(profile.P))
	p.equal = make([]bool, len(profile.P))
	type rowKey struct {
		first *float64
		n     int
	}
	type builtRow struct {
		cdf   []float64
		equal bool
	}
	built := make(map[rowKey]builtRow)
	for i, row := range profile.P {
		k := rowKey{&row[0], len(row)} // Validate rejects empty rows
		b, ok := built[k]
		if !ok {
			b = builtRow{cdf(row), equalWeights(row)}
			built[k] = b
		}
		p.nodeCDF[i], p.equal[i] = b.cdf, b.equal
	}
	return p, nil
}

// Total returns the aggregate request rate.
func (p *Process) Total() float64 { return p.total }

// Next returns the next request, advancing the process clock. It returns
// false when the aggregate rate is zero (no demand, no next event).
func (p *Process) Next() (Request, bool) {
	if p.total <= 0 {
		return Request{}, false
	}
	p.now += p.rng.ExpFloat64() / p.total
	item := sampleCDF(p.itemCDF, p.rng.Float64())
	var node int
	if u := p.rng.Float64(); p.equal[item] {
		node = sampleEqual(p.nodeCDF[item], u)
	} else {
		node = sampleCDF(p.nodeCDF[item], u)
	}
	return Request{T: p.now, Node: node, Item: item}, true
}

// SetPopularity swaps the demand rates mid-run (used by the dynamic-demand
// extension experiment); the process clock is unchanged.
func (p *Process) SetPopularity(pop Popularity) error {
	if err := pop.Validate(); err != nil {
		return err
	}
	if pop.Items() != p.items {
		return fmt.Errorf("demand: new popularity has %d items, profile has %d", pop.Items(), p.items)
	}
	p.total = pop.Total()
	p.itemCDF = cdf(pop.Rates)
	return nil
}

// cdf converts non-negative weights into a cumulative distribution.
func cdf(w []float64) []float64 {
	out := make([]float64, len(w))
	var run float64
	for i, v := range w {
		run += v
		out[i] = run
	}
	if run > 0 {
		for i := range out {
			out[i] /= run
		}
	}
	// Force the last entry to exactly 1 to make sampling watertight.
	if len(out) > 0 {
		out[len(out)-1] = 1
	}
	return out
}

// equalWeights reports whether every weight of row equals the first and
// is positive.
func equalWeights(row []float64) bool {
	for _, v := range row {
		if v != row[0] {
			return false
		}
	}
	return row[0] > 0
}

// sampleCDF returns the smallest index i with c[i] ≥ u, by binary search:
// the draw of u ∈ [0, 1) from the cumulative distribution c.
func sampleCDF(c []float64, u float64) int {
	lo, hi := 0, len(c)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if c[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// sampleEqual returns sampleCDF(c, u) for the CDF of n equal weights. Its
// entries are i/n up to rounding, so the answer lies within a step or two
// of ⌊u·n⌋: start there and walk to the smallest i with c[i] ≥ u. c is
// non-decreasing with c[n−1] = 1 > u, so the walk ends at the binary
// search's index.
func sampleEqual(c []float64, u float64) int {
	i := min(int(u*float64(len(c))), len(c)-1)
	for i > 0 && c[i-1] >= u {
		i--
	}
	for c[i] < u {
		i++
	}
	return i
}

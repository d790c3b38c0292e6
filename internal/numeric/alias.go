package numeric

import (
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
)

// ErrBadWeights is returned when an alias table is built from weights that
// are not a usable discrete distribution: a negative or infinite entry, or
// a total weight that is zero or overflows float64. NaN entries return
// ErrNaN, consistent with the root finders: every comparison against NaN
// is false, so a NaN weight would otherwise slip through the small/large
// partition and corrupt the table silently.
var ErrBadWeights = errors.New("numeric: invalid sampling weights")

// Alias is a Walker/Vose alias table: O(n) construction, O(1) sampling
// from a fixed discrete distribution. The streaming contact generators
// draw their pair from it, where n is the number of node pairs — O(N²)
// in the population size — and one draw happens per generated contact.
// It draws a different index than a CDF lookup for the same uniform;
// samplers whose digests pin the CDF's buckets locate their uniform with
// CDFIndex instead.
//
// The table stores, per column i, the probability prob[i] of keeping i
// and the alias to sample otherwise. Columns with zero weight get
// prob 0 and an alias to a positive-weight column, so they are never
// returned. Memory is 12 bytes per weight (float64 + int32), except
// when every weight is equal: then every column keeps itself, and the
// table holds no arrays at all.
type Alias struct {
	n     int
	prob  []float64 // nil: every column keeps itself (equal weights)
	alias []int32
}

// NewAlias builds the table. Weights must be non-negative and finite with
// a positive, finite total; they need not be normalized. len(weights)
// must fit in an int32 (the alias column index), which holds for any
// population the rate matrices can represent.
//
// Equal weights return the array-free table. That is exact, not an
// approximation: equal weights all scale to one common number, so one of
// Vose's small and large lists is empty, nothing pairs, and the full
// build would give every column prob 1 and alias itself. Sample draws
// the same uniform either way and returns the same column.
func NewAlias(weights []float64) (*Alias, error) {
	total, equal, err := aliasTotal(weights)
	if err != nil {
		return nil, err
	}
	if equal {
		return &Alias{n: len(weights)}, nil
	}
	return vose(weights, total), nil
}

// aliasTotal validates the weights and returns their total and whether
// they are all equal.
func aliasTotal(weights []float64) (total float64, equal bool, err error) {
	n := len(weights)
	if n == 0 {
		return 0, false, fmt.Errorf("%w: empty weight vector", ErrBadWeights)
	}
	if n > math.MaxInt32 {
		return 0, false, fmt.Errorf("%w: %d weights exceed int32 columns", ErrBadWeights, n)
	}
	equal = true
	for i, w := range weights {
		if math.IsNaN(w) {
			return 0, false, fmt.Errorf("%w: weight %d is NaN", ErrNaN, i)
		}
		if w < 0 || math.IsInf(w, 0) {
			return 0, false, fmt.Errorf("%w: weight %d is %g", ErrBadWeights, i, w)
		}
		total += w
		equal = equal && w == weights[0]
	}
	if total <= 0 {
		return 0, false, fmt.Errorf("%w: total weight is zero", ErrBadWeights)
	}
	// Finite weights can still sum past the float64 range. An infinite
	// total corrupts the scaled columns, and the table then never
	// returns some positive-weight columns.
	if math.IsInf(total, 0) {
		return 0, false, fmt.Errorf("%w: total weight overflows float64", ErrBadWeights)
	}
	return total, equal, nil
}

// vose builds the full table over validated weights with the given total.
func vose(weights []float64, total float64) *Alias {
	n := len(weights)
	a := &Alias{n: n, prob: make([]float64, n), alias: make([]int32, n)}
	// Scale so the average column is exactly 1, then pair each deficient
	// ("small") column with a surplus ("large") one. w·n can overflow
	// where the total does not; only then is w/total·n taken, so every
	// other table keeps its bits.
	scaled := make([]float64, n)
	for i, w := range weights {
		if wn := w * float64(n); !math.IsInf(wn, 0) {
			scaled[i] = wn / total
		} else {
			scaled[i] = w / total * float64(n)
		}
	}
	small := make([]int32, 0, n)
	large := make([]int32, 0, n)
	for i, s := range scaled {
		if s < 1 {
			small = append(small, int32(i))
		} else {
			large = append(large, int32(i))
		}
	}
	for len(small) > 0 && len(large) > 0 {
		s := small[len(small)-1]
		small = small[:len(small)-1]
		l := large[len(large)-1]
		large = large[:len(large)-1]
		a.prob[s] = scaled[s]
		a.alias[s] = l
		scaled[l] = (scaled[l] + scaled[s]) - 1
		if scaled[l] < 1 {
			small = append(small, l)
		} else {
			large = append(large, l)
		}
	}
	// Leftovers hold 1 up to float residue; they keep themselves.
	for _, l := range large {
		a.prob[l] = 1
		a.alias[l] = l
	}
	for _, s := range small {
		a.prob[s] = 1
		a.alias[s] = s
	}
	return a
}

// Len returns the number of columns.
func (a *Alias) Len() int { return a.n }

// Probabilities reconstructs the exact sampling distribution the table
// implements: out[i] is the probability Sample returns i, assembled from
// the per-column keep probabilities and the aliased residues. It is the
// verification hook of the two-level samplers in internal/rates — their
// equivalence suite checks that the hierarchical tables reproduce the
// normalized flat rates to 1e-12, which requires reading the realized
// distribution back out of the table rather than trusting the builder.
// O(n); allocates the result slice.
func (a *Alias) Probabilities() []float64 {
	out := make([]float64, a.n)
	inv := 1 / float64(a.n)
	if a.prob == nil {
		for i := range out {
			out[i] = inv
		}
		return out
	}
	for i, p := range a.prob {
		out[i] += p * inv
		if p < 1 {
			out[a.alias[i]] += (1 - p) * inv
		}
	}
	return out
}

// Sample draws one index with probability proportional to its weight,
// using a single uniform: the integer part picks the column, the
// fractional part decides between the column and its alias. No
// allocation; two array reads, none for an equal-weight table.
func (a *Alias) Sample(rng *rand.Rand) int {
	u := rng.Float64() * float64(a.n)
	i := int(u)
	if i >= a.n { // guards float rounding at the top end
		i = a.n - 1
	}
	if a.prob == nil || u-float64(i) < a.prob[i] {
		return i
	}
	return int(a.alias[i])
}

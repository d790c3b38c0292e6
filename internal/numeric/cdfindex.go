package numeric

import (
	"fmt"
	"math"
)

// CDFIndex is a guide table (Chen & Asau, 1974) over a cumulative array
// the caller owns: Search returns exactly the index a binary search
// returns, in O(1) expected reads instead of a mispredicting O(log n)
// descent. The contact, demand and hybrid samplers draw every CDF
// variate through it, so their pinned digests stay on the binary search's
// buckets: the index reads the caller's cumulative values and never
// rebuilds or renormalises them.
//
// A value x falls in bucket min(⌊x·scale⌋, m−1), scale = m/cum[m−1] and
// m = len(cum). guide[j] is the smallest i whose own bucket is ≥ j. The
// bucket map is monotone in x under any float rounding, so every index
// below guide[bucket(x)] holds a value < x, and a forward walk from there
// stops at the smallest i with cum[i] ≥ x. With one bucket per entry the
// walk reads at most 1 + n/m = 2 entries on average over a uniform x.
//
// When every entry i lies in bucket i or i+1 (every CDF of equal
// weights, such as a uniform pair or profile row), each guide entry is
// its own bucket or the one before, and the guide is not stored: the
// walk starts at the bucket and steps back at most once. That keeps a
// million-entry uniform row free of a 4 MB table, as NewAlias keeps
// equal weights free of alias arrays.
type CDFIndex struct {
	cum   []float64
	guide []int32 // nil: the guide is the bucket or the one before (uniform arm)
	scale float64 // m/cum[m−1], or 0 when that is not a positive finite number
	top   float64 // float64(last)
	last  int     // the top bucket, m−1 (0 for an empty array)
}

// NewCDFIndex builds the index over cum, which must be non-decreasing
// (for Search to agree with a binary search) and must not be modified
// while the index is in use. A zero, infinite or NaN last entry puts
// every value in bucket 0: Search stays exact and walks from the start.
// len(cum) must fit in an int32. O(len(cum)); allocates 4 bytes per
// entry unless the CDF takes the uniform arm.
func NewCDFIndex(cum []float64) CDFIndex {
	m := len(cum)
	if m > math.MaxInt32 {
		panic(fmt.Sprintf("numeric: CDF of %d entries exceeds int32 guide entries", m))
	}
	c := CDFIndex{cum: cum}
	if m == 0 {
		return c
	}
	c.last, c.top = m-1, float64(m-1)
	if s := float64(m) / cum[m-1]; s > 0 && !math.IsInf(s, 0) {
		c.scale = s
	}
	if !c.uniform() {
		c.guide = make([]int32, m)
		j := 0
		for i, v := range cum {
			for b := c.bucket(v); j <= b; j++ {
				c.guide[j] = int32(i)
			}
		}
		for ; j < m; j++ {
			c.guide[j] = int32(m)
		}
	}
	return c
}

// uniform reports whether every entry i lies in bucket i or i+1. Then
// every bucket j's guide entry is j or j−1: entries below j−1 lie in
// buckets below j, and entry j in bucket j or above.
func (c *CDFIndex) uniform() bool {
	for i, v := range c.cum {
		if uint(c.bucket(v)-i) > 1 {
			return false
		}
	}
	return true
}

// bucket maps a value to its guide bucket, monotonically. NaN and
// non-positive products land in bucket 0.
func (c *CDFIndex) bucket(x float64) int {
	f := x * c.scale
	if f >= c.top {
		return c.last
	}
	if f > 0 {
		return int(f)
	}
	return 0
}

// Search returns the smallest i with cum[i] ≥ x, or len(cum) when there
// is none — exactly what sort.SearchFloat64s(cum, x) returns.
func (c *CDFIndex) Search(x float64) int {
	cum := c.cum
	i := c.bucket(x)
	if c.guide != nil {
		i = int(c.guide[i])
	} else {
		for i > 0 && cum[i-1] >= x {
			i--
		}
	}
	// !(cum[i] >= x) rather than cum[i] < x: the binary search's own
	// predicate, so a NaN x walks to len(cum) as the search ends there.
	for i < len(cum) && !(cum[i] >= x) {
		i++
	}
	return i
}

// Bytes returns the memory the index holds beyond the caller's CDF: 4
// bytes per guide entry, and 0 on the uniform arm.
func (c *CDFIndex) Bytes() int { return 4 * len(c.guide) }

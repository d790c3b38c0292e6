// Package trace represents opportunistic contact traces: timestamped
// meetings between pairs of nodes. It provides the in-memory trace type
// used by the simulator, a text serialization format, transforms
// (windowing, node filtering, relabeling), and the empirical statistics
// (pairwise contact rates, inter-contact distributions) that the
// heterogeneous experiments and the memoryless-trace synthesis rely on.
//
// Meetings are instantaneous, matching the paper's simulation premise that
// "meetings are sufficiently long for nodes to complete the protocol
// exchange" (Section 6.1); durations, if present in a source trace, are
// collapsed to the meeting start.
package trace

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// Contact is one meeting: nodes A and B see each other at time T. The
// relation is symmetric; by convention A < B in normalized traces.
type Contact struct {
	T    float64
	A, B int
}

// Trace is a time-ordered sequence of contacts over a fixed node set
// {0, …, Nodes-1} observed during [0, Duration].
type Trace struct {
	Nodes    int
	Duration float64
	Contacts []Contact
}

// ErrInvalid is wrapped by Validate for malformed traces.
var ErrInvalid = errors.New("trace: invalid")

// CheckDims is the dimension rule every contact input obeys, whether a
// materialized Trace or a streamed Source: at least one node and a
// positive, finite duration.
func CheckDims(nodes int, duration float64) error {
	if nodes <= 0 {
		return fmt.Errorf("%w: %d nodes", ErrInvalid, nodes)
	}
	if !(duration > 0) || math.IsInf(duration, 1) { // catches NaN too
		return fmt.Errorf("%w: duration %g", ErrInvalid, duration)
	}
	return nil
}

// Validate checks the dimensions (CheckDims), ordering, node ranges and
// time bounds.
func (tr *Trace) Validate() error {
	if err := CheckDims(tr.Nodes, tr.Duration); err != nil {
		return err
	}
	prev := math.Inf(-1)
	for i, c := range tr.Contacts {
		if c.T < prev {
			return fmt.Errorf("%w: contact %d out of order (%g after %g)", ErrInvalid, i, c.T, prev)
		}
		if c.T < 0 || c.T > tr.Duration {
			return fmt.Errorf("%w: contact %d at t=%g outside [0,%g]", ErrInvalid, i, c.T, tr.Duration)
		}
		if c.A < 0 || c.A >= tr.Nodes || c.B < 0 || c.B >= tr.Nodes || c.A == c.B {
			return fmt.Errorf("%w: contact %d has bad endpoints (%d,%d)", ErrInvalid, i, c.A, c.B)
		}
		prev = c.T
	}
	return nil
}

// Normalize sorts contacts by time and orients each pair so A < B. It
// returns the receiver for chaining.
func (tr *Trace) Normalize() *Trace {
	for i := range tr.Contacts {
		if tr.Contacts[i].A > tr.Contacts[i].B {
			tr.Contacts[i].A, tr.Contacts[i].B = tr.Contacts[i].B, tr.Contacts[i].A
		}
	}
	sort.SliceStable(tr.Contacts, func(i, j int) bool { return tr.Contacts[i].T < tr.Contacts[j].T })
	return tr
}

// Clone returns a deep copy.
func (tr *Trace) Clone() *Trace {
	return &Trace{
		Nodes:    tr.Nodes,
		Duration: tr.Duration,
		Contacts: append([]Contact(nil), tr.Contacts...),
	}
}

// Window returns the sub-trace on [from, to), re-based so time starts at 0.
func (tr *Trace) Window(from, to float64) *Trace {
	out := &Trace{Nodes: tr.Nodes, Duration: to - from}
	for _, c := range tr.Contacts {
		if c.T >= from && c.T < to {
			out.Contacts = append(out.Contacts, Contact{T: c.T - from, A: c.A, B: c.B})
		}
	}
	return out
}

// FilterNodes keeps only contacts between nodes in keep, relabeling them
// 0..len(keep)-1 in the order given. This mirrors the paper's selection of
// the 50 best-covered Infocom participants.
func (tr *Trace) FilterNodes(keep []int) (*Trace, error) {
	relabel := make(map[int]int, len(keep))
	for newID, oldID := range keep {
		if oldID < 0 || oldID >= tr.Nodes {
			return nil, fmt.Errorf("trace: node %d out of range", oldID)
		}
		if _, dup := relabel[oldID]; dup {
			return nil, fmt.Errorf("trace: node %d listed twice", oldID)
		}
		relabel[oldID] = newID
	}
	out := &Trace{Nodes: len(keep), Duration: tr.Duration}
	for _, c := range tr.Contacts {
		a, okA := relabel[c.A]
		b, okB := relabel[c.B]
		if okA && okB {
			out.Contacts = append(out.Contacts, Contact{T: c.T, A: a, B: b})
		}
	}
	return out.Normalize(), nil
}

// PairIndex maps an unordered node pair to a dense index in
// [0, Nodes·(Nodes-1)/2), used by rate matrices and statistics.
func PairIndex(nodes, a, b int) int {
	if a > b {
		a, b = b, a
	}
	// Index of (a,b), a < b, in lexicographic order of pairs.
	return a*(2*nodes-a-1)/2 + (b - a - 1)
}

// NumPairs returns the number of unordered node pairs.
func NumPairs(nodes int) int { return nodes * (nodes - 1) / 2 }

// RateMatrix holds symmetric pairwise contact intensities µ_{m,n}
// (contacts per unit time), stored densely over unordered pairs.
type RateMatrix struct {
	Nodes int
	rates []float64
}

// NewRateMatrix creates a zero rate matrix for the given node count.
func NewRateMatrix(nodes int) *RateMatrix {
	return &RateMatrix{Nodes: nodes, rates: make([]float64, NumPairs(nodes))}
}

// UniformRates builds the homogeneous case µ_{m,n} = mu for all pairs.
func UniformRates(nodes int, mu float64) *RateMatrix {
	rm := NewRateMatrix(nodes)
	for i := range rm.rates {
		rm.rates[i] = mu
	}
	return rm
}

// At returns µ_{a,b}; the diagonal is zero by definition.
func (rm *RateMatrix) At(a, b int) float64 {
	if a == b {
		return 0
	}
	return rm.rates[PairIndex(rm.Nodes, a, b)]
}

// Set assigns µ_{a,b} (symmetric).
func (rm *RateMatrix) Set(a, b int, mu float64) {
	if a == b {
		return
	}
	rm.rates[PairIndex(rm.Nodes, a, b)] = mu
}

// Mean returns the average pairwise rate, the natural plug-in for the µ
// parameter of the reaction function on heterogeneous traces.
func (rm *RateMatrix) Mean() float64 {
	if len(rm.rates) == 0 {
		return 0
	}
	var sum float64
	for _, r := range rm.rates {
		sum += r
	}
	return sum / float64(len(rm.rates))
}

// TotalRate returns Σ over unordered pairs of µ_{a,b}: the aggregate
// meeting rate of the whole system.
func (rm *RateMatrix) TotalRate() float64 {
	var sum float64
	for _, r := range rm.rates {
		sum += r
	}
	return sum
}

// Rates exposes the dense pair-indexed storage (read-only by convention).
func (rm *RateMatrix) Rates() []float64 { return rm.rates }

// EmpiricalRates estimates the pairwise rate matrix of a trace:
// µ̂_{a,b} = (#contacts between a and b)/Duration. This is the memoryless
// approximation the paper computes OPT under for real traces, and the
// input for memoryless trace synthesis (Figure 5c).
func EmpiricalRates(tr *Trace) *RateMatrix {
	rm := NewRateMatrix(tr.Nodes)
	if tr.Duration <= 0 {
		return rm
	}
	for _, c := range tr.Contacts {
		rm.rates[PairIndex(tr.Nodes, c.A, c.B)] += 1 / tr.Duration
	}
	return rm
}

// InterContactTimes returns the gaps between successive meetings of each
// pair, pooled over all pairs that met at least twice. Used to verify the
// burstiness of synthetic traces (a memoryless trace has exponential
// gaps; conference/vehicular traces have heavy-tailed ones).
func InterContactTimes(tr *Trace) []float64 {
	last := make(map[[2]int]float64)
	var gaps []float64
	for _, c := range tr.Contacts {
		a, b := c.A, c.B
		if a > b {
			a, b = b, a
		}
		key := [2]int{a, b}
		if t0, ok := last[key]; ok {
			gaps = append(gaps, c.T-t0)
		}
		last[key] = c.T
	}
	return gaps
}

// ContactCounts returns the number of contacts per node, a coverage
// measure used to select well-observed nodes.
func ContactCounts(tr *Trace) []int {
	counts := make([]int, tr.Nodes)
	for _, c := range tr.Contacts {
		counts[c.A]++
		counts[c.B]++
	}
	return counts
}

// TopNodes returns the ids of the k nodes with the most contacts,
// breaking ties by lower id, in decreasing-coverage order.
func TopNodes(tr *Trace, k int) []int {
	counts := ContactCounts(tr)
	ids := make([]int, tr.Nodes)
	for i := range ids {
		ids[i] = i
	}
	sort.SliceStable(ids, func(i, j int) bool {
		if counts[ids[i]] != counts[ids[j]] {
			return counts[ids[i]] > counts[ids[j]]
		}
		return ids[i] < ids[j]
	})
	if k > len(ids) {
		k = len(ids)
	}
	return ids[:k]
}

// CoefficientOfVariation returns the CV (stddev/mean) of the pooled
// inter-contact gaps; 1 indicates memoryless, > 1 bursty.
func CoefficientOfVariation(gaps []float64) float64 {
	if len(gaps) < 2 {
		return math.NaN()
	}
	var sum float64
	for _, g := range gaps {
		sum += g
	}
	mean := sum / float64(len(gaps))
	if mean == 0 {
		return math.NaN()
	}
	var ss float64
	for _, g := range gaps {
		d := g - mean
		ss += d * d
	}
	return math.Sqrt(ss/float64(len(gaps)-1)) / mean
}

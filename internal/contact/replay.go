// ReplayStream: the pair-CDF sampler of the continuous-time model.
//
// The figure harness's golden digests pin the contact sequence this
// sampler draws — ExpFloat64 for the superposed inter-contact gap, then
// one uniform probed through the pair CDF — so the batch executor cannot
// switch those experiments to the alias-sampling Stream (a different RNG
// stream means different contacts and different goldens). Generate is
// this sampler collected into a Trace; ReplayStream streams it without
// materializing the contact list. Its state is the pair CDF plus the
// idx → (a, b) tables — O(N²), independent of duration — and it is
// trace.Reopenable, so one trial can be streamed twice (empirical rates,
// then the lockstep simulation) from one value.
package contact

import (
	"fmt"
	"math/rand/v2"

	"impatience/internal/trace"
)

// ReplayStream streams the continuous-time contact process through the
// pair CDF. It implements trace.Source and trace.Reopenable.
type ReplayStream struct {
	nodes        int
	duration     float64
	total        float64
	cum          []float64 // pair CDF
	pairA, pairB []int32   // dense pair index → endpoints
	seed1, seed2 uint64
	rng          *rand.Rand
	t            float64
	done         bool
}

// NewReplayStream builds a replayable streaming generator over the rate
// matrix, drawing from rand.New(rand.NewPCG(seed1, seed2)). For equal
// (matrix, duration, seeds) its contact sequence is bit-identical to
// Generate's output with the same PCG. A zero-total matrix yields the
// empty process; negative, NaN or infinite rates are rejected.
func NewReplayStream(rm *trace.RateMatrix, duration float64, seed1, seed2 uint64) (*ReplayStream, error) {
	s, err := newCDFSampler(rm, duration, rand.New(rand.NewPCG(seed1, seed2)))
	if err != nil {
		return nil, err
	}
	s.seed1, s.seed2 = seed1, seed2
	return s, nil
}

// newCDFSampler builds the pair CDF and pair tables over the rate matrix
// and draws from rng.
func newCDFSampler(rm *trace.RateMatrix, duration float64, rng *rand.Rand) (*ReplayStream, error) {
	if duration <= 0 {
		return nil, fmt.Errorf("contact: duration %g not positive", duration)
	}
	// Entry-wise validation, not just a total check: a matrix mixing
	// negative and positive rates can have a positive total while its CDF
	// is non-monotonic, in which case the sampler would silently assign
	// events to the wrong pairs.
	total, err := validRates(rm)
	if err != nil {
		return nil, err
	}
	s := &ReplayStream{nodes: rm.Nodes, duration: duration, total: total, rng: rng}
	if total <= 0 {
		// The documented zero-contact process: no rate, no events.
		s.done = true
		return s, nil
	}
	// Float summation order decides the exact bucket boundaries; a
	// boundary moved by one ulp would re-assign contacts and move every
	// digest pinned on this sampler.
	rates := rm.Rates()
	s.cum = make([]float64, len(rates))
	run := 0.0
	for i, r := range rates {
		run += r
		s.cum[i] = run / total
	}
	s.cum[len(s.cum)-1] = 1
	s.pairA = make([]int32, len(rates))
	s.pairB = make([]int32, len(rates))
	for a := 0; a < rm.Nodes; a++ {
		for b := a + 1; b < rm.Nodes; b++ {
			idx := trace.PairIndex(rm.Nodes, a, b)
			s.pairA[idx], s.pairB[idx] = int32(a), int32(b)
		}
	}
	return s, nil
}

// NewHomogeneousReplayStream is NewReplayStream over the homogeneous
// setting (every pair at rate mu), drawing GenerateHomogeneous's
// contacts.
func NewHomogeneousReplayStream(nodes int, mu, duration float64, seed1, seed2 uint64) (*ReplayStream, error) {
	return NewReplayStream(trace.UniformRates(nodes, mu), duration, seed1, seed2)
}

// Nodes implements trace.Source.
func (s *ReplayStream) Nodes() int { return s.nodes }

// Duration implements trace.Source.
func (s *ReplayStream) Duration() float64 { return s.duration }

// Next implements trace.Source: one draw of NextBatch. Zero allocations.
func (s *ReplayStream) Next() (trace.Contact, bool) {
	var c [1]trace.Contact
	if s.NextBatch(c[:]) == 0 {
		return trace.Contact{}, false
	}
	return c[0], true
}

// NextBatch implements trace.BulkSource and is the sampler's one draw
// loop: per contact, one exponential gap of the superposed process, then
// one uniform probed through the pair CDF.
func (s *ReplayStream) NextBatch(buf []trace.Contact) int {
	if s.done {
		return 0
	}
	n := 0
	t, total, duration := s.t, s.total, s.duration
	for n < len(buf) {
		t += s.rng.ExpFloat64() / total
		if t > duration {
			s.done = true
			break
		}
		idx := searchCDF(s.cum, s.rng.Float64())
		buf[n] = trace.Contact{T: t, A: int(s.pairA[idx]), B: int(s.pairB[idx])}
		n++
	}
	s.t = t
	return n
}

// searchCDF returns the smallest index i with cdf[i] >= u.
func searchCDF(cdf []float64, u float64) int {
	lo, hi := 0, len(cdf)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Reopen implements trace.Reopenable: the copy re-derives its RNG from
// the recorded seeds and shares the immutable CDF and pair tables, so
// reopening costs one small struct however large the population.
func (s *ReplayStream) Reopen() (trace.Source, error) {
	r := &ReplayStream{
		nodes: s.nodes, duration: s.duration, total: s.total,
		cum: s.cum, pairA: s.pairA, pairB: s.pairB,
		seed1: s.seed1, seed2: s.seed2,
	}
	if s.total <= 0 {
		r.done = true
		return r, nil
	}
	r.rng = rand.New(rand.NewPCG(s.seed1, s.seed2))
	return r, nil
}

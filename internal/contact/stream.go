// Streaming counterparts of the materialized generators: the same
// contact models, drawn lazily one contact per Next call, so the peak
// memory of the contact process is the O(N²) rate state instead of the
// O(N²·µ·T) contact list. The continuous-time stream additionally
// replaces the per-contact binary search over the pair CDF (O(log N²)
// with cache-hostile access) by a Walker/Vose alias draw (O(1), two
// array reads) — see internal/numeric.
//
// Determinism: a stream is a pure function of (rate matrix, duration,
// RNG seed), so streaming runs are reproducible exactly like
// materialized ones. The RNG *stream* of NewStream differs from
// Generate's (an alias draw per contact instead of a CDF probe), which is
// why Generate and ReplayStream keep the pair-CDF sampler: the
// repository's golden digests pin its contacts bit-for-bit.
// NewDiscreteStream, by contrast, consumes randomness in exactly
// Generate­Discrete's order and yields bit-identical contacts for the
// same seed.
package contact

import (
	"fmt"
	"math"
	"math/rand/v2"

	"impatience/internal/numeric"
	"impatience/internal/trace"
)

// validRates checks a rate matrix entry-wise (negative, NaN and infinite
// intensities are modelling errors, not samplable weights) and returns
// the total rate. The materialized generators used to trust the matrix
// and could silently mis-sample from a non-monotonic CDF; now every
// generator shares this gate. Finite rates can still sum to +Inf, which
// would make every clock step ExpFloat64()/Inf = 0, so a stream would
// never pass its duration: that total is rejected too.
func validRates(rm *trace.RateMatrix) (float64, error) {
	var total float64
	for i, r := range rm.Rates() {
		if r < 0 || math.IsNaN(r) || math.IsInf(r, 0) {
			a, b := trace.PairFromIndex(rm.Nodes, i)
			return 0, fmt.Errorf("contact: pair (%d,%d) has invalid rate %g", a, b, r)
		}
		total += r
	}
	if math.IsInf(total, 0) {
		return 0, fmt.Errorf("contact: total contact rate overflows float64")
	}
	return total, nil
}

// Stream draws the continuous-time contact process lazily: the
// superposition of all pairwise Poisson processes, with each event
// assigned to a pair by one alias-method draw. State is the alias table
// over pair intensities, regardless of duration: 12 bytes per pair, and
// none when every pair has the same rate (NewHomogeneousStream).
type Stream struct {
	nodes    int
	duration float64
	total    float64
	alias    *numeric.Alias
	rng      *rand.Rand
	t        float64
	done     bool
}

// NewStream builds a streaming continuous-time generator over the rate
// matrix. A zero-total matrix is valid and yields the empty contact
// process; negative, NaN or infinite rates are rejected.
func NewStream(rm *trace.RateMatrix, duration float64, rng *rand.Rand) (*Stream, error) {
	if duration <= 0 {
		return nil, fmt.Errorf("contact: duration %g not positive", duration)
	}
	total, err := validRates(rm)
	if err != nil {
		return nil, err
	}
	s := &Stream{nodes: rm.Nodes, duration: duration, total: total, rng: rng}
	if total <= 0 {
		s.done = true // empty process: Next immediately reports exhaustion
		return s, nil
	}
	if s.alias, err = numeric.NewAlias(rm.Rates()); err != nil {
		return nil, err
	}
	return s, nil
}

// NewHomogeneousStream streams the homogeneous setting (every pair at
// rate mu), the streaming counterpart of GenerateHomogeneous.
func NewHomogeneousStream(nodes int, mu, duration float64, rng *rand.Rand) (*Stream, error) {
	return NewStream(trace.UniformRates(nodes, mu), duration, rng)
}

// Nodes implements trace.Source.
func (s *Stream) Nodes() int { return s.nodes }

// Duration implements trace.Source.
func (s *Stream) Duration() float64 { return s.duration }

// Next implements trace.Source: one exponential step of the superposed
// process plus one alias draw for the pair. Zero allocations.
func (s *Stream) Next() (trace.Contact, bool) {
	if s.done {
		return trace.Contact{}, false
	}
	s.t += s.rng.ExpFloat64() / s.total
	if s.t > s.duration {
		s.done = true
		return trace.Contact{}, false
	}
	a, b := trace.PairFromIndex(s.nodes, s.alias.Sample(s.rng))
	return trace.Contact{T: s.t, A: a, B: b}, true
}

// NextBatch implements trace.BulkSource: the same exponential steps and
// alias draws as Next, in the same order, written straight into the
// caller's buffer. One call amortizes the per-contact interface dispatch
// and the receiver's field loads over the whole batch.
func (s *Stream) NextBatch(buf []trace.Contact) int {
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
		a, b := trace.PairFromIndex(s.nodes, s.alias.Sample(s.rng))
		buf[n] = trace.Contact{T: t, A: a, B: b}
		n++
	}
	s.t = t
	return n
}

// DiscreteStream draws the discrete-time model lazily: slots of length
// delta, each positive-probability pair meeting independently per slot.
// It consumes randomness in exactly GenerateDiscrete's order (one
// uniform per positive-probability pair per slot, in pair-index order),
// so for the same RNG seed the streamed contacts are bit-identical to
// the materialized trace — only never held in memory at once.
type DiscreteStream struct {
	nodes    int
	duration float64
	delta    float64
	// Positive-probability pairs, compressed: probs[i] applies to dense
	// pair index idxs[i].
	idxs  []int32
	probs []float64
	rng   *rand.Rand
	slot  int // current slot number (1-based; 0 = not started)
	slots int
	cur   int // next compressed pair to examine within the slot
	done  bool
}

// NewDiscreteStream builds a streaming discrete-time generator. As with
// NewStream, an all-zero matrix yields the empty process and invalid
// rates are rejected.
func NewDiscreteStream(rm *trace.RateMatrix, duration, delta float64, rng *rand.Rand) (*DiscreteStream, error) {
	if duration <= 0 || delta <= 0 {
		return nil, fmt.Errorf("contact: invalid duration %g / delta %g", duration, delta)
	}
	if _, err := validRates(rm); err != nil {
		return nil, err
	}
	s := &DiscreteStream{nodes: rm.Nodes, duration: duration, delta: delta, rng: rng, slots: int(duration / delta)}
	for i, r := range rm.Rates() {
		p := r * delta
		if p > 1 {
			p = 1
		}
		if p > 0 {
			s.idxs = append(s.idxs, int32(i))
			s.probs = append(s.probs, p)
		}
	}
	if len(s.idxs) == 0 || s.slots == 0 {
		s.done = true
	} else {
		s.slot = 1
	}
	return s, nil
}

// Nodes implements trace.Source.
func (s *DiscreteStream) Nodes() int { return s.nodes }

// Duration implements trace.Source.
func (s *DiscreteStream) Duration() float64 { return s.duration }

// Next implements trace.Source.
func (s *DiscreteStream) Next() (trace.Contact, bool) {
	if s.done {
		return trace.Contact{}, false
	}
	for {
		t := float64(s.slot) * s.delta
		if t > s.duration {
			s.done = true
			return trace.Contact{}, false
		}
		for s.cur < len(s.idxs) {
			i := s.cur
			s.cur++
			if s.rng.Float64() < s.probs[i] {
				a, b := trace.PairFromIndex(s.nodes, int(s.idxs[i]))
				return trace.Contact{T: t, A: a, B: b}, true
			}
		}
		s.cur = 0
		s.slot++
		if s.slot > s.slots {
			s.done = true
			return trace.Contact{}, false
		}
	}
}

// NextBatch implements trace.BulkSource by repeated concrete Next calls:
// the uniform draws happen in exactly GenerateDiscrete's order, and the
// only cost removed is the per-contact interface dispatch — which is the
// point of the bulk seam.
func (s *DiscreteStream) NextBatch(buf []trace.Contact) int {
	n := 0
	for n < len(buf) {
		c, ok := s.Next()
		if !ok {
			break
		}
		buf[n] = c
		n++
	}
	return n
}

package rates

import (
	"fmt"
	"math/rand/v2"

	"impatience/internal/numeric"
	"impatience/internal/trace"
)

// Source streams the model's contact process with two-level alias
// sampling: the superposed Poisson clock ticks at TotalRate, the block
// pair of each event comes from one draw of the top table (over the
// positive-rate block pairs), and the endpoints come from the member
// tables of the two communities. Same-community events redraw the pair
// until the endpoints differ; the rejection is what makes the
// within-block distribution exactly weight-bilinear, and it
// terminates with probability one because zero-aggregate blocks (fewer
// than two positive-weight members) are never in the top table. State is
// O(N + C²) and each contact is O(1) expected work.
//
// Source implements trace.Source and trace.Reopenable. It is the serial
// reference sampler; ShardedSource generates the same process as
// independent block-group sub-streams for parallel generation.
type Source struct {
	m        *Model
	duration float64
	seed     uint64
	rng      *rand.Rand
	top      *numeric.Alias
	member   []*numeric.Alias
	t        float64
	done     bool
}

// NewSource builds the streaming sampler. The contact sequence is a pure
// function of (model, duration, seed).
func NewSource(m *Model, duration float64, seed uint64) (*Source, error) {
	if duration <= 0 {
		return nil, fmt.Errorf("rates: duration %g not positive", duration)
	}
	top, err := numeric.NewAlias(m.pairW)
	if err != nil {
		return nil, fmt.Errorf("rates: block-pair table: %w", err)
	}
	member, err := m.memberAliases()
	if err != nil {
		return nil, err
	}
	return &Source{
		m:        m,
		duration: duration,
		seed:     seed,
		rng:      rand.New(rand.NewPCG(seed, seed^0x9e3779b97f4a7c15)),
		top:      top,
		member:   member,
	}, nil
}

// Model returns the rate model the source samples from.
func (s *Source) Model() *Model { return s.m }

// Nodes implements trace.Source.
func (s *Source) Nodes() int { return s.m.nodes }

// Duration implements trace.Source.
func (s *Source) Duration() float64 { return s.duration }

// Next implements trace.Source: one exponential clock step, one top
// draw, two member draws (plus rejections within a community). Zero
// allocations.
func (s *Source) Next() (trace.Contact, bool) {
	if s.done {
		return trace.Contact{}, false
	}
	s.t += s.rng.ExpFloat64() / s.m.total
	if s.t > s.duration {
		s.done = true
		return trace.Contact{}, false
	}
	cd := s.m.pairC[s.top.Sample(s.rng)]
	a, b := samplePair(s.m, s.member, int(cd[0]), int(cd[1]), s.rng)
	return trace.Contact{T: s.t, A: a, B: b}, true
}

// Reopen implements trace.Reopenable: the fresh source re-derives its
// RNG from the recorded seed and shares the alias tables (they are
// immutable after construction), so reopening is O(1) however large the
// model.
func (s *Source) Reopen() (trace.Source, error) {
	return &Source{
		m:        s.m,
		duration: s.duration,
		seed:     s.seed,
		rng:      rand.New(rand.NewPCG(s.seed, s.seed^0x9e3779b97f4a7c15)),
		top:      s.top,
		member:   s.member,
	}, nil
}

// samplePair draws the endpoints of one contact in block pair (c, d),
// returned with A < B per the digest-stable ordering convention.
func samplePair(m *Model, member []*numeric.Alias, c, d int, rng *rand.Rand) (int, int) {
	var a, b int
	if c == d {
		// Reject and redraw the WHOLE pair on a == b: redrawing only the
		// second endpoint would distribute pairs as q_a·q_b/(1−q_a),
		// which is weight-bilinear only for uniform weights. Redrawing
		// both gives P{a,b} = 2·q_a·q_b / (1 − Σ q_i²) ∝ w_a·w_b — the
		// exact within-block distribution the aggregate (CW²−CSq)/2
		// assumes (pinned to 1e-12 by the property test).
		for {
			a = m.Member(c, member[c].Sample(rng))
			b = m.Member(c, member[c].Sample(rng))
			if a != b {
				break
			}
		}
	} else {
		a = m.Member(c, member[c].Sample(rng))
		b = m.Member(d, member[d].Sample(rng))
	}
	if a > b {
		a, b = b, a
	}
	return a, b
}

package rates

import (
	"fmt"
	"math/rand/v2"

	"impatience/internal/numeric"
	"impatience/internal/parallel"
	"impatience/internal/trace"
)

// DefaultGroups is the number of independent block-group sub-streams a
// ShardedSource decomposes into. The group count is part of the model's
// canonical contact sequence, so it must stay fixed across runs that
// compare digests; 32 groups keep the merge heap shallow (5 comparisons
// per contact).
const DefaultGroups = 32

// groupSource streams the sub-process of the block pairs assigned to one
// group (block pair k belongs to group k mod groups): a Poisson clock at
// the group's aggregate rate, the block pair from one draw of the
// group's top table, and the endpoints from samplePair, with an RNG
// derived from the parent seed by the group's fixed SplitMix64
// sub-stream. Distinct groups are independent by construction, so their
// time-ordered merge is the superposed contact process.
type groupSource struct {
	m        *Model
	member   []*numeric.Alias
	duration float64
	total    float64 // this group's aggregate rate
	top      *numeric.Alias
	idx      []int32 // indices into m.pairC
	rng      *rand.Rand
	t        float64
	done     bool
}

func (g *groupSource) Next() (trace.Contact, bool) {
	if g.done {
		return trace.Contact{}, false
	}
	g.t += g.rng.ExpFloat64() / g.total
	if g.t > g.duration {
		g.done = true
		return trace.Contact{}, false
	}
	cd := g.m.pairC[g.idx[g.top.Sample(g.rng)]]
	a, b := samplePair(g.m, g.member, int(cd[0]), int(cd[1]), g.rng)
	return trace.Contact{T: g.t, A: a, B: b}, true
}

// contactLess is the canonical merge order: time, then endpoints
// lexicographically. A contact is exactly its key, so two contacts that
// compare equal are interchangeable.
func contactLess(x, y trace.Contact) bool {
	if x.T != y.T {
		return x.T < y.T
	}
	if x.A != y.A {
		return x.A < y.A
	}
	return x.B < y.B
}

// merged is a k-way merge of the individually ordered group streams,
// ordered by contactLess. Each Next is one heap pop plus one refill
// (O(log k)).
type merged struct {
	srcs  []*groupSource
	heads []trace.Contact // binary min-heap, parallel to srcs
}

// newMerged primes the heap with each source's first contact; exhausted
// sources drop out immediately.
func newMerged(srcs []*groupSource) *merged {
	mg := &merged{}
	for _, s := range srcs {
		if c, ok := s.Next(); ok {
			mg.srcs = append(mg.srcs, s)
			mg.heads = append(mg.heads, c)
		}
	}
	for i := len(mg.heads)/2 - 1; i >= 0; i-- {
		mg.siftDown(i)
	}
	return mg
}

func (mg *merged) Next() (trace.Contact, bool) {
	if len(mg.heads) == 0 {
		return trace.Contact{}, false
	}
	c := mg.heads[0]
	if nc, ok := mg.srcs[0].Next(); ok {
		mg.heads[0] = nc
	} else {
		last := len(mg.heads) - 1
		mg.heads[0], mg.srcs[0] = mg.heads[last], mg.srcs[last]
		mg.heads, mg.srcs = mg.heads[:last], mg.srcs[:last]
	}
	if len(mg.heads) > 0 {
		mg.siftDown(0)
	}
	return c, true
}

func (mg *merged) siftDown(i int) {
	n := len(mg.heads)
	for {
		l, r := 2*i+1, 2*i+2
		min := i
		if l < n && contactLess(mg.heads[l], mg.heads[min]) {
			min = l
		}
		if r < n && contactLess(mg.heads[r], mg.heads[min]) {
			min = r
		}
		if min == i {
			return
		}
		mg.heads[i], mg.heads[min] = mg.heads[min], mg.heads[i]
		mg.srcs[i], mg.srcs[min] = mg.srcs[min], mg.srcs[i]
		i = min
	}
}

// ShardedSource streams a structured model's contact process with
// two-level alias sampling, as a merge of `groups` independent
// block-group sub-streams (see groupSource), each with its own
// SplitMix64-derived RNG. Setup is O(N + C²) and each contact is O(1)
// expected work plus an O(log groups) heap step. It implements
// trace.Source, trace.BulkSource and trace.Reopenable.
type ShardedSource struct {
	m        *Model
	duration float64
	seed     uint64
	groups   int
	member   []*numeric.Alias
	mg       *merged
}

// NewSharded builds the group-decomposed sampler. groups ≤ 0 selects
// DefaultGroups; the effective count is capped at the number of
// positive-rate block pairs (a group cannot own less than one block
// pair). The contact sequence is a pure function of (model, duration,
// seed, groups) — vary groups and the sequence changes, so hold it fixed
// across runs that must compare digests.
func NewSharded(m *Model, duration float64, seed uint64, groups int) (*ShardedSource, error) {
	if duration <= 0 {
		return nil, fmt.Errorf("rates: duration %g not positive", duration)
	}
	if groups <= 0 {
		groups = DefaultGroups
	}
	if groups > len(m.pairC) {
		groups = len(m.pairC)
	}
	member, err := m.memberAliases()
	if err != nil {
		return nil, err
	}
	s := &ShardedSource{m: m, duration: duration, seed: seed, groups: groups, member: member}
	srcs := make([]*groupSource, groups)
	for g := range srcs {
		if srcs[g], err = s.group(g); err != nil {
			return nil, err
		}
	}
	s.mg = newMerged(srcs)
	return s, nil
}

// Nodes implements trace.Source.
func (s *ShardedSource) Nodes() int { return s.m.nodes }

// Duration implements trace.Source.
func (s *ShardedSource) Duration() float64 { return s.duration }

// group builds group g's sub-stream from scratch (alias over its block
// pairs, RNG from the fixed per-group sub-seed).
func (s *ShardedSource) group(g int) (*groupSource, error) {
	gs := &groupSource{m: s.m, member: s.member, duration: s.duration}
	for k := g; k < len(s.m.pairC); k += s.groups {
		gs.idx = append(gs.idx, int32(k))
		gs.total += s.m.pairW[k]
	}
	w := make([]float64, len(gs.idx))
	for i, k := range gs.idx {
		w[i] = s.m.pairW[k]
	}
	top, err := numeric.NewAlias(w)
	if err != nil {
		return nil, fmt.Errorf("rates: group %d table: %w", g, err)
	}
	gs.top = top
	sub := parallel.TrialSeed(s.seed, g)
	gs.rng = rand.New(rand.NewPCG(sub, sub^0x9e3779b97f4a7c15))
	return gs, nil
}

// Next implements trace.Source: the next contact of the merge. Zero
// allocations.
func (s *ShardedSource) Next() (trace.Contact, bool) { return s.mg.Next() }

// NextBatch implements trace.BulkSource by repeated concrete Next calls:
// the heap pops happen in the identical order, so NextBatch(buf)
// followed by Next() resumes mid-stream seamlessly — the bulk seam only
// removes the per-contact interface dispatch between the executor and
// the merge.
func (s *ShardedSource) NextBatch(buf []trace.Contact) int {
	n := 0
	for n < len(buf) {
		c, ok := s.mg.Next()
		if !ok {
			break
		}
		buf[n] = c
		n++
	}
	return n
}

// Reopen implements trace.Reopenable.
func (s *ShardedSource) Reopen() (trace.Source, error) {
	return NewSharded(s.m, s.duration, s.seed, s.groups)
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
		// assumes (pinned to 1e-12 by the property test). It terminates
		// with probability one because zero-aggregate blocks (fewer than
		// two positive-weight members) never enter a top table.
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

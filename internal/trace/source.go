package trace

import (
	"fmt"
	"math"
)

// Source streams a contact trace in time order without requiring it to be
// materialized: Next returns the next contact until the source is
// exhausted. It is the simulator's input seam — a materialized Trace, a
// lazily drawn synthetic contact process, and a trace file on disk all
// satisfy it, so experiments scale past the point where the full
// ~N²·µ·T contact list fits in memory.
//
// Contract: Nodes and Duration are fixed for the life of the source;
// contacts come with non-decreasing T in [0, Duration], endpoints in
// [0, Nodes) with A ≠ B. Sources that can fail mid-stream (I/O, parse
// errors) additionally implement ErrSource; consumers check Err after
// Next returns false. A Source is single-use: once drained it stays
// drained.
type Source interface {
	Nodes() int
	Duration() float64
	Next() (Contact, bool)
}

// ErrSource is implemented by sources whose stream can fail underway
// (file-backed sources). Err returns nil after a clean end of stream.
type ErrSource interface {
	Source
	Err() error
}

// BulkSource is a Source that can fill a caller-provided buffer with the
// next run of contacts in one call: NextBatch writes up to len(buf)
// contacts into buf and returns how many it wrote; 0 means the source is
// exhausted (matching Next returning false). The contacts — values and
// order — are exactly what repeated Next calls would have produced: a
// bulk fill is buffering, never reordering, so RNG draw order and the
// resulting digests are byte-identical on both paths. The seam exists for
// the simulator's batched contact kernel, which amortizes the
// per-contact interface dispatch (and the callee's per-call state loads)
// over a few thousand contacts at a time.
//
// Implementations must tolerate an empty buf (return 0 without drawing)
// and must support interleaving NextBatch with Next on the same source.
type BulkSource interface {
	Source
	NextBatch(buf []Contact) int
}

// FillBatch fills buf from src, using the bulk seam when src implements
// BulkSource and falling back to repeated Next calls otherwise. Both
// paths yield identical contact sequences; the return value is the number
// of contacts written, 0 at end of stream.
func FillBatch(src Source, buf []Contact) int {
	if bs, ok := src.(BulkSource); ok {
		return bs.NextBatch(buf)
	}
	n := 0
	for n < len(buf) {
		c, ok := src.Next()
		if !ok {
			break
		}
		buf[n] = c
		n++
	}
	return n
}

// Reopenable is a Source that can hand out a fresh, rewound copy of
// itself: Reopen returns a new Source that streams the identical contact
// sequence from the start, regardless of how far the receiver has been
// drained. The batch harness relies on it to stream one trial's contacts
// twice — once to accumulate the empirical rate matrix the static
// allocations need, once to drive the lockstep multi-scheme simulation —
// without ever materializing the O(N²·µ·T) contact list. Synthetic
// sources reopen by re-deriving their RNG from the recorded seed; the
// slice adapter reopens by re-pointing at the shared trace.
type Reopenable interface {
	Source
	Reopen() (Source, error)
}

// Partitionable is a Source whose contact process decomposes into
// independent, individually ordered sub-processes: Partition(max)
// returns up to max sources whose time-ordered merge (ties broken
// lexicographically by (T, A, B), under which equal contacts are
// interchangeable) reproduces the receiver's contact sequence exactly.
// The sharded batch executor (sim.RunBatchSharded) uses it to generate
// the shared contact stream on several cores at once; the structured
// rate models (internal/rates) implement it by splitting their
// community-pair blocks into fixed per-block RNG sub-streams, so the
// merged sequence is the same for every partition width — including 1.
// Partition reports false when the source cannot split (for example
// because it has already been partially drained); callers must then fall
// back to draining the receiver serially.
type Partitionable interface {
	Source
	Partition(max int) ([]Source, bool)
}

// SliceSource adapts a materialized Trace to the Source interface — it is
// how a materialized trace reaches the simulator — yielding the contact
// slice in order.
type SliceSource struct {
	tr *Trace
	i  int
}

// Source returns a fresh streaming view over the trace.
func (tr *Trace) Source() *SliceSource { return &SliceSource{tr: tr} }

// Nodes implements Source.
func (s *SliceSource) Nodes() int { return s.tr.Nodes }

// Duration implements Source.
func (s *SliceSource) Duration() float64 { return s.tr.Duration }

// Next implements Source.
func (s *SliceSource) Next() (Contact, bool) {
	if s.i >= len(s.tr.Contacts) {
		return Contact{}, false
	}
	c := s.tr.Contacts[s.i]
	s.i++
	return c, true
}

// NextBatch implements BulkSource: one bulk copy out of the materialized
// slice instead of a per-contact cursor walk.
func (s *SliceSource) NextBatch(buf []Contact) int {
	n := copy(buf, s.tr.Contacts[s.i:])
	s.i += n
	return n
}

// Reopen implements Reopenable: the fresh view shares the underlying
// trace, so reopening costs one small allocation however large the
// contact list is.
func (s *SliceSource) Reopen() (Source, error) { return &SliceSource{tr: s.tr}, nil }

// EmpiricalRatesFrom is EmpiricalRates over a streamed trace: it drains
// the source, applying the same per-contact accumulation in the same
// order, so for a source streaming a materialized trace's contacts the
// returned matrix is bit-identical to EmpiricalRates of that trace.
// Contacts are contract-checked as they are consumed (a stream cannot be
// validated up front) and a mid-stream source error is propagated.
func EmpiricalRatesFrom(src Source) (*RateMatrix, error) {
	nodes, duration := src.Nodes(), src.Duration()
	rm := NewRateMatrix(nodes)
	if duration <= 0 {
		return rm, nil
	}
	prevT := 0.0
	for {
		c, ok := src.Next()
		if !ok {
			break
		}
		if err := CheckStreamContact(c, prevT, nodes, duration); err != nil {
			return nil, err
		}
		prevT = c.T
		rm.rates[PairIndex(nodes, c.A, c.B)] += 1 / duration
	}
	if es, ok := src.(ErrSource); ok {
		if err := es.Err(); err != nil {
			return nil, err
		}
	}
	return rm, nil
}

// Collect drains a source into a materialized, validated Trace. It is the
// inverse of Trace.Source, meant for tests and for feeding streamed
// contacts to consumers that need random access (empirical statistics).
// Collecting reintroduces the O(#contacts) memory the streaming pipeline
// avoids — do not use it on production-scale sources.
func Collect(src Source) (*Trace, error) {
	tr := &Trace{Nodes: src.Nodes(), Duration: src.Duration()}
	for {
		c, ok := src.Next()
		if !ok {
			break
		}
		tr.Contacts = append(tr.Contacts, c)
	}
	if es, ok := src.(ErrSource); ok {
		if err := es.Err(); err != nil {
			return nil, err
		}
	}
	if err := tr.Validate(); err != nil {
		return nil, err
	}
	return tr, nil
}

// pairRowStart returns the dense index of pair (a, a+1): the first entry
// of row a in the PairIndex layout.
func pairRowStart(nodes, a int) int { return a * (2*nodes - a - 1) / 2 }

// PairFromIndex inverts PairIndex in O(1): it recovers the unordered pair
// (a, b), a < b, from its dense index. The streaming generators use it to
// avoid materializing the idx → (a, b) lookup tables, which at production
// scale cost O(N²) memory on their own (200 MB at N = 5000).
//
// The float estimate of the row comes from the stable (subtraction-free
// under the radical) branch of the quadratic formula, but at million-node
// scale the radicand m²−8·idx is a difference of ~4N² magnitudes: past
// N ≈ 5·10⁷ the operands leave float64's exact-integer range, the
// cancellation can wander by whole rows — or go negative, turning the
// estimate into int(NaN), which Go clamps to the most negative int. The
// estimate is therefore clamped into the valid row range and corrected
// with exact integer comparisons that walk any remaining error off, so
// the result is exact for every index an int-indexed rate matrix can
// hold (boundary-regressed at N ∈ {10⁵, 10⁶, 2·10⁶} for the first and
// last index of every row).
func PairFromIndex(nodes, idx int) (int, int) {
	// Row a is the largest a with rowStart(a) ≤ idx.
	m := float64(2*nodes - 1)
	rad := m*m - 8*float64(idx)
	if rad < 0 {
		rad = 0 // float cancellation only; the exact radicand is ≥ 9
	}
	a := int((m - math.Sqrt(rad)) / 2)
	// Clamp the estimate into the valid row range before the exact
	// correction: int(NaN) and large-N rounding can land arbitrarily far
	// outside [0, nodes-2].
	if a < 0 {
		a = 0
	}
	if a > nodes-2 {
		a = nodes - 2
	}
	// Exact integer correction (pure int arithmetic, loops as many steps
	// as the float error requires — at most one for exactly representable
	// radicands).
	for a > 0 && pairRowStart(nodes, a) > idx {
		a--
	}
	for a < nodes-2 && pairRowStart(nodes, a+1) <= idx {
		a++
	}
	b := idx - pairRowStart(nodes, a) + a + 1
	return a, b
}

// CheckStreamContact is the per-contact counterpart of Trace.Validate
// for streamed contacts, shared by the file-backed source and the
// simulator's executors (a stream cannot be validated up front).
func CheckStreamContact(c Contact, prevT float64, nodes int, duration float64) error {
	if c.T < prevT {
		return fmt.Errorf("%w: contact at t=%g after t=%g (stream out of order)", ErrInvalid, c.T, prevT)
	}
	if c.T < 0 || c.T > duration {
		return fmt.Errorf("%w: contact at t=%g outside [0,%g]", ErrInvalid, c.T, duration)
	}
	if c.A < 0 || c.A >= nodes || c.B < 0 || c.B >= nodes || c.A == c.B {
		return fmt.Errorf("%w: contact has bad endpoints (%d,%d)", ErrInvalid, c.A, c.B)
	}
	return nil
}

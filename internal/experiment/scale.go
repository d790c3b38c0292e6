package experiment

import (
	"math/rand/v2"
	"runtime"

	"impatience/internal/contact"

	"impatience/internal/sim"
	"impatience/internal/trace"
	"impatience/internal/utility"
)

// contactBytes is the in-memory cost of one materialized trace.Contact
// (T float64 + two int endpoints): the per-contact floor a materialized
// run pays just to hold the contact list, before any append-doubling
// slack.
const contactBytes = 24

// SourceGen produces the streaming contact source for one trial — the
// lazy counterpart of TraceGen. Implementations must be deterministic in
// the seed.
type SourceGen func(seed uint64) (trace.Source, error)

// HomogeneousSource streams memoryless homogeneous contacts: same model
// as HomogeneousSources, fused with the simulator and never reopened.
// The streaming generator has its own RNG stream (see internal/contact),
// so trials are seed-deterministic but deliberately not contact-identical
// to the materialized generator.
func (sc Scenario) HomogeneousSource() SourceGen {
	return func(seed uint64) (trace.Source, error) {
		rng := rand.New(rand.NewPCG(seed, seed^0xabcdef))
		return contact.NewHomogeneousStream(sc.Nodes, sc.Mu, sc.Duration, rng)
	}
}

// ScaleReport summarizes one fused streaming run at production scale:
// how many contacts flowed through the pipeline, the sampled peak heap
// while it ran, and the floor a materialized contact list alone would
// have cost. PeakHeapBytes < MaterializedBytes is the memory headline
// of the streaming pipeline (EXPERIMENTS.md, "memory footprint").
type ScaleReport struct {
	Nodes    int     `json:"nodes"`
	Duration float64 `json:"duration"`
	Contacts int     `json:"contacts"`
	// PeakHeapBytes is the maximum live heap observed while contacts
	// streamed (sampled every 64k contacts), i.e. the steady-state
	// footprint of the fused run.
	PeakHeapBytes uint64 `json:"peak_heap_bytes"`
	// MaterializedBytes is len(contacts)·sizeof(Contact): what the same
	// run would need just to hold the trace before simulating.
	MaterializedBytes uint64  `json:"materialized_bytes"`
	Meetings          int     `json:"meetings"`
	Fulfillments      int     `json:"fulfillments"`
	AvgUtilityRate    float64 `json:"avg_utility_rate"`
}

// meteredSource wraps a Source, counting contacts and sampling the live
// heap as they flow. Sampling runs every sampleEvery contacts so the
// ReadMemStats stop-the-world cost stays invisible next to the
// simulation work between samples.
type meteredSource struct {
	src      trace.Source
	every    int
	produced int
	peak     uint64
}

const sampleEvery = 1 << 16

func newMeteredSource(src trace.Source) *meteredSource {
	m := &meteredSource{src: src, every: sampleEvery}
	// Collect the source's construction garbage (the rate matrix and the
	// alias builder's temporaries are dead once the source exists) so the
	// baseline sample — and the GC pacing of the in-run samples — reflect
	// the live footprint of the fused run, not build-time churn.
	runtime.GC()
	m.sample()
	return m
}

func (m *meteredSource) sample() {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	if ms.HeapAlloc > m.peak {
		m.peak = ms.HeapAlloc
	}
}

// sampleHeap reads the current live heap once — the footprint stamp for
// runs with no contact stream to hang per-contact samples on (the hybrid
// scale path).
func sampleHeap() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// Nodes implements trace.Source.
func (m *meteredSource) Nodes() int { return m.src.Nodes() }

// Duration implements trace.Source.
func (m *meteredSource) Duration() float64 { return m.src.Duration() }

// Err implements trace.ErrSource by forwarding to the wrapped source.
func (m *meteredSource) Err() error {
	if es, ok := m.src.(trace.ErrSource); ok {
		return es.Err()
	}
	return nil
}

// NextBatch implements trace.BulkSource, so the metering keeps the
// wrapped source's bulk path: it fills buf through trace.FillBatch and
// samples the heap once whenever the batch carries produced across a
// multiple of every.
func (m *meteredSource) NextBatch(buf []trace.Contact) int {
	n := trace.FillBatch(m.src, buf)
	before := m.produced
	m.produced += n
	if m.produced/m.every != before/m.every {
		m.sample()
	}
	return n
}

// Next implements trace.Source.
func (m *meteredSource) Next() (trace.Contact, bool) {
	c, ok := m.src.Next()
	if ok {
		m.produced++
		if m.produced%m.every == 0 {
			m.sample()
		}
	}
	return c, ok
}

// StreamingScale runs one fused generate+simulate trial under the tuned
// QCR policy and meters it. This is the scale demonstration behind
// TestStreamingScaleSmoke: at N = 5000 and production durations the
// contact list alone (~N²·µ·T·24 bytes) dwarfs the streaming pipeline's
// O(N²) rate state, so runs that are infeasible materialized complete
// streaming with a flat heap.
func (sc Scenario) StreamingScale(u utility.Function, trial uint64) (*ScaleReport, error) {
	src, err := sc.HomogeneousSource()(sc.Seed + trial)
	if err != nil {
		return nil, err
	}
	cfg, err := sc.schemeConfig(SchemeQCR, u, nil, sc.Mu, trial, false, nil)
	if err != nil {
		return nil, err
	}
	m := newMeteredSource(src)
	cfg.Contacts = m
	res, err := sim.Run(cfg)
	if err != nil {
		return nil, err
	}
	m.sample()
	return &ScaleReport{
		Nodes:             sc.Nodes,
		Duration:          sc.Duration,
		Contacts:          m.produced,
		PeakHeapBytes:     m.peak,
		MaterializedBytes: uint64(m.produced) * contactBytes,
		Meetings:          res.Meetings,
		Fulfillments:      res.Fulfillments,
		AvgUtilityRate:    res.AvgUtilityRate,
	}, nil
}

// ScaleScenario is the N = 5000 streaming demonstration configuration:
// ~15M contacts, whose materialized trace (≈360 MB for the slice alone,
// more during append growth) would dominate a small machine, while the
// fused pipeline holds only the O(N²) alias state. Under the race
// detector the demo shrinks (raceScaleDown) to stay cheap in
// instrumented CI runs.
func ScaleScenario() Scenario {
	sc := Default()
	sc.Nodes = 5000
	sc.Mu = 1e-4
	sc.Duration = 12000
	sc.Trials = 1
	if raceScaleDown {
		sc.Nodes = 800
		sc.Mu = 1e-4
		sc.Duration = 2000
	}
	return sc
}

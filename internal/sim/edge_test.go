package sim

import (
	"math"
	"testing"

	"impatience/internal/alloc"
	"impatience/internal/core"
	"impatience/internal/demand"
	"impatience/internal/trace"
	"impatience/internal/utility"
)

// recordingPolicy captures the policy callbacks for inspection.
type recordingPolicy struct {
	fulfills []fulfillEvent
	meetings int
}

type fulfillEvent struct {
	node, peer, item, queries int
	age, t                    float64
}

func (r *recordingPolicy) Name() string    { return "recording" }
func (r *recordingPolicy) Init(core.Cache) {}
func (r *recordingPolicy) OnFulfill(_ core.Cache, node, peer, item, queries int, age, now float64) {
	r.fulfills = append(r.fulfills, fulfillEvent{node, peer, item, queries, age, now})
}
func (r *recordingPolicy) OnMeeting(_ core.Cache, a, b int, now float64) { r.meetings++ }
func (r *recordingPolicy) OnCrash(int) int                               { return 0 }
func (r *recordingPolicy) Counters() core.Counters                       { return core.Counters{} }

// TestQueryCounterSemantics pins down the counter definition: it counts
// every meeting since the request was created, including the fulfilling
// one.
func TestQueryCounterSemantics(t *testing.T) {
	// Node 0 requests item 0. It then meets node 1 (no copy) twice and
	// node 2 (has the copy) once: counter must be 3.
	tr := &trace.Trace{
		Nodes:    3,
		Duration: 100,
		Contacts: []trace.Contact{
			{T: 10, A: 0, B: 1},
			{T: 20, A: 0, B: 1},
			{T: 30, A: 0, B: 2},
		},
	}
	rec := &recordingPolicy{}
	pop := demand.Popularity{Rates: []float64{1000, 0}} // request arrives ~immediately
	profile := demand.Profile{P: [][]float64{{1, 0, 0}, {1, 0, 0}}}
	cfg := Config{
		Rho:        1,
		Utility:    utility.Step{Tau: 50},
		Pop:        pop,
		Profile:    profile,
		Contacts:   tr.Source(),
		Policy:     rec,
		Initial:    alloc.Counts{1, 0}, // single copy of item 0...
		NoSticky:   true,
		Seed:       1,
		WarmupFrac: -1,
	}
	// Place the only copy on node 2 by hand.
	p := alloc.NewPlacement(2, 3, 1)
	p.Set(0, 2, true)
	cfg.Initial = nil
	cfg.InitialPlacement = p
	res, err := Run(cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Fulfillments == 0 {
		t.Fatal("request not fulfilled")
	}
	// The first request arrives before t=10 with overwhelming probability
	// (rate 1000/min); it is fulfilled at t=30 with counter 3.
	first := rec.fulfills[0]
	if first.item != 0 || first.node != 0 || first.peer != 2 {
		t.Fatalf("unexpected fulfill event %+v", first)
	}
	if first.queries != 3 {
		t.Errorf("query counter %d, want 3 (two misses + the hit)", first.queries)
	}
	if first.t != 30 {
		t.Errorf("fulfilled at %g, want 30", first.t)
	}
}

// TestGainUsesRequestAge verifies h is evaluated at the request age, not
// at absolute time.
func TestGainUsesRequestAge(t *testing.T) {
	tr := &trace.Trace{
		Nodes:    2,
		Duration: 2000,
		Contacts: []trace.Contact{{T: 1500, A: 0, B: 1}},
	}
	pop := demand.Popularity{Rates: []float64{0.01}}
	profile := demand.Profile{P: [][]float64{{1, 0}}}
	cfg := Config{
		Rho: 1, Utility: utility.Power{Alpha: 0} /* h(t) = -t */, Pop: pop,
		Profile: profile, Contacts: tr.Source(), Policy: core.Static{},
		NoSticky: true, Seed: 3, WarmupFrac: -1,
	}
	p := alloc.NewPlacement(1, 2, 1)
	p.Set(0, 1, true)
	cfg.InitialPlacement = p
	res, err := Run(cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Fulfillments == 0 {
		t.Skip("no request arrived before the single contact")
	}
	// Every fulfilled request is at most 1500 minutes old; the recorded
	// gain per fulfillment must be in (-1500, 0].
	per := res.TotalGain / float64(res.Fulfillments)
	if per > 0 || per < -1500 {
		t.Errorf("mean gain per fulfillment %g outside (-1500, 0]", per)
	}
}

// TestWriteFailsWhenAllSlotsSticky: a node whose cache is fully pinned
// cannot receive replicas.
func TestWriteFailsWhenAllSlotsSticky(t *testing.T) {
	// 2 nodes, ρ=1, 2 items: sticky item 0 → node 0, sticky item 1 →
	// node 1. Every slot is sticky, so QCR can never write anything.
	tr := &trace.Trace{
		Nodes:    2,
		Duration: 500,
		Contacts: []trace.Contact{{T: 1, A: 0, B: 1}, {T: 2, A: 0, B: 1}},
	}
	q := &core.QCR{Reaction: core.PathReplication(5), MandateRouting: true, Seed: 1}
	cfg := Config{
		Rho: 1, Utility: utility.Step{Tau: 100}, Pop: demand.Uniform(2, 5),
		Contacts: tr.Source(), Policy: q, Seed: 2, WarmupFrac: -1,
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.ReplicasMade != 0 {
		t.Errorf("made %d replicas with fully pinned caches", res.ReplicasMade)
	}
	if res.FinalCounts[0] != 1 || res.FinalCounts[1] != 1 {
		t.Errorf("final counts %v, want [1 1]", res.FinalCounts)
	}
}

// TestStickyPlacementExceedingCapacity: more items than sticky capacity
// must be rejected up front.
func TestStickyPlacementExceedingCapacity(t *testing.T) {
	tr := &trace.Trace{Nodes: 2, Duration: 10}
	cfg := Config{
		Rho: 1, Utility: utility.Step{Tau: 1}, Pop: demand.Uniform(3, 1),
		Contacts: tr.Source(), Policy: core.Static{}, Seed: 1,
	}
	if _, err := Run(cfg); err == nil {
		t.Error("3 sticky items on 2 single-slot nodes accepted")
	}
}

// TestInitialPlacementValidation covers the placement/sticky interaction.
func TestInitialPlacementValidation(t *testing.T) {
	tr := &trace.Trace{Nodes: 2, Duration: 10}
	p := alloc.NewPlacement(1, 2, 1)
	p.Set(0, 0, true)
	cfg := Config{
		Rho: 1, Utility: utility.Step{Tau: 1}, Pop: demand.Uniform(1, 1),
		Contacts: tr.Source(), Policy: core.Static{}, Seed: 1,
		InitialPlacement: p, // NoSticky not set → must fail
	}
	if _, err := Run(cfg); err == nil {
		t.Error("InitialPlacement without NoSticky accepted")
	}
	cfg.NoSticky = true
	if _, err := Run(cfg); err != nil {
		t.Errorf("valid placement rejected: %v", err)
	}
	// Shape mismatch.
	bad := alloc.NewPlacement(2, 2, 1)
	cfg.InitialPlacement = bad
	cfg.Pop = demand.Uniform(1, 1)
	if _, err := Run(cfg); err == nil {
		t.Error("placement with wrong item count accepted")
	}
}

// TestMultipleOutstandingRequestsSameItem: both fulfill at one meeting
// with their own ages and counters.
func TestMultipleOutstandingRequestsSameItem(t *testing.T) {
	tr := &trace.Trace{
		Nodes:    2,
		Duration: 4000,
		Contacts: []trace.Contact{{T: 3900, A: 0, B: 1}},
	}
	rec := &recordingPolicy{}
	pop := demand.Popularity{Rates: []float64{0.01}} // ~39 requests before the contact
	profile := demand.Profile{P: [][]float64{{1, 0}}}
	p := alloc.NewPlacement(1, 2, 1)
	p.Set(0, 1, true)
	cfg := Config{
		Rho: 1, Utility: utility.Step{Tau: 10000}, Pop: pop, Profile: profile,
		Contacts: tr.Source(), Policy: rec, NoSticky: true, InitialPlacement: p,
		Seed: 9, WarmupFrac: -1,
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Fulfillments < 2 {
		t.Skipf("only %d requests arrived", res.Fulfillments)
	}
	if len(rec.fulfills) != res.Fulfillments {
		t.Errorf("policy saw %d fulfills, result says %d", len(rec.fulfills), res.Fulfillments)
	}
	for _, f := range rec.fulfills {
		if f.queries != 1 {
			t.Errorf("queries=%d, want 1 (single meeting)", f.queries)
		}
		if f.t != 3900 {
			t.Errorf("fulfill at %g, want 3900", f.t)
		}
	}
	// TotalGain = number of fulfillments (step gain 1 each).
	if math.Abs(res.TotalGain-float64(res.Fulfillments)) > 1e-9 {
		t.Errorf("gain %g for %d step fulfillments", res.TotalGain, res.Fulfillments)
	}
}

// TestWarmupExcludesEarlyGains: gains before the warmup boundary are in
// the bins but not the measured totals.
func TestWarmupExcludesEarlyGains(t *testing.T) {
	tr := &trace.Trace{
		Nodes:    2,
		Duration: 1000,
		Contacts: []trace.Contact{{T: 100, A: 0, B: 1}, {T: 900, A: 0, B: 1}},
	}
	pop := demand.Popularity{Rates: []float64{0.05}}
	profile := demand.Profile{P: [][]float64{{1, 0}}}
	p := alloc.NewPlacement(1, 2, 1)
	p.Set(0, 1, true)
	mk := func(warmup float64) *Result {
		res, err := Run(Config{
			Rho: 1, Utility: utility.Step{Tau: 1e6}, Pop: pop, Profile: profile,
			Contacts: tr.Source(), Policy: core.Static{}, NoSticky: true, InitialPlacement: p,
			Seed: 4, WarmupFrac: warmup,
		})
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		return res
	}
	all := mk(-1)
	half := mk(0.5)
	if half.TotalGain >= all.TotalGain {
		t.Errorf("warmup did not exclude early gains: %g vs %g", half.TotalGain, all.TotalGain)
	}
	if half.MeasureStart != 500 {
		t.Errorf("measure start %g", half.MeasureStart)
	}
}

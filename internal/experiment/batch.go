package experiment

import (
	"fmt"

	"impatience/internal/contact"
	"impatience/internal/sim"
	"impatience/internal/trace"
	"impatience/internal/utility"
)

// Sourced adapts a materializing trace generator to the streaming seam:
// the trace is generated once per trial and handed out as a (reopenable)
// slice-backed source, so batch conversion costs no extra generation and
// stays bit-identical to iterating the slice directly. Use it for
// generators with no streaming twin (synthetic conference/vehicular
// traces); homogeneous contacts have the truly stream-native
// Scenario.HomogeneousSources.
func (g TraceGen) Sourced() SourceGen {
	return func(seed uint64) (trace.Source, error) {
		tr, err := g(seed)
		if err != nil {
			return nil, err
		}
		return tr.Source(), nil
	}
}

// HomogeneousSources generates memoryless homogeneous contacts (§6.2),
// lazily in O(N²) memory and reopenable for multi-pass trials (rates,
// then the batch sim): the replay stream draws the same contacts as
// contact.GenerateHomogeneous with rand.NewPCG(seed, seed^0xabcdef).
func (sc Scenario) HomogeneousSources() SourceGen {
	return func(seed uint64) (trace.Source, error) {
		return contact.NewHomogeneousReplayStream(sc.Nodes, sc.Mu, sc.Duration, seed, seed^0xabcdef)
	}
}

// asReopenable upgrades a source to a reopenable one: pass-through when
// the source already supports it, otherwise the stream is collected into
// a materialized trace once and reopened as slice views. The fallback
// reintroduces O(#contacts) memory, so production-scale generators should
// hand out reopenable sources directly.
func asReopenable(src trace.Source) (trace.Reopenable, error) {
	if ro, ok := src.(trace.Reopenable); ok {
		return ro, nil
	}
	tr, err := trace.Collect(src)
	if err != nil {
		return nil, err
	}
	return tr.Source(), nil
}

// batchConfigs builds the per-scheme simulation configs for one trial,
// minus the contact input the batch executor supplies.
func (sc Scenario) batchConfigs(schemes []string, u utility.Function, rates *trace.RateMatrix, mu float64, trial uint64, series bool, plan *FaultPlan) ([]sim.Config, error) {
	cfgs := make([]sim.Config, len(schemes))
	for k, scheme := range schemes {
		cfg, err := sc.schemeConfig(scheme, u, rates, mu, trial, series, plan)
		if err != nil {
			return nil, fmt.Errorf("experiment: %s: %w", scheme, err)
		}
		cfgs[k] = cfg
	}
	return cfgs, nil
}

// runBatchOn steps every scheme in lockstep over the given contact pass.
// rates must be the empirical rate matrix of the same contact sequence
// (the static allocations are built from it) and mu the ψ plug-in rate.
// sc.Shards selects the sharded executor (bit-identical; see Scenario).
func (sc Scenario) runBatchOn(schemes []string, u utility.Function, rates *trace.RateMatrix, mu float64, trial uint64, series bool, plan *FaultPlan, contacts trace.Source) ([]*sim.Result, error) {
	cfgs, err := sc.batchConfigs(schemes, u, rates, mu, trial, series, plan)
	if err != nil {
		return nil, err
	}
	return sim.RunBatchSharded(cfgs, contacts, sc.Shards)
}

// RunSchemesBatch runs every scheme of one trial over a single shared
// contact stream: pass one accumulates the empirical rate matrix the
// static allocations need, pass two (a reopened view of the same
// sequence) drives the lockstep multi-scheme simulation. mu ≤ 0 selects
// the empirical mean rate (heterogeneous traces); a positive mu is used
// as the ψ plug-in rate directly (the homogeneous figures pass sc.Mu).
// Per-scheme results are bit-identical to a single sim.Run of the same
// config over the same contacts; the golden digests pin them.
func (sc Scenario) RunSchemesBatch(schemes []string, u utility.Function, src trace.Source, mu float64, trial uint64, series bool, plan *FaultPlan) ([]*sim.Result, error) {
	if src.Nodes() != sc.Nodes {
		return nil, fmt.Errorf("experiment: trace has %d nodes, scenario %d", src.Nodes(), sc.Nodes)
	}
	ro, err := asReopenable(src)
	if err != nil {
		return nil, err
	}
	second, err := ro.Reopen()
	if err != nil {
		return nil, err
	}
	rates, err := trace.EmpiricalRatesFrom(ro)
	if err != nil {
		return nil, err
	}
	if mu <= 0 {
		mu = rates.Mean()
		if mu <= 0 {
			return nil, fmt.Errorf("experiment: empty trace")
		}
	}
	return sc.runBatchOn(schemes, u, rates, mu, trial, series, plan, second)
}

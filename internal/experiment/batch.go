package experiment

import (
	"fmt"

	"impatience/internal/contact"
	"impatience/internal/parallel"
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

// avgUtilities passes a batch's per-config AvgUtilityRate through, in config
// order.
func avgUtilities(results []*sim.Result, err error) ([]float64, error) {
	if err != nil {
		return nil, err
	}
	out := make([]float64, len(results))
	for k, res := range results {
		out[k] = res.AvgUtilityRate
	}
	return out, nil
}

// runTrials is the package's one trial loop: it plays fn for trials
// 0..sc.Trials-1 on the parallel trial engine (sc.Workers workers, seeds
// from parallel.TrialSeed) and returns the results in trial order, so
// every reduction over them is worker-count invariant. A scenario
// without trials is an error, not an empty figure.
func runTrials[T any](sc Scenario, fn func(trial int, seed uint64) (T, error)) ([]T, error) {
	if sc.Trials < 1 {
		return nil, fmt.Errorf("experiment: Trials = %d, need at least 1", sc.Trials)
	}
	return parallel.RunTrials(sc.Trials, sc.Workers, sc.Seed, fn)
}

// trialContacts is one trial's contact sequence after its rates pass: a
// reopenable view for the simulation passes and the empirical rate
// matrix the static allocations are built from.
type trialContacts struct {
	trace.Reopenable
	rates *trace.RateMatrix
}

// openTrial is the prologue every multi-pass trial shares: check the
// node count, upgrade the source to a reopenable view and measure the
// empirical rates in one pass. A trace without contacts is rejected —
// its mean rate, the ψ plug-in, would be zero.
func (sc Scenario) openTrial(src trace.Source) (trialContacts, error) {
	if src.Nodes() != sc.Nodes {
		return trialContacts{}, fmt.Errorf("experiment: trace has %d nodes, scenario %d", src.Nodes(), sc.Nodes)
	}
	ro, err := asReopenable(src)
	if err != nil {
		return trialContacts{}, err
	}
	rates, err := trace.EmpiricalRatesFrom(ro)
	if err != nil {
		return trialContacts{}, err
	}
	if rates.Mean() <= 0 {
		return trialContacts{}, fmt.Errorf("experiment: empty trace")
	}
	return trialContacts{ro, rates}, nil
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
	tc, err := sc.openTrial(src)
	if err != nil {
		return nil, err
	}
	if mu <= 0 {
		mu = tc.rates.Mean()
	}
	pass, err := tc.Reopen()
	if err != nil {
		return nil, err
	}
	return sc.runBatchOn(schemes, u, tc.rates, mu, trial, series, plan, pass)
}

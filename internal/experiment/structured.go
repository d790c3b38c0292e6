package experiment

import (
	"fmt"

	"impatience/internal/parallel"
	"impatience/internal/rates"
	"impatience/internal/sim"
	"impatience/internal/trace"
	"impatience/internal/utility"
)

// This file is the structured-rates scale pipeline: trials driven by the
// hierarchical rate models of internal/rates instead of a dense rate
// matrix. Two things distinguish it from the homogeneous/empirical
// paths: the per-trial O(N²) empirical-rate pass is skipped entirely
// (the ψ plug-in rate comes from the model's MeanPairRate, and OPT —
// the only scheme that consumes a rate matrix — is rejected), and the
// contact source is the model's two-level sampler (rates.ShardedSource)
// rather than a dense alias table. Peak state is O(N + C²) end to end,
// which is what admits the N = 10⁶ rung of the scale ladder.

// StructuredSources adapts a structured rate model to the SourceGen
// seam: each trial streams the model's contact process through the
// structured sampler with the trial's seed and DefaultGroups groups.
func (sc Scenario) StructuredSources(m *rates.Model) SourceGen {
	return func(seed uint64) (trace.Source, error) {
		return rates.NewSharded(m, sc.Duration, seed, 0)
	}
}

// checkStructuredSchemes rejects scheme sets the rate-matrix-free path
// cannot serve.
func checkStructuredSchemes(schemes []string) error {
	if len(schemes) == 0 {
		return fmt.Errorf("experiment: empty scheme set")
	}
	for _, s := range schemes {
		if s == SchemeOPT {
			return fmt.Errorf("experiment: %s needs the O(N²) rate matrix; the structured scale path cannot build it", SchemeOPT)
		}
	}
	return nil
}

// hybridOptions resolves the scenario's hybrid knobs for one trial: the
// probe contact streams take the trial seed and the fluid reaction clock
// takes the same burst-normalized scale the QCR policy runs on.
func (sc Scenario) hybridOptions(u utility.Function, mu float64, seed uint64) sim.HybridOptions {
	hy := sc.Hybrid
	hy.ContactSeed = seed
	hy.ReactionScale = sc.reactionScale(u, mu)
	return hy
}

// runHybridTrial plays every scheme of one trial on the hybrid engine —
// the mean-field counterpart of runBatchOn. Each scheme runs the exact
// config the full path would (schemeConfig, seeds included) with the
// contact input left to the engine.
func (sc Scenario) runHybridTrial(schemes []string, u utility.Function, m *rates.Model, mu float64, trial uint64, seed uint64, series bool) ([]*sim.Result, error) {
	hy := sc.hybridOptions(u, mu, seed)
	out := make([]*sim.Result, len(schemes))
	for k, scheme := range schemes {
		cfg, err := sc.schemeConfig(scheme, u, nil, mu, trial, series, nil)
		if err != nil {
			return nil, fmt.Errorf("experiment: %s: %w", scheme, err)
		}
		res, err := sim.RunHybrid(cfg, m, sc.Duration, hy)
		if err != nil {
			return nil, fmt.Errorf("experiment: %s: %w", scheme, err)
		}
		out[k] = res
	}
	return out, nil
}

// RunStructuredComparison is RunComparison over a structured rate model:
// same trial engine, same aggregation, but no empirical-rate pass — the
// plug-in rate is the model's mean pair rate and each trial's stream is
// consumed exactly once. OPT is rejected (it needs the dense matrix), so
// losses are not normalized against it; Utility summaries carry the
// comparison. With sc.Hybrid.Enabled each trial runs on the mean-field
// engine instead of the event executor.
func (sc Scenario) RunStructuredComparison(u utility.Function, m *rates.Model, schemes []string) (*Comparison, error) {
	if err := checkStructuredSchemes(schemes); err != nil {
		return nil, err
	}
	if m.Nodes() != sc.Nodes {
		return nil, fmt.Errorf("experiment: model has %d nodes, scenario %d", m.Nodes(), sc.Nodes)
	}
	mu := m.MeanPairRate()
	gen := sc.StructuredSources(m)
	rows, err := runTrials(sc, func(trial int, seed uint64) ([]float64, error) {
		var results []*sim.Result
		var err error
		if sc.Hybrid.Enabled {
			results, err = sc.runHybridTrial(schemes, u, m, mu, uint64(trial), seed, false)
		} else {
			var src trace.Source
			src, err = gen(seed)
			if err != nil {
				return nil, err
			}
			results, err = sc.runBatchOn(schemes, u, nil, mu, uint64(trial), false, nil, src)
		}
		if err != nil {
			return nil, err
		}
		row := make([]float64, len(schemes))
		for k := range schemes {
			row[k] = results[k].AvgUtilityRate
		}
		return row, nil
	})
	if err != nil {
		return nil, err
	}
	return aggregateComparison(schemes, rows), nil
}

// StructuredReport is one metered structured-rates run: the scale
// ladder's per-cell measurement. DigestFamily folds every scheme's
// result digest into one value — equal families across shard counts is
// the bit-identical-execution check the ladder records.
type StructuredReport struct {
	Nodes        int     `json:"nodes"`
	Communities  int     `json:"communities"`
	Items        int     `json:"items"`
	Rho          int     `json:"rho"`
	Shards       int     `json:"shards"`
	Duration     float64 `json:"duration"`
	MeanPairRate float64 `json:"mean_pair_rate"`
	Contacts     int     `json:"contacts"`
	// PeakHeapBytes is the sampled live heap during the run — the O(N +
	// C²) claim made measurable (contrast contacts·24 or the dense
	// sampler's 12·N²/2).
	PeakHeapBytes uint64    `json:"peak_heap_bytes"`
	DigestFamily  uint64    `json:"digest_family"`
	Schemes       []string  `json:"schemes"`
	AvgUtility    []float64 `json:"avg_utility"`
	Fulfillments  int       `json:"fulfillments"`
	// Hybrid-engine provenance (zero values on the full event path):
	// FluidFraction is the mean fluid node fraction across schemes and
	// Demotions the total mid-run fidelity demotions — both stamped into
	// the benchmark rows so a fast number can never hide a fallback.
	Hybrid        bool    `json:"hybrid,omitempty"`
	FluidFraction float64 `json:"fluid_fraction,omitempty"`
	Demotions     int     `json:"demotions,omitempty"`
}

// StructuredScale runs one trial of the given schemes over the model on
// the sharded executor (sc.Shards) and meters it: the contact stream is
// counted and heap-sampled through the metering wrapper, on the same
// serial producer path RunStructuredComparison takes.
func (sc Scenario) StructuredScale(u utility.Function, m *rates.Model, schemes []string, trial uint64) (*StructuredReport, error) {
	if err := checkStructuredSchemes(schemes); err != nil {
		return nil, err
	}
	if m.Nodes() != sc.Nodes {
		return nil, fmt.Errorf("experiment: model has %d nodes, scenario %d", m.Nodes(), sc.Nodes)
	}
	mu := m.MeanPairRate()
	seed := parallel.TrialSeed(sc.Seed, int(trial))
	rep := &StructuredReport{
		Nodes:        m.Nodes(),
		Communities:  m.Communities(),
		Items:        sc.Items,
		Rho:          sc.Rho,
		Shards:       sc.Shards,
		Duration:     sc.Duration,
		MeanPairRate: mu,
		Schemes:      append([]string(nil), schemes...),
	}
	var results []*sim.Result
	if sc.Hybrid.Enabled {
		// The hybrid path has no contact stream to meter: its event work
		// is the probe boundary, counted through each result's Meetings.
		// Heap is sampled once after the run (the fluid state is O(C·I),
		// so there is no mid-run growth worth chasing).
		var err error
		results, err = sc.runHybridTrial(schemes, u, m, mu, trial, seed, false)
		if err != nil {
			return nil, err
		}
		rep.Hybrid = true
		for _, r := range results {
			rep.Contacts += r.Meetings
			if t := r.Hybrid; t != nil {
				rep.FluidFraction += t.FluidFraction / float64(len(results))
				rep.Demotions += t.Demotions
			}
		}
		rep.PeakHeapBytes = sampleHeap()
	} else {
		src, err := sc.StructuredSources(m)(seed)
		if err != nil {
			return nil, err
		}
		metered := newMeteredSource(src)
		cfgs, err := sc.batchConfigs(schemes, u, nil, mu, trial, false, nil)
		if err != nil {
			return nil, err
		}
		results, err = sim.RunBatchSharded(cfgs, metered, sc.Shards)
		if err != nil {
			return nil, err
		}
		metered.sample()
		rep.Contacts = metered.produced
		rep.PeakHeapBytes = metered.peak
	}
	rep.AvgUtility = make([]float64, len(results))
	acc := uint64(0x9e3779b97f4a7c15)
	for k, r := range results {
		rep.AvgUtility[k] = r.AvgUtilityRate
		rep.Fulfillments += r.Fulfillments
		acc = parallel.SplitMix64(acc ^ r.Digest())
	}
	rep.DigestFamily = acc
	return rep, nil
}

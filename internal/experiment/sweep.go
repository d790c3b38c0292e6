package experiment

import (
	"fmt"
	"slices"

	"impatience/internal/plot"
	"impatience/internal/trace"
	"impatience/internal/utility"
)

// sweepPoint is what one point of a sweep runs within a trial. Points
// may differ in scenario (ρ, ω), utility and fault/adversary plan, never
// in the contacts: every point replays the trial's one contact sequence.
type sweepPoint struct {
	sc   Scenario
	u    utility.Function
	plan *FaultPlan
	// view, when set, wraps the reopened contact pass (a time change
	// that keeps the whole-horizon rates the allocations were built on).
	view func(trace.Source) (trace.Source, error)
}

// pointFunc builds point xi of a sweep for one trial.
type pointFunc func(xi int, trial uint64) (sweepPoint, error)

// sweep is the trial-major driver behind every parameter sweep and
// RunComparison: each trial generates its contacts and measures their
// rates once (openTrial), then runs one lockstep batch of the schemes
// per point over a reopened view, with the empirical mean rate as the ψ
// plug-in. It returns every trial's AvgUtilityRate indexed
// [trial][point][scheme]; trials come back in order, so the tables'
// reductions do not depend on the worker count. A non-empty xlabel names
// the failing point in errors.
func (sc Scenario) sweep(gen SourceGen, schemes []string, xs []float64, xlabel string, point pointFunc) ([][][]float64, error) {
	return runTrials(sc, func(trial int, seed uint64) ([][]float64, error) {
		src, err := gen(seed)
		if err != nil {
			return nil, err
		}
		tc, err := sc.openTrial(src)
		if err != nil {
			return nil, err
		}
		mu := tc.rates.Mean()
		rows := make([][]float64, len(xs))
		for xi := range xs {
			if rows[xi], err = tc.runPoint(schemes, mu, xi, uint64(trial), point); err != nil {
				if xlabel == "" {
					return nil, err
				}
				return nil, fmt.Errorf("experiment: at %s=%g: %w", xlabel, xs[xi], err)
			}
		}
		return rows, nil
	})
}

// runPoint plays one sweep point over a reopened pass of the trial's
// contacts and returns each scheme's AvgUtilityRate.
func (tc trialContacts) runPoint(schemes []string, mu float64, xi int, trial uint64, point pointFunc) ([]float64, error) {
	p, err := point(xi, trial)
	if err != nil {
		return nil, err
	}
	pass, err := tc.Reopen()
	if err != nil {
		return nil, err
	}
	if p.view != nil {
		if pass, err = p.view(pass); err != nil {
			return nil, err
		}
	}
	return avgUtilities(p.sc.runBatchOn(schemes, p.u, tc.rates, mu, trial, false, p.plan, pass))
}

// pointComparisons folds each point's trials, in trial order, into the
// Comparison that RunComparison reports for a single point.
func pointComparisons(schemes []string, outs [][][]float64, points int) []*Comparison {
	cmps := make([]*Comparison, points)
	for xi := range cmps {
		rows := make([][]float64, len(outs))
		for t, trial := range outs {
			rows[t] = trial[xi]
		}
		cmps[xi] = aggregateComparison(schemes, rows)
	}
	return cmps
}

// column reads one value per point off the points' comparisons.
func column(cmps []*Comparison, get func(*Comparison) float64) []float64 {
	col := make([]float64, len(cmps))
	for xi, c := range cmps {
		col[xi] = get(c)
	}
	return col
}

// lossTable is the loss-vs-OPT shape of Figures 4–6 and the x1
// ablations: per point, the trial mean of each scheme's normalized loss
// against the same trial's OPT, one column per scheme but OPT (whose
// loss is identically zero).
func lossTable(title, xlabel string, xs []float64, schemes []string, outs [][][]float64) (*plot.Table, error) {
	if !slices.Contains(schemes, SchemeOPT) {
		return nil, fmt.Errorf("experiment: %s: loss table needs %s in the scheme set", title, SchemeOPT)
	}
	cmps := pointComparisons(schemes, outs, len(xs))
	table := &plot.Table{Title: title, XLabel: xlabel, X: append([]float64(nil), xs...)}
	for _, s := range schemes {
		if s != SchemeOPT {
			table.AddColumn(s, column(cmps, func(c *Comparison) float64 { return c.Loss[s].Mean }))
		}
	}
	return table, nil
}

// utilityTable is the robustness families' shape: per point, the trial
// mean of each scheme's utility rate, then a 5%/95% band pair for every
// scheme of bands that is in the set.
func utilityTable(title, xlabel string, xs []float64, schemes, bands []string, outs [][][]float64) *plot.Table {
	cmps := pointComparisons(schemes, outs, len(xs))
	table := &plot.Table{Title: title, XLabel: xlabel, X: append([]float64(nil), xs...)}
	for _, s := range schemes {
		table.AddColumn(s, column(cmps, func(c *Comparison) float64 { return c.Utility[s].Mean }))
	}
	for _, s := range bands {
		if slices.Contains(schemes, s) {
			table.AddColumn(s+" p5", column(cmps, func(c *Comparison) float64 { return c.Utility[s].P5 }))
			table.AddColumn(s+" p95", column(cmps, func(c *Comparison) float64 { return c.Utility[s].P95 }))
		}
	}
	return table
}

package experiment

import (
	"fmt"

	"impatience/internal/alloc"
	"impatience/internal/parallel"
	"impatience/internal/plot"
	"impatience/internal/rates"
	"impatience/internal/stats"
	"impatience/internal/utility"
	"impatience/internal/welfare"
)

// HybridFigure3 regenerates the Figure-3 time series at structured-model
// scale on the hybrid engine: QCR's expected utility U(x(t)) converging
// to the homogeneous optimum, the observed per-bin utility, and the
// replica trajectories of the five most requested items — population
// sizes the full event path cannot reach interactively. The replica
// snapshots come from rounding the fluid state, so the trajectories are
// the mean-field x(t) itself rather than one sample path of it.
//
// Returned tables: expected utility; observed utility per bin; top-5
// replica counts; hybrid provenance (fluid fraction and demotions per
// trial, so a fallback can never hide inside a smooth-looking curve).
func HybridFigure3(sc Scenario, m *rates.Model) ([]*plot.Table, error) {
	if m.Nodes() != sc.Nodes {
		return nil, fmt.Errorf("experiment: model has %d nodes, scenario %d", m.Nodes(), sc.Nodes)
	}
	sc.Hybrid.Enabled = true
	f := utility.Power{Alpha: 0}
	pop := sc.Pop()
	mu := m.MeanPairRate()
	h := welfare.Homogeneous{
		Utility: f, Pop: pop, Mu: mu,
		Servers: sc.Nodes, Clients: sc.Nodes, PureP2P: true,
	}
	opt, err := h.GreedyOptimal(sc.Rho)
	if err != nil {
		return nil, err
	}
	uOpt := h.WelfareCounts(opt)
	schemes := []string{SchemeQCR, SchemeUNI}

	outs, err := parallel.RunTrials(sc.Trials, sc.Workers, sc.Seed, func(trial int, seed uint64) ([]*hybridSeries, error) {
		results, err := sc.runHybridTrial(schemes, f, m, mu, uint64(trial), seed, true)
		if err != nil {
			return nil, err
		}
		series := make([]*hybridSeries, len(results))
		for k, res := range results {
			ts := &hybridSeries{
				times: make([]float64, len(res.Bins)),
				exp:   make([]float64, len(res.Bins)),
				obs:   make([]float64, len(res.Bins)),
			}
			for r := range ts.tops {
				ts.tops[r] = make([]float64, len(res.Bins))
			}
			for i, b := range res.Bins {
				ts.times[i] = b.T0
				if b.Counts != nil {
					ts.exp[i] = h.WelfareCounts(b.Counts)
					for r := 0; r < 5 && r < len(b.Counts); r++ {
						ts.tops[r][i] = float64(b.Counts[r])
					}
				}
				ts.obs[i] = b.Gain / (b.T1 - b.T0)
			}
			if t := res.Hybrid; t != nil {
				ts.fluid = t.FluidFraction
				ts.demotions = t.Demotions
			}
			series[k] = ts
		}
		return series, nil
	})
	if err != nil {
		return nil, err
	}
	uUni := h.WelfareCounts(alloc.Uniform(sc.Items, sc.Nodes, sc.Rho))
	return hybridFigureTables(sc.Nodes, opt, uOpt, uUni, outs)
}

// hybridSeries is one scheme's binned output from one hybrid trial.
type hybridSeries struct {
	times, exp, obs []float64
	tops            [5][]float64
	fluid           float64
	demotions       int
}

// hybridFigureTables averages the per-trial series of HybridFigure3 (QCR
// first, UNI second in each trial) into its four tables. A trial whose
// bins do not line up with the first trial's is an error naming it.
func hybridFigureTables(nodes int, opt alloc.Counts, uOpt, uUni float64, outs [][]*hybridSeries) ([]*plot.Table, error) {
	var times []float64
	if len(outs) > 0 {
		times = outs[0][0].times
	}
	// The first error sticks; later columns are skipped.
	var err error
	add := func(tb *plot.Table, name string, y []float64) {
		if err == nil {
			err = tb.AddColumn(name, y)
		}
	}
	mean := func(k int, pick func(*hybridSeries) []float64) []float64 {
		if err != nil {
			return nil
		}
		trials := make([][]float64, len(outs))
		for i, trial := range outs {
			trials[i] = pick(trial[k])
		}
		s, merr := stats.MergeTrials(times, trials)
		if merr != nil {
			err = fmt.Errorf("experiment: hybrid figure: %w", merr)
			return nil
		}
		return s.Mean
	}
	table := func(title string) *plot.Table {
		return &plot.Table{
			Title:  fmt.Sprintf("Figure 3 at scale (N=%d, hybrid): %s", nodes, title),
			XLabel: "time (min)",
			X:      times,
		}
	}

	expT := table("expected utility U(x(t))")
	add(expT, "QCR", mean(0, func(ts *hybridSeries) []float64 { return ts.exp }))
	add(expT, "OPT", constant(len(times), uOpt))
	add(expT, "UNI", constant(len(times), uUni))

	obsT := table("observed utility")
	add(obsT, "QCR", mean(0, func(ts *hybridSeries) []float64 { return ts.obs }))
	add(obsT, "UNI", mean(1, func(ts *hybridSeries) []float64 { return ts.obs }))

	repT := table("replicas of top-5 items")
	for r := 0; r < 5; r++ {
		add(repT, fmt.Sprintf("msg %d (target %d)", r+1, opt[r]),
			mean(0, func(ts *hybridSeries) []float64 { return ts.tops[r] }))
	}

	provT := &plot.Table{Title: "Hybrid provenance per trial", XLabel: "trial"}
	provT.X = make([]float64, len(outs))
	fluid := make([]float64, len(outs))
	demo := make([]float64, len(outs))
	for i, trial := range outs {
		provT.X[i] = float64(i)
		// The QCR run is the demanding one; UNI shares its fluid split.
		fluid[i] = trial[0].fluid
		demo[i] = float64(trial[0].demotions + trial[1].demotions)
	}
	add(provT, "fluid_fraction", fluid)
	add(provT, "demotions", demo)
	if err != nil {
		return nil, err
	}
	return []*plot.Table{expT, obsT, repT, provT}, nil
}

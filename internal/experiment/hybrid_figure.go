package experiment

import (
	"fmt"

	"impatience/internal/alloc"
	"impatience/internal/plot"
	"impatience/internal/rates"
	"impatience/internal/sim"
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
	// Each trial writes only its own provenance row. (Trials < 1 is
	// rejected by timeSeries before any trial runs.)
	fluid := make([]float64, max(sc.Trials, 0))
	demotions := make([]float64, len(fluid))
	run := func(trial int, seed uint64) ([]*sim.Result, error) {
		results, err := sc.runHybridTrial([]string{SchemeQCR, SchemeUNI}, f, m, mu, uint64(trial), seed, true)
		if err != nil {
			return nil, err
		}
		// The QCR run is the demanding one; UNI shares its fluid split.
		if t := results[0].Hybrid; t != nil {
			fluid[trial] = t.FluidFraction
		}
		for _, res := range results {
			if t := res.Hybrid; t != nil {
				demotions[trial] += float64(t.Demotions)
			}
		}
		return results, nil
	}
	title := func(what string) string {
		return fmt.Sprintf("Figure 3 at scale (N=%d, hybrid): %s", sc.Nodes, what)
	}
	var reps []seriesCol
	for r := 0; r < 5; r++ {
		reps = append(reps, binCol(fmt.Sprintf("msg %d (target %d)", r+1, opt[r]), 0, replicas(r)))
	}
	tables, err := sc.timeSeries(run, []seriesTable{
		{title("expected utility U(x(t))"), []seriesCol{
			binCol("QCR", 0, expectedWelfare(h)),
			constCol("OPT", h.WelfareCounts(opt)),
			constCol("UNI", h.WelfareCounts(alloc.Uniform(sc.Items, sc.Nodes, sc.Rho))),
		}},
		{title("observed utility"), []seriesCol{
			binCol("QCR", 0, observedRate),
			binCol("UNI", 1, observedRate),
		}},
		{title("replicas of top-5 items"), reps},
	}, nil)
	if err != nil {
		return nil, err
	}
	prov := &plot.Table{Title: "Hybrid provenance per trial", XLabel: "trial"}
	for i := range fluid {
		prov.X = append(prov.X, float64(i))
	}
	if err := prov.AddColumn("fluid_fraction", fluid); err != nil {
		return nil, err
	}
	if err := prov.AddColumn("demotions", demotions); err != nil {
		return nil, err
	}
	return append(tables, prov), nil
}

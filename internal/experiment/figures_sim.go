package experiment

import (
	"fmt"

	"impatience/internal/alloc"
	"impatience/internal/plot"
	"impatience/internal/sim"
	"impatience/internal/synth"
	"impatience/internal/utility"
	"impatience/internal/welfare"
)

// Figure3 regenerates the mandate-routing comparison (Figure 3): under
// homogeneous contacts and the waiting-cost utility power(α=0), QCR with
// mandate routing stays near the optimal utility while QCR without it
// drifts away; the replica counts of the five most requested items
// fluctuate around their targets with routing and diverge without.
//
// Returned tables: expected utility U(x(t)); observed utility per bin;
// top-5 replica counts with routing; top-5 replica counts without;
// pending-mandate totals.
func Figure3(sc Scenario) ([]*plot.Table, error) {
	f := utility.Power{Alpha: 0}
	pop := sc.Pop()
	h := welfare.Homogeneous{
		Utility: f, Pop: pop, Mu: sc.Mu,
		Servers: sc.Nodes, Clients: sc.Nodes, PureP2P: true,
	}
	opt, err := h.GreedyOptimal(sc.Rho)
	if err != nil {
		return nil, err
	}
	gen := sc.HomogeneousSources()
	// Both variants run on one shared pass of each trial's contact
	// stream (sim.RunBatch).
	run := func(trial int, seed uint64) ([]*sim.Result, error) {
		src, err := gen(seed)
		if err != nil {
			return nil, err
		}
		return sc.RunSchemesBatch([]string{SchemeQCR, SchemeQCRWOM}, f, src, sc.Mu, uint64(trial), true, nil)
	}
	expected := expectedWelfare(h)
	var repQ, repW []seriesCol
	for r := 0; r < 5; r++ {
		name := fmt.Sprintf("msg %d (target %d)", r+1, opt[r])
		repQ = append(repQ, binCol(name, 0, replicas(r)))
		repW = append(repW, binCol(name, 1, replicas(r)))
	}
	return sc.timeSeries(run, []seriesTable{
		{"Figure 3a: expected utility U(x(t)) (power α=0)", []seriesCol{
			binCol("QCR", 0, expected),
			binCol("QCRWOM", 1, expected),
			constCol("OPT", h.WelfareCounts(opt)),
			constCol("UNI", h.WelfareCounts(alloc.Uniform(sc.Items, sc.Nodes, sc.Rho))),
			constCol("DOM", h.WelfareCounts(alloc.Dom(pop.Rates, sc.Nodes, sc.Rho))),
		}},
		{"Figure 3b: observed utility (power α=0)", []seriesCol{
			binCol("QCR", 0, observedRate),
			binCol("QCRWOM", 1, observedRate),
		}},
		{"Figure 3c: replicas of top-5 items (mandate routing)", repQ},
		{"Figure 3d: replicas of top-5 items (no mandate routing)", repW},
		{"Figure 3e: pending mandates", []seriesCol{
			binCol("QCR", 0, pendingMandates),
			binCol("QCRWOM", 1, pendingMandates),
		}},
	}, nil)
}

// Sweep builds a loss-vs-parameter table (one column per scheme but
// OPT) — the shape of Figures 4, 5b/5c and 6. It is trial-major: each
// trial's contacts are generated and their rates measured once, then
// every parameter's utility runs over reopened passes of them.
func (sc Scenario) Sweep(title, xlabel string, params []float64, mkUtility func(p float64) utility.Function, gen SourceGen, schemes []string) (*plot.Table, error) {
	outs, err := sc.sweep(gen, schemes, params, xlabel, func(xi int, _ uint64) (sweepPoint, error) {
		return sweepPoint{sc: sc, u: mkUtility(params[xi])}, nil
	})
	if err != nil {
		return nil, err
	}
	return lossTable(title, xlabel, params, schemes, outs)
}

// Figure4Power regenerates the left panel of Figure 4: normalized loss vs
// α for the power utility under homogeneous contacts.
func Figure4Power(sc Scenario, alphas []float64) (*plot.Table, error) {
	if alphas == nil {
		alphas = []float64{-2, -1.5, -1, -0.5, 0, 0.5, 0.9}
	}
	schemes := append([]string{SchemeQCR}, AllCompetitors...)
	return sc.Sweep("Figure 4 (left): loss vs α, power utility, homogeneous",
		"alpha", alphas,
		func(a float64) utility.Function { return utility.Power{Alpha: a} },
		sc.HomogeneousSources(), schemes)
}

// Figure4Step regenerates the right panel of Figure 4: normalized loss vs
// τ for the step utility under homogeneous contacts.
func Figure4Step(sc Scenario, taus []float64) (*plot.Table, error) {
	if taus == nil {
		taus = logspace(1, 1000, 7)
	}
	schemes := append([]string{SchemeQCR}, AllCompetitors...)
	return sc.Sweep("Figure 4 (right): loss vs τ, step utility, homogeneous",
		"tau", taus,
		func(tau float64) utility.Function { return utility.Step{Tau: tau} },
		sc.HomogeneousSources(), schemes)
}

// Figure5TimeSeries regenerates Figure 5a: hourly-averaged observed
// utility over the conference trace with step impatience (τ = 60 min,
// the "τ=1 hour" setting of the paper). All schemes run on the same
// traces; the diurnal cycle shows as utility collapsing at night.
func Figure5TimeSeries(sc Scenario, conf synth.ConferenceConfig, tau float64) (*plot.Table, error) {
	if tau <= 0 {
		tau = 60
	}
	f := utility.Step{Tau: tau}
	gen := ConferenceTraces(conf).Sourced()
	sc.Duration = float64(conf.Days) * 1440

	schemes := append([]string{SchemeQCR}, AllCompetitors...)
	// The trace is generated once per trial and every scheme runs on it
	// in lockstep.
	run := func(trial int, seed uint64) ([]*sim.Result, error) {
		src, err := gen(seed)
		if err != nil {
			return nil, err
		}
		return sc.RunSchemesBatch(schemes, f, src, 0, uint64(trial), true, nil)
	}
	cols := make([]seriesCol, len(schemes))
	for k, scheme := range schemes {
		cols[k] = binCol(scheme, k, observedRate)
	}
	return oneSeries(sc.timeSeries(run, []seriesTable{{
		title: fmt.Sprintf("Figure 5a: observed utility over time, conference trace (step τ=%g min)", tau),
		cols:  cols,
	}}, nil))
}

// Figure5Step regenerates Figure 5b (actual conference trace) or 5c
// (memoryless synthesized counterpart): loss vs τ for the step utility.
func Figure5Step(sc Scenario, conf synth.ConferenceConfig, taus []float64, memoryless bool) (*plot.Table, error) {
	if taus == nil {
		taus = logspace(10, 2000, 6)
	}
	gen := ConferenceTraces(conf)
	label := "actual"
	if memoryless {
		gen = MemorylessOf(gen)
		label = "synthesized memoryless"
	}
	sc.Duration = float64(conf.Days) * 1440
	schemes := append([]string{SchemeQCR}, AllCompetitors...)
	return sc.Sweep(
		fmt.Sprintf("Figure 5: loss vs τ, conference trace (%s)", label),
		"tau", taus,
		func(tau float64) utility.Function { return utility.Step{Tau: tau} },
		gen.Sourced(), schemes)
}

// Figure6 regenerates the three vehicular panels: loss vs α (power), vs τ
// (step) and vs ν (exponential) on the Cabspotting-like taxi trace.
func Figure6(sc Scenario, veh synth.VehicularConfig, panel string, params []float64) (*plot.Table, error) {
	gen := VehicularTraces(veh).Sourced()
	sc.Duration = veh.DurationMin
	schemes := append([]string{SchemeQCR}, AllCompetitors...)
	switch panel {
	case "power":
		if params == nil {
			params = []float64{-2, -1.5, -1, -0.5, 0, 0.5, 0.9}
		}
		return sc.Sweep("Figure 6a: loss vs α, power utility, vehicular trace",
			"alpha", params,
			func(a float64) utility.Function { return utility.Power{Alpha: a} }, gen, schemes)
	case "step":
		if params == nil {
			params = logspace(5, 1000, 6)
		}
		return sc.Sweep("Figure 6b: loss vs τ, step utility, vehicular trace",
			"tau", params,
			func(tau float64) utility.Function { return utility.Step{Tau: tau} }, gen, schemes)
	case "exp":
		if params == nil {
			params = logspace(1e-4, 10, 6)
		}
		return sc.Sweep("Figure 6c: loss vs ν, exponential utility, vehicular trace",
			"nu", params,
			func(nu float64) utility.Function { return utility.Exponential{Nu: nu} }, gen, schemes)
	default:
		return nil, fmt.Errorf("experiment: unknown Figure 6 panel %q (want power, step or exp)", panel)
	}
}

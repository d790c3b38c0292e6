package experiment

import (
	"fmt"
	"math"

	"impatience/internal/core"
	"impatience/internal/demand"
	"impatience/internal/meanfield"
	"impatience/internal/plot"
	"impatience/internal/sim"
	"impatience/internal/stats"
	"impatience/internal/utility"
	"impatience/internal/welfare"
)

// AblationCacheSize (X1) sweeps the per-node cache size ρ, the knob the
// paper defers to its technical report: loss of QCR and the fixed
// allocations vs OPT as caches grow.
func AblationCacheSize(sc Scenario, rhos []int, f utility.Function) (*plot.Table, error) {
	if rhos == nil {
		rhos = []int{2, 3, 5, 8, 12}
	}
	xs := make([]float64, len(rhos))
	for i, r := range rhos {
		xs[i] = float64(r)
	}
	return sc.ablation("Ablation X1a: loss vs cache size ρ", "rho", xs, f, func(s *Scenario, xi int) { s.Rho = rhos[xi] })
}

// AblationPopularity (X1) sweeps the Pareto exponent ω of the demand
// distribution.
func AblationPopularity(sc Scenario, omegas []float64, f utility.Function) (*plot.Table, error) {
	if omegas == nil {
		omegas = []float64{0.25, 0.5, 1, 1.5, 2}
	}
	return sc.ablation("Ablation X1b: loss vs popularity skew ω", "omega", omegas, f, func(s *Scenario, xi int) { s.Omega = omegas[xi] })
}

// ablation sweeps one scenario knob (set) over the homogeneous contacts,
// tabulating QCR's and the fixed allocations' loss vs OPT. The knobs it
// varies (ρ, ω) leave the contact process alone.
func (sc Scenario) ablation(title, xlabel string, xs []float64, f utility.Function, set func(s *Scenario, xi int)) (*plot.Table, error) {
	schemes := append([]string{SchemeQCR}, AllCompetitors...)
	outs, err := sc.sweep(sc.HomogeneousSources(), schemes, xs, xlabel, func(xi int, _ uint64) (sweepPoint, error) {
		s := sc
		set(&s, xi)
		return sweepPoint{sc: s, u: f}, nil
	})
	if err != nil {
		return nil, err
	}
	return lossTable(title, xlabel, xs, schemes, outs)
}

// AblationRewriting (X2) compares QCR with and without replica rewriting
// (Section 5.1's two implementations) against OPT.
func AblationRewriting(sc Scenario, f utility.Function) (*plot.Table, error) {
	outs, err := runTrials(sc, func(trial int, seed uint64) ([]float64, error) {
		var qcrs []core.Policy // [no rewriting, rewriting]
		for _, rewriting := range []bool{false, true} {
			q := sc.qcrPolicy(f, sc.Mu, true, sc.policySeed(uint64(trial)))
			q.Rewriting = rewriting
			qcrs = append(qcrs, q)
		}
		return sc.lossVsOPT(f, trial, seed, qcrs)
	})
	if err != nil {
		return nil, err
	}
	return trialTable("Ablation X2: rewriting vs no-rewriting (loss vs OPT, %)", []string{"no rewriting", "rewriting"}, outs), nil
}

// lossVsOPT plays hand-built QCR variants next to the trial's OPT in one
// lockstep pass over the trial's homogeneous contacts (sc.Mu as the ψ
// plug-in) and returns each variant's normalized loss against OPT.
func (sc Scenario) lossVsOPT(f utility.Function, trial int, seed uint64, variants []core.Policy) ([]float64, error) {
	src, err := sc.HomogeneousSources()(seed)
	if err != nil {
		return nil, err
	}
	tc, err := sc.openTrial(src)
	if err != nil {
		return nil, err
	}
	cfgOpt, err := sc.schemeConfig(SchemeOPT, f, tc.rates, sc.Mu, uint64(trial), false, nil)
	if err != nil {
		return nil, err
	}
	pass, err := tc.Reopen()
	if err != nil {
		return nil, err
	}
	cfgs := []sim.Config{cfgOpt}
	for _, pol := range variants {
		cfg := sc.trialConfig(f, uint64(trial))
		cfg.Policy = pol
		cfgs = append(cfgs, cfg)
	}
	results, err := sim.RunBatch(cfgs, pass)
	if err != nil {
		return nil, err
	}
	loss := make([]float64, len(variants))
	for k := range loss {
		loss[k] = stats.NormalizedLoss(results[k+1].AvgUtilityRate, results[0].AvgUtilityRate)
	}
	return loss, nil
}

// MeanFieldConvergence (X3) integrates the Eq. 7 fluid dynamics from a
// uniform start and reports welfare over time against the relaxed
// optimum, demonstrating Property 2 in the deterministic limit.
func MeanFieldConvergence(sc Scenario, f utility.Function, horizon float64, points int) (*plot.Table, error) {
	if horizon <= 0 {
		horizon = 20000
	}
	if points < 2 {
		points = 40
	}
	sys := meanfield.System{
		Utility: f, Pop: sc.Pop(), Mu: sc.Mu, Servers: sc.Nodes, Rho: sc.Rho,
	}
	h := welfare.Homogeneous{
		Utility: f, Pop: sys.Pop, Mu: sc.Mu, Servers: sc.Nodes, Clients: sc.Nodes,
	}
	opt, err := h.RelaxedOptimal(sc.Rho)
	if err != nil {
		return nil, err
	}
	uOpt := h.Welfare(opt)
	table := &plot.Table{Title: "Ablation X3: mean-field welfare convergence (Eq. 7)", XLabel: "time"}
	x := sys.UniformStart()
	var us, uo []float64
	step := horizon / float64(points)
	for k := 0; k <= points; k++ {
		table.X = append(table.X, float64(k)*step)
		us = append(us, h.Welfare(x))
		uo = append(uo, uOpt)
		if k < points {
			// Keep the integrator step well below the fastest dynamics
			// timescale (~1/(demand·ψ) per item).
			x, err = sys.Run(x, step, math.Min(step/50, 0.25))
			if err != nil {
				return nil, err
			}
		}
	}
	table.AddColumn("U(x(t)) fluid", us)
	table.AddColumn("U(x*) relaxed optimum", uo)
	return table, nil
}

// DynamicDemand (X4) flips the popularity ranking mid-run and tracks how
// the QCR allocation's welfare under the *new* demand recovers — the
// adaptivity claim of Section 7.
func DynamicDemand(sc Scenario, f utility.Function) (*plot.Table, error) {
	flipped := demand.Popularity{Rates: make([]float64, sc.Items)}
	for i, d := range sc.Pop().Rates {
		flipped.Rates[sc.Items-1-i] = d
	}
	hNew := welfare.Homogeneous{
		Utility: f, Pop: flipped, Mu: sc.Mu,
		Servers: sc.Nodes, Clients: sc.Nodes, PureP2P: true,
	}
	optNew, err := hNew.GreedyOptimal(sc.Rho)
	if err != nil {
		return nil, err
	}
	gen := sc.HomogeneousSources()
	switchT := sc.Duration / 3
	run := func(trial int, seed uint64) ([]*sim.Result, error) {
		src, err := gen(seed)
		if err != nil {
			return nil, err
		}
		cfg, err := sc.schemeConfig(SchemeQCR, f, nil, sc.Mu, uint64(trial), true, nil)
		if err != nil {
			return nil, err
		}
		cfg.Contacts = src
		cfg.DemandSwitch, cfg.DemandSwitchTime = &flipped, switchT
		res, err := sim.Run(cfg)
		return []*sim.Result{res}, err
	}
	return oneSeries(sc.timeSeries(run, []seriesTable{{
		title: fmt.Sprintf("Ablation X4: welfare under flipped demand (switch at t=%g)", switchT),
		cols: []seriesCol{
			binCol("QCR U(x(t)) under new demand", 0, expectedWelfare(hNew)),
			constCol("optimal for new demand", hNew.WelfareCounts(optNew)),
		},
	}}, nil))
}

// DiscreteVsContinuous (X5) quantifies the §3.4 claim that the
// discrete-time model approaches the continuous one as δ → 0, on the
// optimal allocation of a default system.
func DiscreteVsContinuous(sc Scenario, f utility.Function, deltas []float64) (*plot.Table, error) {
	if deltas == nil {
		deltas = []float64{4, 2, 1, 0.5, 0.25, 0.1}
	}
	h := welfare.Homogeneous{
		Utility: f, Pop: sc.Pop(), Mu: sc.Mu,
		Servers: sc.Nodes, Clients: sc.Nodes, PureP2P: true,
	}
	opt, err := h.GreedyOptimal(sc.Rho)
	if err != nil {
		return nil, err
	}
	uc := h.WelfareCounts(opt)
	table := &plot.Table{Title: "Ablation X5: discrete-time welfare vs slot length δ", XLabel: "delta"}
	table.X = append([]float64(nil), deltas...)
	var ud, ucs []float64
	for _, d := range deltas {
		ud = append(ud, h.WelfareDiscrete(opt, d))
		ucs = append(ucs, uc)
	}
	table.AddColumn("discrete U_δ(x*)", ud)
	table.AddColumn("continuous U(x*)", ucs)
	return table, nil
}

// ReactionComparison pits the tuned Property-2 reaction against the
// classical path-replication and constant reactions under the same
// utility — showing why tuning to impatience matters (the paper's core
// message distilled into one run).
func ReactionComparison(sc Scenario, f utility.Function) (*plot.Table, error) {
	outs, err := runTrials(sc, func(trial int, seed uint64) ([]float64, error) {
		t := uint64(trial)
		return sc.lossVsOPT(f, trial, seed, []core.Policy{
			sc.qcrPolicy(f, sc.Mu, true, sc.policySeed(t)),
			sc.plainQCR(core.PathReplication(sc.QCRScale), t),
			sc.plainQCR(core.ConstantReaction(sc.QCRScale), t),
		})
	})
	if err != nil {
		return nil, err
	}
	names := []string{"tuned (Property 2)", "path replication ψ(y)=y", "constant ψ(y)=1"}
	return trialTable("Reaction-function comparison (loss vs OPT, %)", names, outs), nil
}

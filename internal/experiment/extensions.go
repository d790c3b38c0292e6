package experiment

import (
	"fmt"
	"math"
	"math/rand/v2"

	"impatience/internal/adaptive"
	"impatience/internal/core"
	"impatience/internal/plot"
	"impatience/internal/sim"
	"impatience/internal/stats"
	"impatience/internal/utility"
	"impatience/internal/welfare"
)

// OverheadComparison (X6) tallies the communication cost of each scheme:
// metadata summaries, content transfers (fulfillments + replication) and
// mandate-routing traffic. The fixed allocations look free here, but they
// presuppose a perfect out-of-band control channel to install and
// maintain the allocation — exactly what opportunistic networks lack
// (Section 5's motivation).
func OverheadComparison(sc Scenario, f utility.Function) (*plot.Table, error) {
	gen := sc.HomogeneousSources()
	schemes := []string{SchemeQCR, SchemeOPT, SchemePROP}
	outs, err := runTrials(sc, func(trial int, seed uint64) ([][]float64, error) {
		src, err := gen(seed)
		if err != nil {
			return nil, err
		}
		results, err := sc.RunSchemesBatch(schemes, f, src, sc.Mu, uint64(trial), false, nil)
		if err != nil {
			return nil, err
		}
		rows := make([][]float64, len(results))
		for si, res := range results {
			o := res.Overhead
			rows[si] = []float64{float64(o.MetadataMsgs), float64(o.ContentTransfers), float64(o.MandateTransfers), float64(res.Fulfillments)}
		}
		return rows, nil
	})
	if err != nil {
		return nil, err
	}
	table := &plot.Table{
		Title:  "Extension X6: protocol overhead per scheme (mean per run)",
		XLabel: "scheme (0=QCR 1=OPT 2=PROP)",
	}
	for i := range schemes {
		table.X = append(table.X, float64(i))
	}
	for c, name := range []string{"metadata msgs", "content transfers", "mandate transfers", "fulfillments"} {
		y := make([]float64, len(schemes))
		for si := range schemes {
			vals := make([]float64, len(outs))
			for t, rows := range outs {
				vals[t] = rows[si][c]
			}
			y[si] = stats.Summarize(vals).Mean
		}
		if err := table.AddColumn(name, y); err != nil {
			return nil, err
		}
	}
	return table, nil
}

// MixedCatalog (X7) exercises per-item delay-utilities (Section 3.2): a
// catalog where even items are deadline content (step) and odd items are
// waiting-cost content (negative power). It compares per-item-tuned QCR
// against a mis-tuned QCR that assumes the whole catalog is deadline
// content, and against the mixed OPT.
func MixedCatalog(sc Scenario) (*plot.Table, error) {
	us := make([]utility.Function, sc.Items)
	for i := range us {
		if i%2 == 0 {
			us[i] = utility.Step{Tau: 10}
		} else {
			us[i] = utility.Power{Alpha: 0}
		}
	}
	hom := welfare.Homogeneous{
		Utilities: us, Pop: sc.Pop(), Mu: sc.Mu,
		Servers: sc.Nodes, Clients: sc.Nodes, PureP2P: true,
	}
	opt, err := hom.GreedyOptimal(sc.Rho)
	if err != nil {
		return nil, err
	}
	gen := sc.HomogeneousSources()
	outs, err := runTrials(sc, func(trial int, seed uint64) ([]float64, error) {
		src, err := gen(seed)
		if err != nil {
			return nil, err
		}
		base := sc.trialConfig(nil, uint64(trial))
		base.Utilities = us
		// Per-item tuned QCR.
		tuned := sc.plainQCR(nil, uint64(trial))
		tuned.PerItemReaction = core.TunedReactions(us, nil, sc.Mu, sc.Nodes, sc.QCRScale)
		cfgT := base
		cfgT.Policy = tuned
		// Mis-tuned QCR: believes everything is step content.
		cfgM := base
		cfgM.Policy = sc.plainQCR(core.TunedReaction(utility.Step{Tau: 10}, sc.Mu, sc.Nodes, sc.QCRScale), uint64(trial))
		// Mixed OPT.
		cfgO := base
		cfgO.Policy = core.Static{Label: "opt"}
		cfgO.Initial = opt
		cfgO.NoSticky = true
		// No static scheme needs empirical rates here, so the three
		// variants run on a single pass of the contact stream.
		return avgUtilities(sim.RunBatch([]sim.Config{cfgT, cfgM, cfgO}, src))
	})
	if err != nil {
		return nil, err
	}
	return trialTable("Extension X7: mixed catalog (step + waiting-cost items)",
		[]string{"QCR per-item tuned", "QCR mis-tuned (all step)", "OPT (mixed greedy)"}, outs), nil
}

// AdaptiveImpatience (X9) exercises the Section-7 open problem: QCR that
// learns the population's exponential decay rate ν from per-fulfillment
// consumption feedback instead of knowing it, compared with the
// oracle-tuned QCR and OPT. Output: per-trial utilities plus the final ν̂.
func AdaptiveImpatience(sc Scenario, nu float64) (*plot.Table, error) {
	truth := utility.Exponential{Nu: nu}
	gen := sc.HomogeneousSources()
	outs, err := runTrials(sc, func(trial int, seed uint64) ([]float64, error) {
		src, err := gen(seed)
		if err != nil {
			return nil, err
		}
		// OPT and the oracle QCR share one lockstep pass; the adaptive
		// policy runs on its own reopened pass of the same contacts (its
		// feedback closure is stateful, so it cannot join the batch
		// without changing RNG consumption order).
		tc, err := sc.openTrial(src)
		if err != nil {
			return nil, err
		}
		batchPass, err := tc.Reopen()
		if err != nil {
			return nil, err
		}
		adaptivePass, err := tc.Reopen()
		if err != nil {
			return nil, err
		}
		results, err := sc.runBatchOn([]string{SchemeOPT, SchemeQCR}, truth, tc.rates, sc.Mu, uint64(trial), false, nil, batchPass)
		if err != nil {
			return nil, err
		}
		resO, resQ := results[0], results[1]
		feedbackRNG := rand.New(rand.NewPCG(sc.Seed^0xfeedbac, uint64(trial)))
		pol := &adaptive.Policy{
			Feedback: func(item int, age float64) bool {
				return feedbackRNG.Float64() < truth.H(age)
			},
			Mu: sc.Mu, Servers: sc.Nodes, Scale: sc.QCRScale,
			Inner: sc.plainQCR(nil, uint64(trial)),
		}
		cfgA := sc.trialConfig(truth, uint64(trial))
		cfgA.Contacts, cfgA.Policy = adaptivePass, pol
		resA, err := sim.Run(cfgA)
		if err != nil {
			return nil, err
		}
		nuHat := math.NaN()
		if hat, ok := pol.LastEstimate(); ok {
			nuHat = hat
		}
		return []float64{resA.AvgUtilityRate, resQ.AvgUtilityRate, resO.AvgUtilityRate, nuHat}, nil
	})
	if err != nil {
		return nil, err
	}
	return trialTable(fmt.Sprintf("Extension X9: adaptive impatience estimation (true ν=%g)", nu),
		[]string{"QCR adaptive (learned ν)", "QCR oracle (known ν)", "OPT", "estimated ν"}, outs), nil
}

// DedicatedKiosks (X8) runs the dedicated-node case end to end with the
// negative-log utility — infeasible in pure P2P — and reports QCR's loss
// against the proportional optimum.
func DedicatedKiosks(sc Scenario, servers int) (*plot.Table, error) {
	if servers <= 0 || servers >= sc.Nodes {
		return nil, fmt.Errorf("experiment: %d servers out of %d nodes", servers, sc.Nodes)
	}
	u := utility.NegLog{}
	// Keep the catalog at half the kiosk capacity: with items == capacity
	// every feasible allocation collapses to one copy each and there is
	// nothing to optimize.
	if cap := servers * sc.Rho; sc.Items > cap/2 {
		sc.Items = cap / 2
	}
	hom := welfare.Homogeneous{
		Utility: u, Pop: sc.Pop(), Mu: sc.Mu,
		Servers: servers, Clients: sc.Nodes - servers,
	}
	opt, err := hom.GreedyOptimal(sc.Rho)
	if err != nil {
		return nil, err
	}
	gen := sc.HomogeneousSources()
	outs, err := runTrials(sc, func(trial int, seed uint64) ([]float64, error) {
		src, err := gen(seed)
		if err != nil {
			return nil, err
		}
		base := sc.trialConfig(u, uint64(trial))
		base.ServerCount = servers
		cfgQ := base
		cfgQ.Policy = sc.plainQCR(core.TunedReaction(u, sc.Mu, servers, sc.QCRScale*2), uint64(trial))
		cfgO := base
		cfgO.Policy = core.Static{Label: "opt"}
		cfgO.Initial = opt
		cfgO.NoSticky = true
		return avgUtilities(sim.RunBatch([]sim.Config{cfgQ, cfgO}, src))
	})
	if err != nil {
		return nil, err
	}
	return trialTable(fmt.Sprintf("Extension X8: dedicated kiosks (neglog, %d servers / %d clients)", servers, sc.Nodes-servers),
		[]string{"QCR", "OPT (proportional)"}, outs), nil
}

package main

import (
	"impatience/internal/experiment"
	"impatience/internal/plot"
	"impatience/internal/rates"
)

// hybridFigure builds the Figure-3-at-scale family (id "xh"): QCR's
// utility and replica trajectories on the hybrid mean-field engine over
// a community model at population sizes the full event path cannot
// regenerate interactively. Quick mode shrinks the population, not the
// physics — the per-pair rates keep the same per-node meeting budget.
func hybridFigure(sc experiment.Scenario, quick bool) ([]*plot.Table, error) {
	n, comms := 10_000, 8
	trials := 5
	if quick {
		n, comms = 2_000, 4
		trials = 2
	}
	m, err := rates.PaperCommunity(n, comms)
	if err != nil {
		return nil, err
	}
	sc.Nodes = n
	sc.Items = 32
	sc.Rho = 3
	sc.DemandRate = 0.04 * float64(n)
	sc.Duration = 2000
	if sc.Trials > trials {
		sc.Trials = trials
	}
	sc.Mu = m.MeanPairRate()
	return experiment.HybridFigure3(sc, m)
}

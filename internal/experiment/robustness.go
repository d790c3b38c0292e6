package experiment

import (
	"fmt"

	"impatience/internal/adversary"
	"impatience/internal/plot"
	"impatience/internal/synth"
	"impatience/internal/trace"
	"impatience/internal/utility"
)

// Robustness figure family: the paper derives QCR under honest nodes and
// stationary demand; these sweeps quantify what each violation costs and
// how much of it the hardened reaction (SchemeQCRH) wins back. The
// comparison oracle is the true-demand OPT — a static optimum computed
// from the real popularity, which adversaries cannot game because it has
// no reaction to feed.

// adversaryTable sweeps the adversarial workload build(x) over the
// homogeneous contacts and tabulates each scheme's mean utility rate,
// with 5%/95% bands for the QCR variants. Every scheme within a trial
// faces the identical adversary: role assignment depends only on the
// adversary config, which is shared and seeded per trial and point.
func (sc Scenario) adversaryTable(u utility.Function, xs []float64, build func(x float64) (adversary.Config, error), schemes []string, title, xlabel string) (*plot.Table, error) {
	outs, err := sc.sweep(sc.HomogeneousSources(), schemes, xs, xlabel, func(xi int, trial uint64) (sweepPoint, error) {
		ac, err := build(xs[xi])
		if err != nil {
			return sweepPoint{}, err
		}
		ac.Seed = sc.Seed*50021 + trial*127 + uint64(xi)
		return sweepPoint{sc: sc, u: u, plan: &FaultPlan{Adversary: &ac}}, nil
	})
	if err != nil {
		return nil, err
	}
	return utilityTable(title, xlabel, xs, schemes, []string{SchemeQCR, SchemeQCRH}, outs), nil
}

// RobustnessDishonest is the headline degradation curve: a growing
// fraction of nodes inflates its query counters by mult. Vanilla QCR
// mints replicas of whatever the liars request, evicting honestly demanded
// content; the hardened reaction caps, rate-limits and clamps the same
// reports. OPT, with no reaction to game, bounds what any defense could
// recover.
func RobustnessDishonest(sc Scenario, u utility.Function, fracs []float64, mult float64) (*plot.Table, error) {
	if len(fracs) == 0 {
		fracs = []float64{0, 0.05, 0.1, 0.2, 0.3, 0.5}
	}
	if mult <= 0 {
		mult = 25
	}
	return sc.adversaryTable(u, fracs,
		func(f float64) (adversary.Config, error) { return adversary.Config{DishonestFrac: f, Mult: mult}, nil },
		[]string{SchemeQCR, SchemeQCRH, SchemeOPT},
		fmt.Sprintf("Robustness: utility rate vs dishonest-node fraction (×%g counters)", mult),
		"dishonest fraction")
}

// RobustnessInflation fixes the dishonest fraction and sweeps the
// counter multiplier (the MULT knob): how big a lie does it take to
// collapse vanilla QCR, and where does the hardened reaction saturate
// the attack.
func RobustnessInflation(sc Scenario, u utility.Function, mults []float64, frac float64) (*plot.Table, error) {
	if len(mults) == 0 {
		mults = []float64{1, 2, 5, 10, 25, 50, 100}
	}
	if frac <= 0 || frac > 1 {
		frac = 0.2
	}
	return sc.adversaryTable(u, mults,
		func(m float64) (adversary.Config, error) { return adversary.Config{DishonestFrac: frac, Mult: m}, nil },
		[]string{SchemeQCR, SchemeQCRH, SchemeOPT},
		fmt.Sprintf("Robustness: utility rate vs counter multiplier (%.0f%% dishonest)", frac*100),
		"counter multiplier")
}

// RobustnessFreeRiders sweeps the fraction of nodes that consume content
// but never serve, store, or carry mandates. Free-riding shrinks the
// effective server population for every scheme; QCR additionally loses
// the refused cache writes its mandates would have performed.
func RobustnessFreeRiders(sc Scenario, u utility.Function, fracs []float64) (*plot.Table, error) {
	if len(fracs) == 0 {
		fracs = []float64{0, 0.1, 0.2, 0.3, 0.4, 0.5}
	}
	return sc.adversaryTable(u, fracs,
		func(f float64) (adversary.Config, error) { return adversary.Config{FreeRiderFrac: f}, nil },
		[]string{SchemeQCR, SchemeQCRH, SchemeOPT},
		"Robustness: utility rate vs free-rider fraction",
		"free-rider fraction")
}

// RobustnessFlashCrowd sweeps demand nonstationarity: the popularity
// ranking rotates by one position every period minutes (synth.FlashCrowd),
// so yesterday's cold item is today's flash crowd. The static allocations
// are tuned to the time-averaged base demand and cannot follow; QCR
// re-converges after every shift, faster for shorter catalogs than for
// short periods.
func RobustnessFlashCrowd(sc Scenario, u utility.Function, periods []float64) (*plot.Table, error) {
	if len(periods) == 0 {
		periods = []float64{0, 2000, 1000, 500, 250}
	}
	pop := sc.Pop()
	return sc.adversaryTable(u, periods,
		func(p float64) (adversary.Config, error) {
			if p <= 0 {
				return adversary.Config{}, nil // stationary baseline
			}
			s, err := synth.FlashCrowd(pop, p, sc.Duration, 1)
			return adversary.Config{Schedule: s}, err
		},
		[]string{SchemeQCR, SchemeQCRH, SchemeUNI, SchemeOPT},
		"Robustness: utility rate vs popularity-churn period",
		"rotation period (min)")
}

// RobustnessDiurnal sweeps contact nonstationarity: the same contacts are
// time-changed through ever harsher day/night profiles (12h day window,
// night activity scaled by each factor; factor 1 is the memoryless
// baseline). The meeting-rate estimate µ feeding ψ is a whole-horizon
// average, so QCR's reaction is mistuned at night and overshoots by day —
// the sweep measures how much that costs against the static allocations,
// which only care about total meeting counts.
func RobustnessDiurnal(sc Scenario, u utility.Function, nightFactors []float64) (*plot.Table, error) {
	if len(nightFactors) == 0 {
		nightFactors = []float64{1, 0.5, 0.25, 0.1, 0.05}
	}
	schemes := []string{SchemeQCR, SchemeQCRH, SchemeUNI, SchemeOPT}
	// The time change preserves whole-horizon empirical rates, so the
	// trial's one rates pass over the unmodulated stream serves every
	// profile.
	const xlabel = "night activity factor"
	outs, err := sc.sweep(sc.HomogeneousSources(), schemes, nightFactors, xlabel, func(xi int, _ uint64) (sweepPoint, error) {
		p := sweepPoint{sc: sc, u: u}
		if nf := nightFactors[xi]; nf < 1 {
			p.view = func(pass trace.Source) (trace.Source, error) { return adversary.DayNight(pass, 480, 1200, nf) }
		}
		return p, nil
	})
	if err != nil {
		return nil, err
	}
	return utilityTable("Robustness: utility rate vs day/night contact nonstationarity", xlabel,
		nightFactors, schemes, nil, outs), nil
}

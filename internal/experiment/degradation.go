package experiment

import (
	"fmt"

	"impatience/internal/adversary"
	"impatience/internal/faults"
	"impatience/internal/plot"
	"impatience/internal/sim"
	"impatience/internal/utility"
)

// FaultPlan bundles a fault-injection configuration with the hardening
// knobs the QCR policy uses to survive it, plus the adversarial-workload
// configuration of the robustness experiments. A nil plan (or nil Faults
// and Adversary) reproduces the idealized Section 6.1 runs bit for bit.
type FaultPlan struct {
	Faults *faults.Config
	// Adversary enables the misbehavior-and-drift layer (dishonest
	// counter inflation, free-riders, scheduled popularity churn) for
	// every scheme in the plan's trials.
	Adversary *adversary.Config
	// MandateTTL and MaxAttempts are applied to QCR-family policies only;
	// static allocations have no mandates to harden.
	MandateTTL  float64
	MaxAttempts int
}

// Hardening wraps a fault config with the scenario's default hardening
// knobs: mandates expire after roughly four mean pairwise inter-contact
// times (plenty of meetings to execute or route them; stale ones from
// crashed holders are garbage by then), and a failed content transfer is
// retried at up to five later meetings before the mandate is abandoned.
func (sc Scenario) Hardening(fc *faults.Config) *FaultPlan {
	return &FaultPlan{Faults: fc, MandateTTL: 4 / sc.Mu, MaxAttempts: 5}
}

// faultTable sweeps the fault intensity x, with build(x) describing the
// faults to inject under the default hardening, and tabulates the mean
// utility rate of QCR and the static OPT/UNI competitors, with QCR's
// 5%/95% band. Every scheme within a trial sees the identical fault
// sequence: the injector's stream depends only on its config, seeded per
// trial and point.
func (sc Scenario) faultTable(u utility.Function, xs []float64, build func(x float64) faults.Config, title, xlabel string) (*plot.Table, error) {
	schemes := []string{SchemeQCR, SchemeOPT, SchemeUNI}
	outs, err := sc.sweep(sc.HomogeneousSources(), schemes, xs, xlabel, func(xi int, trial uint64) (sweepPoint, error) {
		fc := build(xs[xi])
		fc.Seed = sc.Seed*69069 + trial*127 + uint64(xi)
		return sweepPoint{sc: sc, u: u, plan: sc.Hardening(&fc)}, nil
	})
	if err != nil {
		return nil, err
	}
	return utilityTable(title, xlabel, xs, schemes, []string{SchemeQCR}, outs), nil
}

// DegradationLoss sweeps the truncated-meeting probability p_loss from 0
// to 0.5: every meeting keeps its metadata exchange but loses the content
// payload with probability p_loss. The hardened QCR retries failed
// transfers at later meetings, so its utility should fall continuously —
// no collapse — alongside the static competitors (whose fulfillments are
// truncated just the same).
func DegradationLoss(sc Scenario, u utility.Function, ploss []float64) (*plot.Table, error) {
	if len(ploss) == 0 {
		ploss = []float64{0, 0.1, 0.2, 0.3, 0.4, 0.5}
	}
	return sc.faultTable(u, ploss,
		func(p float64) faults.Config { return faults.Config{PLoss: p} },
		"Degradation: utility rate vs meeting-truncation probability",
		"p_loss")
}

// DegradationChurn sweeps the node crash rate (crashes per node per
// minute, exponential up-lifetimes, fixed mean downtime): crashes wipe
// caches, sticky replicas and pending mandates. QCR re-seeds sticky
// replicas and regrows the allocation; the static allocations lose
// replicas permanently because nothing ever rewrites them.
func DegradationChurn(sc Scenario, u utility.Function, churn []float64) (*plot.Table, error) {
	if len(churn) == 0 {
		churn = []float64{0, 0.0005, 0.001, 0.002, 0.005}
	}
	down := sc.Duration / 100
	return sc.faultTable(u, churn,
		func(c float64) faults.Config { return faults.Config{ChurnRate: c, MeanDowntime: down} },
		"Degradation: utility rate vs node churn rate",
		"crashes per node-minute")
}

// MassFailureRecovery is the headline robustness plot: at 40% of the run
// a fraction of all nodes crashes simultaneously, wiping their caches,
// and rejoins empty shortly after. The table holds the binned utility
// rate over time (mean across trials) for QCR and the static OPT: QCR
// re-converges to its pre-crash welfare, OPT cannot — its lost replicas
// are never rewritten.
func MassFailureRecovery(sc Scenario, u utility.Function, frac float64) (*plot.Table, error) {
	if frac <= 0 || frac > 1 {
		return nil, fmt.Errorf("experiment: mass-crash fraction %g outside (0,1]", frac)
	}
	gen := sc.HomogeneousSources()
	const bins = 100
	crashAt := 0.4 * sc.Duration
	run := func(trial int, seed uint64) ([]*sim.Result, error) {
		src, err := gen(seed)
		if err != nil {
			return nil, err
		}
		fc := faults.Config{
			MassCrashTime: crashAt,
			MassCrashFrac: frac,
			MassDowntime:  sc.Duration / 20,
			Seed:          sc.Seed*69069 + uint64(trial)*127,
		}
		return sc.RunSchemesBatch([]string{SchemeQCR, SchemeOPT}, u, src, 0, uint64(trial), true, sc.Hardening(&fc))
	}
	// X labels the bin midpoints; a run with any other bin count fails
	// the figure.
	mid := make([]float64, bins)
	for k := range mid {
		mid[k] = (float64(k) + 0.5) * sc.Duration / bins
	}
	return oneSeries(sc.timeSeries(run, []seriesTable{{
		title: fmt.Sprintf("Mass failure at t=%.0f (%.0f%% of nodes): recovery of utility rate", crashAt, frac*100),
		cols:  []seriesCol{binCol(SchemeQCR, 0, observedRate), binCol(SchemeOPT, 1, observedRate)},
	}}, mid))
}

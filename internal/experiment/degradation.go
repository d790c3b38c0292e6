package experiment

import (
	"fmt"

	"impatience/internal/adversary"
	"impatience/internal/faults"
	"impatience/internal/parallel"
	"impatience/internal/plot"
	"impatience/internal/stats"
	"impatience/internal/trace"
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

// degradationSweep runs QCR vs the static OPT/UNI competitors at each
// fault intensity x, with build(x) describing the faults to inject, and
// returns mean AvgUtilityRate per scheme (QCR additionally with its
// 5%/95% band). Every scheme within a trial sees the identical fault
// sequence: the injector's stream depends only on its config.
func (sc Scenario) degradationSweep(u utility.Function, xs []float64, build func(x float64) faults.Config, title, xlabel string) (*plot.Table, error) {
	gen := sc.HomogeneousSources()
	schemes := []string{SchemeQCR, SchemeOPT, SchemeUNI}
	outs, err := parallel.RunTrials(sc.Trials, sc.Workers, sc.Seed, func(trial int, seed uint64) ([][]float64, error) {
		src, err := gen(seed)
		if err != nil {
			return nil, err
		}
		// One rates pass, then one lockstep batch pass per fault
		// intensity over a reopened view of the same contact sequence.
		ro, err := asReopenable(src)
		if err != nil {
			return nil, err
		}
		rates, err := trace.EmpiricalRatesFrom(ro)
		if err != nil {
			return nil, err
		}
		mu := rates.Mean()
		rows := make([][]float64, len(schemes)) // scheme → per-x sample
		for si := range rows {
			rows[si] = make([]float64, len(xs))
		}
		for xi, x := range xs {
			fc := build(x)
			fc.Seed = sc.Seed*69069 + uint64(trial)*127 + uint64(xi)
			plan := sc.Hardening(&fc)
			pass, err := ro.Reopen()
			if err != nil {
				return nil, err
			}
			results, err := sc.runBatchOn(schemes, u, rates, mu, uint64(trial), false, plan, pass)
			if err != nil {
				return nil, fmt.Errorf("experiment: at %s=%g: %w", xlabel, x, err)
			}
			for si := range schemes {
				rows[si][xi] = results[si].AvgUtilityRate
			}
		}
		return rows, nil
	})
	if err != nil {
		return nil, err
	}
	per := make(map[string][][]float64, len(schemes)) // scheme → per-x trial samples
	for _, s := range schemes {
		per[s] = make([][]float64, len(xs))
	}
	for _, rows := range outs {
		for si, s := range schemes {
			for xi := range xs {
				per[s][xi] = append(per[s][xi], rows[si][xi])
			}
		}
	}
	table := &plot.Table{Title: title, XLabel: xlabel}
	table.X = append(table.X, xs...)
	for _, s := range schemes {
		mean := make([]float64, len(xs))
		for xi := range xs {
			mean[xi] = stats.Summarize(per[s][xi]).Mean
		}
		if err := table.AddColumn(s, mean); err != nil {
			return nil, err
		}
	}
	lo := make([]float64, len(xs))
	hi := make([]float64, len(xs))
	for xi := range xs {
		sum := stats.Summarize(per[SchemeQCR][xi])
		lo[xi], hi[xi] = sum.P5, sum.P95
	}
	table.AddColumn("QCR p5", lo)
	table.AddColumn("QCR p95", hi)
	return table, nil
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
	return sc.degradationSweep(u, ploss,
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
	return sc.degradationSweep(u, churn,
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
	schemes := []string{SchemeQCR, SchemeOPT}
	const bins = 100
	crashAt := 0.4 * sc.Duration
	outs, err := parallel.RunTrials(sc.Trials, sc.Workers, sc.Seed, func(trial int, seed uint64) ([][]float64, error) {
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
		plan := sc.Hardening(&fc)
		results, err := sc.RunSchemesBatch(schemes, u, src, 0, uint64(trial), true, plan)
		if err != nil {
			return nil, err
		}
		rows := make([][]float64, len(schemes))
		for si, scheme := range schemes {
			res := results[si]
			if len(res.Bins) != bins {
				return nil, fmt.Errorf("experiment: %s: %d bins, want %d", scheme, len(res.Bins), bins)
			}
			rows[si] = make([]float64, bins)
			for k, b := range res.Bins {
				if w := b.T1 - b.T0; w > 0 {
					rows[si][k] = b.Gain / w
				}
			}
		}
		return rows, nil
	})
	if err != nil {
		return nil, err
	}
	acc := make(map[string][]float64, len(schemes))
	for _, s := range schemes {
		acc[s] = make([]float64, bins)
	}
	for _, rows := range outs {
		for si, s := range schemes {
			for k := range rows[si] {
				acc[s][k] += rows[si][k]
			}
		}
	}
	table := &plot.Table{
		Title:  fmt.Sprintf("Mass failure at t=%.0f (%.0f%% of nodes): recovery of utility rate", crashAt, frac*100),
		XLabel: "time (min)",
	}
	for k := 0; k < bins; k++ {
		table.X = append(table.X, (float64(k)+0.5)*sc.Duration/bins)
	}
	for _, s := range schemes {
		y := make([]float64, bins)
		for k := range y {
			y[k] = acc[s][k] / float64(sc.Trials)
		}
		if err := table.AddColumn(s, y); err != nil {
			return nil, err
		}
	}
	return table, nil
}

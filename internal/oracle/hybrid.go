package oracle

// The hybrid ladder: the mean-field fast path (sim.RunHybrid) against
// the full event simulation on the same welfare ladder the static checks
// run. The gate is relative, not absolute — at every rung the hybrid
// trial-mean welfare must land inside the full-sim confidence interval
// (plus the ladder's usual bias floor), and no rung may silently fall
// back to the event path. A fidelity regression in the fluid coupling,
// the probe accounting, or the initial-placement replay moves the hybrid
// mean out of the CI and fails the check.

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"impatience/internal/alloc"
	"impatience/internal/experiment"
	"impatience/internal/parallel"
	"impatience/internal/rates"
	"impatience/internal/stats"
	"impatience/internal/utility"
)

// checkHybridLadder runs the hybrid engine at every ladder rung and
// gates it against the full-sim CI recorded by getLadder.
func (s *session) checkHybridLadder() CheckResult {
	res := CheckResult{Pass: true, Seed: s.cfg.Seed}
	ld := s.getLadder()
	if ld.err != nil {
		return infraFail(res, ld.err)
	}
	for k, n := range s.p.ladderN {
		sc := s.p.scenario(n, s.cfg)
		hom := sc.Homogeneous(ld.u)
		opt, err := hom.GreedyOptimal(sc.Rho)
		if err != nil {
			return infraFail(res, fmt.Errorf("rung N=%d: greedy optimal: %w", n, err))
		}
		if s.cfg.BreakAllocation {
			// Keep the simulated allocation aligned with the ladder's so
			// the hybrid-vs-sim gate stays meaningful even while the
			// negative control breaks the sim-vs-theory gates.
			opt = alloc.Uniform(sc.Items, sc.Nodes, sc.Rho)
		}
		// A single community whose block rate is the homogeneous µ is the
		// same contact law the ladder's fused stream draws from.
		m, err := rates.New([]int{n}, [][]float64{{sc.Mu}}, nil)
		if err != nil {
			return infraFail(res, fmt.Errorf("rung N=%d: model: %w", n, err))
		}
		type out struct {
			rate     float64
			fellBack bool
			reason   string
		}
		outs, err := parallel.RunTrials(sc.Trials, s.cfg.Workers, sc.Seed, func(trial int, seed uint64) (out, error) {
			r, err := sc.RunStaticHybrid(ld.u, opt, m, trial, seed)
			if err != nil {
				return out{}, err
			}
			return out{rate: r.AvgUtilityRate, fellBack: r.Hybrid.FellBack, reason: r.Hybrid.Reason}, nil
		})
		if err != nil {
			return infraFail(res, fmt.Errorf("rung N=%d: %w", n, err))
		}
		var mean float64
		for _, o := range outs {
			if o.fellBack {
				return infraFail(res, fmt.Errorf("rung N=%d fell back to event simulation: %s", n, o.reason))
			}
			mean += o.rate / float64(len(outs))
		}
		full := ld.rungs[k]
		tol := ladderCISlack*full.iv.Halfwidth + ladderAbsFloor*math.Abs(full.U)
		dev := math.Abs(mean - full.iv.Center)
		ok, line := assertLine(dev <= tol,
			"N=%-4d hybrid %.5f vs full sim %.5f (CI ±%.5f): |Δ|=%.5f ≤ tol %.5f",
			n, mean, full.iv.Center, full.iv.Halfwidth, dev, tol)
		res.Details = append(res.Details, line)
		res.Pass = res.Pass && ok
		res.Effect = maxf(res.Effect, dev/tol)
	}
	return res
}

// The hybrid community check runs the fast path where it is meant to
// run: a rates.PaperCommunity model with demand proportional to N, QCR
// and UNI through experiment.StructuredScale on both engines over the
// same trials (same seeds, demand and initial placement). UNI must land
// inside the full simulation's 95 % CI. QCR gets the ladder's slack
// (3 halfwidths plus a 0.5 % floor): the fluid drift is the paper's
// mean-field QCR, whose equilibrium the finite-N event scheme
// undershoots by about 2 % at N ≤ 1000, because reaction bursts jitter
// the allocation under a concave objective. Every hybrid trial must keep
// part of the population on the fluid, so a silent fallback cannot pass.
// Full mode adds a speedup rung: one Figure-3-style trial per engine at
// N = 10⁵, where the hybrid engine must be at least 20× faster.

const (
	hybridConf       = 0.95 // fidelity gate: full-sim CI level
	hybridMinSpeedup = 20.0 // full-mode wall-clock gate at N = 10⁵
)

// hybridSchemes are the community check's schemes. OPT is left out: it
// needs the dense O(N²) rate matrix the structured path avoids.
var hybridSchemes = []string{experiment.SchemeQCR, experiment.SchemeUNI}

// hybridScenario is a community rung's workload: 16 items, ρ = 3 and
// demand 0.01·N, so the welfare signal does not starve as N grows.
func hybridScenario(n, trials int, duration float64, seed uint64) experiment.Scenario {
	sc := experiment.Default()
	sc.Nodes = n
	sc.Items = 16
	sc.Rho = 3
	sc.DemandRate = 0.01 * float64(n)
	sc.Duration = duration
	sc.Trials = trials
	sc.Seed = seed
	return sc
}

// checkHybridCommunity gates the hybrid engine's fidelity on every
// community rung and, in full mode, its speedup.
func (s *session) checkHybridCommunity() CheckResult {
	res := CheckResult{Pass: true, Seed: s.cfg.Seed}
	for _, r := range s.p.hybridRungs {
		if err := s.hybridFidelityRung(&res, r); err != nil {
			return infraFail(res, fmt.Errorf("rung N=%d: %w", r.nodes, err))
		}
	}
	if s.p.hybridSpeedup {
		if err := s.hybridSpeedupRung(&res); err != nil {
			return infraFail(res, fmt.Errorf("speedup rung: %w", err))
		}
	}
	return res
}

// hybridFidelityRung runs one rung's trials on both engines and gates
// each scheme's hybrid mean against the full simulation's CI.
func (s *session) hybridFidelityRung(res *CheckResult, r hybridRung) error {
	m, err := rates.PaperCommunity(r.nodes, r.communities)
	if err != nil {
		return err
	}
	sc := hybridScenario(r.nodes, r.trials, r.duration, s.cfg.Seed)
	var fluid float64
	welfare := func(hybrid bool) ([][]float64, error) {
		sc.Hybrid.Enabled = hybrid
		reps, err := parallel.RunTrials(sc.Trials, s.cfg.Workers, sc.Seed, func(trial int, _ uint64) (*experiment.StructuredReport, error) {
			return sc.StructuredScale(utility.Step{Tau: 10}, m, hybridSchemes, uint64(trial))
		})
		if err != nil {
			return nil, err
		}
		out := make([][]float64, len(hybridSchemes))
		for trial, rep := range reps {
			if hybrid {
				if !rep.Hybrid || rep.FluidFraction <= 0 {
					return nil, fmt.Errorf("trial %d fell back to full event simulation (fluid fraction %g)", trial, rep.FluidFraction)
				}
				fluid += rep.FluidFraction / float64(len(reps))
			}
			for k := range out {
				out[k] = append(out[k], rep.AvgUtility[k])
			}
		}
		return out, nil
	}
	full, err := welfare(false)
	if err != nil {
		return fmt.Errorf("full path: %w", err)
	}
	hy, err := welfare(true)
	if err != nil {
		return fmt.Errorf("hybrid path: %w", err)
	}
	for k, scheme := range hybridSchemes {
		iv := stats.MeanCI(full[k], hybridConf)
		mean := stats.Summarize(hy[k]).Mean
		dev := math.Abs(mean - iv.Center)
		tol, gate := iv.Halfwidth, "CI"
		if scheme == experiment.SchemeQCR {
			tol, gate = ladderCISlack*iv.Halfwidth+ladderAbsFloor*math.Abs(iv.Center), "slack"
		}
		ok, line := assertLine(dev <= tol,
			"N=%-5d %-3s hybrid %.5f vs full sim %.5f (CI ±%.5f, rel err %.2f%%, fluid %.1f%%): |Δ|=%.5f ≤ %s %.5f",
			r.nodes, scheme, mean, iv.Center, iv.Halfwidth, 100*dev/math.Abs(iv.Center), 100*fluid, dev, gate, tol)
		res.Details = append(res.Details, line)
		res.Pass = res.Pass && ok
		res.Effect = maxf(res.Effect, dev/tol)
	}
	return nil
}

// hybridSpeedupRung times one Figure-3-style trial (32 items, ρ = 3,
// demand 0.04·N) on each engine at N = 10⁵, a population the event path
// can still run, barely — which is the point of the comparison.
func (s *session) hybridSpeedupRung(res *CheckResult) error {
	const nodes = 100_000
	m, err := rates.PaperCommunity(nodes, 32)
	if err != nil {
		return err
	}
	sc := hybridScenario(nodes, 1, 180, s.cfg.Seed)
	sc.Items = 32
	sc.DemandRate = 0.04 * nodes
	timed := func(hybrid bool) (*experiment.StructuredReport, time.Duration, error) {
		sc.Hybrid.Enabled = hybrid
		// The full run leaves tens of millions of contacts' worth of
		// garbage behind; collect it off the clock.
		runtime.GC()
		start := time.Now()
		rep, err := sc.StructuredScale(utility.Step{Tau: 10}, m, hybridSchemes, 0)
		return rep, time.Since(start), err
	}
	full, fullWall, err := timed(false)
	if err != nil {
		return fmt.Errorf("full path: %w", err)
	}
	hy, hyWall, err := timed(true)
	if err != nil {
		return fmt.Errorf("hybrid path: %w", err)
	}
	if !hy.Hybrid || hy.FluidFraction <= 0 {
		return fmt.Errorf("hybrid run fell back to full event simulation (fluid fraction %g)", hy.FluidFraction)
	}
	speedup := float64(fullWall) / float64(hyWall)
	ok, line := assertLine(speedup >= hybridMinSpeedup,
		"N=%d full sim %.2fs (%d contacts) vs hybrid %.3fs (fluid %.1f%%): speedup %.1f× ≥ %.0f×",
		nodes, fullWall.Seconds(), full.Contacts, hyWall.Seconds(), 100*hy.FluidFraction, speedup, hybridMinSpeedup)
	res.Details = append(res.Details, line)
	res.Pass = res.Pass && ok
	res.Effect = maxf(res.Effect, hybridMinSpeedup/speedup)
	return nil
}

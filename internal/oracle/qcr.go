package oracle

// QCR replica-balance check: Query Counting Replication must steer the
// cache toward the relaxed optimum x̃ of Property 1 — and steer it
// *more tightly* as the population grows, since the stochastic
// fluctuation of a per-item count x_i scales like √x_i while x_i itself
// scales with N.

import (
	"fmt"
	"math"

	"impatience/internal/experiment"
	"impatience/internal/parallel"
	"impatience/internal/utility"
	"impatience/internal/welfare"
)

// The check runs under the α=0 power utility (waiting cost −t): its
// sharply curved per-item welfare (ϕ ∝ x⁻²) gives the replication
// dynamics a strong restoring force toward x̃, so the steady-state
// counts are informative. (A near-flat utility like a short-deadline
// step realizes ≈97% of the optimal welfare with counts wandering far
// from x̃ — the landscape is flat there, and the count distance would
// test nothing.)
const (
	qcrErrMax       = 0.20 // normalized L1 distance to x̃ at the top rung
	qcrShrink       = 1.0  // err(top) ≤ err(bottom): no divergence with N
	qcrWelfareFloor = 0.90 // cost ratio vs the static optimum's closed form
	qcrWelfareCeil  = 1.60 // (ratio > 1 = QCR pays more waiting cost than OPT)
)

// checkQCRBalance runs the adaptive scheme at a ladder of population
// sizes, time-averages the post-warmup replica counts, and gates the
// normalized L1 distance Σ|x̄_i − x̃_i| / Σx̃_i against the water-filling
// optimum — plus a sanity corridor on the realized welfare.
func (s *session) checkQCRBalance() CheckResult {
	res := CheckResult{Pass: true, Seed: s.cfg.Seed}
	u := utility.Function(utility.Power{Alpha: 0})
	// With Config.Hardened the same gates run against the hardened
	// reaction: its rate-limiter and clamp must be inert for honest
	// reports, so the fixed point — and therefore the distance and
	// welfare gates — must hold exactly as for vanilla QCR.
	scheme := experiment.SchemeQCR
	if s.cfg.Hardened {
		scheme = experiment.SchemeQCRH
	}
	errs := make([]float64, 0, len(s.p.qcrN))
	for _, n := range s.p.qcrN {
		sc := s.p.qcrScenario(n, s.cfg)
		// The dedicated transform ϕ is what the Property-2 reaction is
		// tuned with, so x̃ from the dedicated system is the theoretical
		// fixed point of the replication dynamics.
		ded := welfare.Homogeneous{
			Utility: u, Pop: sc.Pop(), Mu: sc.Mu,
			Servers: sc.Nodes, Clients: sc.Nodes,
		}
		xt, err := ded.RelaxedOptimal(sc.Rho)
		if err != nil {
			return infraFail(res, fmt.Errorf("N=%d: relaxed optimal: %w", n, err))
		}
		gen := sc.HomogeneousSources()
		type out struct {
			avg  []float64
			rate float64
		}
		outs, err := parallel.RunTrials(sc.Trials, s.cfg.Workers, sc.Seed, func(trial int, seed uint64) (out, error) {
			src, err := gen(seed)
			if err != nil {
				return out{}, err
			}
			results, err := sc.RunSchemesBatch([]string{scheme}, u, src, 0, uint64(trial), true, nil)
			if err != nil {
				return out{}, err
			}
			res := results[0]
			o := out{avg: make([]float64, sc.Items), rate: res.AvgUtilityRate}
			bins := 0
			for _, b := range res.Bins {
				if b.T1 < res.MeasureStart || b.Counts == nil {
					continue
				}
				for i, c := range b.Counts {
					o.avg[i] += float64(c)
				}
				bins++
			}
			if bins == 0 {
				return out{}, fmt.Errorf("no post-warmup bins")
			}
			for i := range o.avg {
				o.avg[i] /= float64(bins)
			}
			return o, nil
		})
		if err != nil {
			return infraFail(res, fmt.Errorf("N=%d: %w", n, err))
		}
		xbar := make([]float64, sc.Items)
		var rateSum float64
		for _, o := range outs {
			rateSum += o.rate
			for i, v := range o.avg {
				xbar[i] += v
			}
		}
		for i := range xbar {
			xbar[i] /= float64(len(outs))
		}
		meanRate := rateSum / float64(len(outs))
		var l1, tot float64
		for i := range xbar {
			l1 += math.Abs(xbar[i] - xt[i])
			tot += xt[i]
		}
		errN := l1 / tot
		errs = append(errs, errN)
		res.Details = append(res.Details, fmt.Sprintf(
			"      N=%-4d replica TV distance to x̃: %.4f (%d trials, mean rate %.4f)", n, errN, len(outs), meanRate))

		if n == s.p.qcrN[len(s.p.qcrN)-1] {
			ok, line := assertLine(errN <= qcrErrMax,
				"N=%-4d steady-state distance %.4f ≤ %g (Property 1 balance)", n, errN, qcrErrMax)
			res.Details = append(res.Details, line)
			res.Pass = res.Pass && ok
			res.Effect = maxf(res.Effect, errN/qcrErrMax)

			// Welfare corridor: the adaptive scheme should pay close to the
			// static optimum's closed-form waiting cost (both negative, so
			// ratio > 1 = QCR pays more) and cannot genuinely beat it.
			p2p := sc.Homogeneous(u)
			opt, err := p2p.GreedyOptimal(sc.Rho)
			if err != nil {
				return infraFail(res, fmt.Errorf("N=%d: greedy: %w", n, err))
			}
			uopt := p2p.WelfareCounts(opt)
			ratio := meanRate / uopt
			ok, line = assertLine(ratio >= qcrWelfareFloor && ratio <= qcrWelfareCeil,
				"N=%-4d QCR cost rate %.4f = %.2f·U(OPT) within [%g, %g]", n, meanRate, ratio, qcrWelfareFloor, qcrWelfareCeil)
			res.Details = append(res.Details, line)
			res.Pass = res.Pass && ok
			if ratio < qcrWelfareFloor || ratio > qcrWelfareCeil {
				res.Effect = maxf(res.Effect, maxf(qcrWelfareFloor/ratio, ratio/qcrWelfareCeil))
			}
		}
	}
	first, last := errs[0], errs[len(errs)-1]
	ok, line := assertLine(last <= qcrShrink*first,
		"concentration: distance %.4f → %.4f (×%.2f, must not exceed ×%g) along N=%v",
		first, last, last/first, qcrShrink, s.p.qcrN)
	res.Details = append(res.Details, line)
	res.Pass = res.Pass && ok
	res.Effect = maxf(res.Effect, (last/first)/qcrShrink)
	return res
}

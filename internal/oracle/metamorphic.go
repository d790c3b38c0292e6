package oracle

// Metamorphic relations: properties any correct simulator of the model
// satisfies whatever its code path, checked by running the simulator on
// transformed inputs and comparing the outputs.

import (
	"fmt"
	"math"
	"math/rand/v2"
	"slices"

	"impatience/internal/contact"
	"impatience/internal/core"
	"impatience/internal/demand"
	"impatience/internal/sim"
	"impatience/internal/trace"
	"impatience/internal/utility"
	"impatience/internal/welfare"
)

// checkMetamorphic checks time rescaling: doubling every rate and halving
// every time — step (µ, T, τ, d) → (2µ, T/2, τ/2, 2d), and exponential
// (µ, T, ν, d) → (2µ, T/2, 2ν, 2d) — replays the same run on a clock that
// ticks twice as fast. Halving and doubling are exact in IEEE arithmetic
// and the contact samplers normalize the rates away, so fulfillments,
// meetings, gain, replicas, outstanding requests and final counts must be
// bit-identical and the gain rate exactly doubled — for the replay and
// alias contact generators, both utilities, a static and a replicating
// policy, and all three simulator entry points. The pair rates are
// heterogeneous (µ/2, µ and 2µ), so the two generators draw different
// contacts.
func (s *session) checkMetamorphic() CheckResult {
	res := CheckResult{Pass: true, Seed: s.cfg.Seed}
	const nodes, items, rho = 40, 24, 3
	const mu, dur, tau, d = 0.05, 1500.0, 8.0, 1.5
	seed := rungSeed(s.cfg.Seed^0x57e4, nodes)
	hom := welfare.Homogeneous{
		Utility: utility.Step{Tau: tau}, Pop: demand.Pareto(items, 1, d), Mu: mu,
		Servers: nodes, Clients: nodes, PureP2P: true,
	}
	opt, err := hom.GreedyOptimal(rho)
	if err != nil {
		return infraFail(res, err)
	}
	tiered := func(mu float64) *trace.RateMatrix {
		rm := trace.NewRateMatrix(nodes)
		for a := 0; a < nodes; a++ {
			for b := a + 1; b < nodes; b++ {
				rm.Set(a, b, mu*[]float64{0.5, 1, 2}[(a+b)%3])
			}
		}
		return rm
	}
	gens := []struct {
		name string
		src  func(mu, dur float64) (trace.Source, error)
	}{
		{"replay", func(mu, dur float64) (trace.Source, error) {
			return contact.NewReplayStream(tiered(mu), dur, seed, seed^0xabcdef)
		}},
		{"alias", func(mu, dur float64) (trace.Source, error) {
			return contact.NewStream(tiered(mu), dur, rand.New(rand.NewPCG(seed, seed^0xabcdef)))
		}},
	}
	// Each utility at time scale s (the rates are s× faster). The step
	// lines keep their unprefixed names.
	utils := []struct {
		prefix, relation string
		at               func(s float64) utility.Function
	}{
		{"", "(2µ, T/2, τ/2, 2d)", func(s float64) utility.Function { return utility.Step{Tau: tau / s} }},
		{"exp/", "(2µ, T/2, 2ν, 2d)", func(s float64) utility.Function { return utility.Exponential{Nu: s / tau} }},
	}
	policies := []struct {
		name string
		cfg  func(mu float64, u utility.Function, d float64) sim.Config
	}{
		{"static", func(mu float64, u utility.Function, d float64) sim.Config {
			return sim.Config{
				Rho: rho, Utility: u, Pop: demand.Pareto(items, 1, d),
				Policy: core.Static{Label: "opt"}, Initial: opt, NoSticky: true, Seed: seed ^ 0x77,
			}
		}},
		{"qcr", func(mu float64, u utility.Function, d float64) sim.Config {
			return sim.Config{
				Rho: rho, Utility: u, Pop: demand.Pareto(items, 1, d),
				Policy: &core.QCR{
					Reaction:       core.TunedReaction(u, mu, nodes, 0.1),
					MandateRouting: true,
					Seed:           seed ^ 0x11,
				},
				Seed: seed ^ 0x77,
			}
		}},
	}
	entries := []struct {
		name string
		run  func(cfg sim.Config, src trace.Source) (*sim.Result, error)
	}{
		{"Run", func(cfg sim.Config, src trace.Source) (*sim.Result, error) {
			cfg.Contacts = src
			return sim.Run(cfg)
		}},
		{"RunBatch", func(cfg sim.Config, src trace.Source) (*sim.Result, error) {
			return first(sim.RunBatch([]sim.Config{cfg}, src))
		}},
		{"RunBatchSharded", func(cfg sim.Config, src trace.Source) (*sim.Result, error) {
			return first(sim.RunBatchSharded([]sim.Config{cfg}, src, 2))
		}},
	}
	run := func(g, u, pc, e int, scale float64) (*sim.Result, error) {
		src, err := gens[g].src(scale*mu, dur/scale)
		if err != nil {
			return nil, err
		}
		return entries[e].run(policies[pc].cfg(scale*mu, utils[u].at(scale), scale*d), src)
	}
	for g := range gens {
		for u := range utils {
			for pc := range policies {
				for e := range entries {
					name := utils[u].prefix + gens[g].name + "/" + policies[pc].name + "/" + entries[e].name
					base, err := run(g, u, pc, e, 1)
					if err != nil {
						return infraFail(res, fmt.Errorf("%s: %w", name, err))
					}
					fast, err := run(g, u, pc, e, 2)
					if err != nil {
						return infraFail(res, fmt.Errorf("%s rescaled: %w", name, err))
					}
					diff := rescaledMismatch(base, fast)
					ok, line := assertLine(diff == "",
						"%s: %s replays %d fulfillments, %d meetings, %d replicas; gain rate %.6g → %.6g %s",
						name, utils[u].relation, base.Fulfillments, base.Meetings, base.ReplicasMade, base.AvgUtilityRate, fast.AvgUtilityRate, diff)
					res.Details = append(res.Details, line)
					res.Pass = res.Pass && ok
					if !ok {
						res.Effect = math.Inf(1)
					}
				}
			}
		}
	}
	return res
}

// first unwraps a one-config batch.
func first(rs []*sim.Result, err error) (*sim.Result, error) {
	if err != nil {
		return nil, err
	}
	return rs[0], nil
}

// rescaledMismatch names the fields where the time-rescaled run fast
// departs from base ("" when the relation holds).
func rescaledMismatch(base, fast *sim.Result) string {
	switch {
	case fast.Fulfillments != base.Fulfillments || fast.Immediate != base.Immediate:
		return "(fulfillments differ)"
	case fast.Meetings != base.Meetings:
		return "(meetings differ)"
	case fast.TotalGain != base.TotalGain:
		return "(total gain differs)"
	case fast.ReplicasMade != base.ReplicasMade:
		return "(replicas made differ)"
	case fast.Outstanding != base.Outstanding:
		return "(outstanding requests differ)"
	case !slices.Equal(fast.FinalCounts, base.FinalCounts):
		return "(final counts differ)"
	case fast.AvgUtilityRate != 2*base.AvgUtilityRate:
		return "(gain rate not exactly doubled)"
	}
	return ""
}

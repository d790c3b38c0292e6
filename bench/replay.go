package main

import (
	"fmt"
	"slices"
	"time"

	"impatience/internal/alloc"
	"impatience/internal/contact"
	"impatience/internal/core"
	"impatience/internal/experiment"
	"impatience/internal/parallel"
	"impatience/internal/rates"
	"impatience/internal/sim"
	"impatience/internal/trace"
	"impatience/internal/utility"
	"impatience/internal/welfare"
)

// The traced run re-issues each workload's inputs as calls into the
// layer functions, one span per call, so a layer's time can be read off
// without instrumenting the program. The configurations below are the
// ones the experiment package builds for the same trial; every replay
// checks that it reproduces the untraced result, so the span tree times
// the computation the end-to-end number times.

// schemeConfig builds one scheme's simulation config for one trial,
// leaving the contact input to the caller. opt is the OPT placement
// (nil when OPT is not among the schemes).
func schemeConfig(sc experiment.Scenario, scheme string, u utility.Function, mu float64, trial uint64, opt *alloc.Placement, series bool) (sim.Config, error) {
	pop := sc.Pop()
	cfg := sim.Config{
		Rho:        sc.Rho,
		Utility:    u,
		Pop:        pop,
		Seed:       sc.Seed*1_000_003 + trial*101,
		WarmupFrac: sc.WarmupFrac,
	}
	if series {
		cfg.BinWidth = sc.Duration / 100
		cfg.RecordCounts = true
	}
	static := func(c alloc.Counts) {
		cfg.Policy = core.Static{Label: scheme}
		cfg.NoSticky = true
		cfg.Initial = c
	}
	switch scheme {
	case experiment.SchemeQCR:
		cfg.Policy = &core.QCR{
			Reaction:       core.TunedReaction(u, mu, sc.Nodes, reactionScale(sc, u, mu)),
			MandateRouting: true,
			StrictSource:   true,
			MaxMandates:    max(sc.Nodes/10, 3),
			Seed:           sc.Seed*7919 + trial,
		}
	case experiment.SchemeOPT:
		if opt == nil {
			return cfg, fmt.Errorf("OPT needs a placement")
		}
		cfg.Policy = core.Static{Label: scheme}
		cfg.NoSticky = true
		cfg.InitialPlacement = opt
	case experiment.SchemeUNI:
		static(alloc.Uniform(sc.Items, sc.Nodes, sc.Rho))
	case experiment.SchemeSQRT:
		static(alloc.Sqrt(pop.Rates, sc.Nodes, sc.Rho))
	case experiment.SchemePROP:
		static(alloc.Prop(pop.Rates, sc.Nodes, sc.Rho))
	case experiment.SchemeDOM:
		static(alloc.Dom(pop.Rates, sc.Nodes, sc.Rho))
	default:
		return cfg, fmt.Errorf("unknown scheme %q", scheme)
	}
	return cfg, nil
}

// reactionScale is the burst-normalized QCR reaction scale.
func reactionScale(sc experiment.Scenario, u utility.Function, mu float64) float64 {
	h := welfare.Homogeneous{Utility: u, Pop: sc.Pop(), Mu: mu, Servers: sc.Nodes, Clients: sc.Nodes}
	if s, err := h.ReactionScale(sc.Rho, sc.QCRBurst); err == nil && s > 0 {
		return s
	}
	return sc.QCRScale
}

func schemeConfigs(sc experiment.Scenario, schemes []string, u utility.Function, mu float64, trial uint64, opt *alloc.Placement, series bool) ([]sim.Config, error) {
	cfgs := make([]sim.Config, len(schemes))
	for k, s := range schemes {
		var err error
		if cfgs[k], err = schemeConfig(sc, s, u, mu, trial, opt, series); err != nil {
			return nil, err
		}
	}
	return cfgs, nil
}

func digests(rs []*sim.Result) []uint64 {
	out := make([]uint64, len(rs))
	for i, r := range rs {
		out[i] = r.Digest()
	}
	return out
}

// replayed is what a workload replay hands back: the root span of the
// traced calls and the wall time of the same inputs run untraced.
type replayed struct {
	root     int
	untraced time.Duration
}

// replayFig4 replays one Figure 4 repetition with one trial per τ, on one
// worker, so the layer self times add up to the wall time.
func replayFig4(s spec, t *tracer, r *Result) (replayed, error) {
	sc := fig4Scenario(s)
	sc.Trials, sc.Workers, sc.Seed = 1, 1, s.repSeed(0)
	schemes := append([]string{experiment.SchemeQCR}, experiment.AllCompetitors...)

	t0 := time.Now()
	table, err := experiment.Figure4Step(sc, nil)
	if err != nil {
		return replayed{}, err
	}
	untraced := time.Since(t0)
	r.Attempted += len(table.X)

	var first []uint64
	var root int
	err = t.span("fig4.rep", 0, -1, func(rep int) error {
		root = rep
		for i, tau := range table.X {
			u := utility.Step{Tau: tau}
			for trial := 0; trial < sc.Trials; trial++ {
				id := i*sc.Trials + trial
				seed := parallel.TrialSeed(sc.Seed, trial)
				err := t.span("fig4.trial", rep, id, func(p int) error {
					var src *contact.ReplayStream
					var rm *trace.RateMatrix
					var opt *alloc.Placement
					var cfgs []sim.Config
					var res []*sim.Result
					err := t.span("contact.replay_stream", p, id, func(int) (err error) {
						src, err = contact.NewHomogeneousReplayStream(sc.Nodes, sc.Mu, sc.Duration, seed, seed^0xabcdef)
						return err
					})
					if err == nil {
						err = t.span("trace.empirical_rates", p, id, func(int) (err error) {
							rm, err = trace.EmpiricalRatesFrom(src)
							return err
						})
					}
					if err == nil {
						err = t.span("welfare.opt_greedy", p, id, func(int) (err error) {
							opt, err = optHetero(sc, u, rm).GreedySubmodular(sc.Rho)
							return err
						})
					}
					if err == nil {
						err = t.span("bench.configs", p, id, func(int) (err error) {
							cfgs, err = schemeConfigs(sc, schemes, u, rm.Mean(), uint64(trial), opt, false)
							return err
						})
					}
					if err == nil {
						err = t.span("sim.run_batch", p, id, func(int) error {
							again, err := src.Reopen()
							if err != nil {
								return err
							}
							res, err = sim.RunBatchSharded(cfgs, again, 0)
							return err
						})
					}
					if err == nil && first == nil {
						first = digests(res)
					}
					return err
				})
				if err != nil {
					return err
				}
				r.Attempted++
			}
		}
		return nil
	})
	if err != nil {
		return replayed{}, err
	}

	// The replay must be the computation the figure runs.
	src, err := sc.HomogeneousSources()(parallel.TrialSeed(sc.Seed, 0))
	if err != nil {
		return replayed{}, err
	}
	want, err := sc.RunSchemesBatch(schemes, utility.Step{Tau: table.X[0]}, src, 0, 0, false, nil)
	if err != nil {
		return replayed{}, err
	}
	r.gate("replay reproduces the figure's trial", slices.Equal(first, digests(want)), "%x vs %x", first, digests(want))
	return replayed{root, untraced}, nil
}

// replayCommunity replays one million-node run: the sharded contact
// source and the sharded lockstep executor.
func replayCommunity(s spec, t *tracer, r *Result) (replayed, error) {
	cs, _ := communitySizes(s)
	u := utility.Step{Tau: 10}
	m, err := communityModel(cs.nodes, cs.comms)
	if err != nil {
		return replayed{}, err
	}
	sc := communityScenario(cs, s.seed)
	// Warm-up, then the timed untraced run.
	if _, err := sc.StructuredScale(u, m, communitySchemes, 0); err != nil {
		return replayed{}, err
	}
	t0 := time.Now()
	want, err := sc.StructuredScale(u, m, communitySchemes, 0)
	if err != nil {
		return replayed{}, err
	}
	untraced := time.Since(t0)
	r.Attempted += 2

	var root int
	var res []*sim.Result
	err = t.span("community.run", 0, 0, func(p int) error {
		root = p
		var src *rates.ShardedSource
		var cfgs []sim.Config
		err := t.span("rates.sharded_source", p, 0, func(int) (err error) {
			src, err = rates.NewSharded(m, sc.Duration, parallel.TrialSeed(sc.Seed, 0), 0)
			return err
		})
		if err == nil {
			err = t.span("bench.configs", p, 0, func(int) (err error) {
				cfgs, err = schemeConfigs(sc, communitySchemes, u, m.MeanPairRate(), 0, nil, false)
				return err
			})
		}
		if err == nil {
			err = t.span("sim.run_batch_sharded", p, 0, func(int) (err error) {
				res, err = sim.RunBatchSharded(cfgs, src, sc.Shards)
				return err
			})
		}
		return err
	})
	if err != nil {
		return replayed{}, err
	}
	r.Attempted++
	acc := uint64(0x9e3779b97f4a7c15)
	for _, x := range res {
		acc = parallel.SplitMix64(acc ^ x.Digest())
	}
	r.gate("replay reproduces the run's digest family", acc == want.DigestFamily, "%#x vs %#x", acc, want.DigestFamily)
	return replayed{root, untraced}, nil
}

// replayHybrid replays one hybrid Figure 3 trial: the homogeneous greedy
// the figure's OPT line comes from, then each scheme on the hybrid
// engine.
func replayHybrid(s spec, t *tracer, r *Result) (replayed, error) {
	cs, _ := hybridSize(s)
	m, err := communityModel(cs.nodes, cs.comms)
	if err != nil {
		return replayed{}, err
	}
	sc := hybridScenario(cs, 1, s.repSeed(0))
	sc.Workers = 1
	t0 := time.Now()
	if _, err := experiment.HybridFigure3(sc, m); err != nil {
		return replayed{}, err
	}
	untraced := time.Since(t0)
	r.Attempted++

	u := utility.Power{Alpha: 0}
	mu := m.MeanPairRate()
	var root int
	err = t.span("hybrid.trial", 0, 0, func(p int) error {
		root = p
		err := t.span("welfare.homogeneous_greedy", p, 0, func(int) error {
			h := welfare.Homogeneous{Utility: u, Pop: sc.Pop(), Mu: mu, Servers: sc.Nodes, Clients: sc.Nodes, PureP2P: true}
			_, err := h.GreedyOptimal(sc.Rho)
			return err
		})
		if err != nil {
			return err
		}
		hy := sc.Hybrid
		hy.Enabled = true
		hy.ContactSeed = parallel.TrialSeed(sc.Seed, 0)
		hy.ReactionScale = reactionScale(sc, u, mu)
		for _, scheme := range []string{experiment.SchemeQCR, experiment.SchemeUNI} {
			cfg, err := schemeConfig(sc, scheme, u, mu, 0, nil, true)
			if err != nil {
				return err
			}
			err = t.span("sim.run_hybrid", p, 0, func(int) error {
				res, err := sim.RunHybrid(cfg, m, sc.Duration, hy)
				if err == nil && (res.Hybrid == nil || res.Hybrid.FluidFraction <= 0.9) {
					err = fmt.Errorf("%s fell back to event simulation", scheme)
				}
				return err
			})
			if err != nil {
				return err
			}
			r.Attempted++
		}
		return nil
	})
	return replayed{root, untraced}, err
}

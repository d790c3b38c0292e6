// Package experiment contains the evaluation harness: one runner per
// table and figure of the paper, shared by the cmd/agefigures CLI and the
// repository's benchmarks. Each runner plays the relevant simulations (or
// analytic computations) and returns plot.Tables whose rows/series mirror
// what the paper reports.
package experiment

import (
	"fmt"
	"math"
	"math/rand/v2"
	"slices"

	"impatience/internal/alloc"
	"impatience/internal/core"
	"impatience/internal/demand"
	"impatience/internal/plot"
	"impatience/internal/sim"
	"impatience/internal/stats"
	"impatience/internal/synth"
	"impatience/internal/trace"
	"impatience/internal/utility"
	"impatience/internal/welfare"
)

// Scenario bundles the simulation parameters shared by the evaluation
// (Section 6.1-6.2 defaults: 50 nodes, 50 items, ρ=5, Pareto ω=1 demand,
// µ=0.05, ≥15 trials with 5%/95% bands).
type Scenario struct {
	Nodes      int
	Items      int
	Rho        int
	Mu         float64 // homogeneous contact rate; also the ψ-tuning plug-in
	Omega      float64 // Pareto popularity exponent
	DemandRate float64 // aggregate requests per minute
	Duration   float64 // minutes
	Trials     int
	Seed       uint64
	// Workers bounds the trial worker pool (0 or less = GOMAXPROCS).
	// Results are bit-identical for every worker count: per-trial seeds
	// are pure functions of (Seed, trial) — see internal/parallel.
	Workers int
	// Shards partitions each trial's lockstep batch across a worker set
	// (sim.RunBatchSharded): one producer draws the shared contact stream
	// serially and every worker steps the scheme runners it owns. ≤ 1
	// runs the serial executor. Results are bit-identical at every shard
	// count, so Shards is purely a throughput knob — unlike Workers it
	// parallelizes within a trial, which is what the million-node runs
	// (one trial, many schemes) need.
	Shards int
	// QCRScale is the fallback reaction-function proportionality constant,
	// used when burst normalization cannot be computed.
	QCRScale float64
	// QCRBurst is the target mean replicas per fulfillment at the optimal
	// allocation; the reaction scale is normalized per utility so this
	// holds (welfare.ReactionScale). The QCR fixed point is scale-free;
	// this only controls the convergence-speed/variance trade-off.
	QCRBurst   float64
	WarmupFrac float64
	// Hybrid selects the mean-field fast path for the structured-rates
	// runners (RunStructuredComparison, StructuredScale) when
	// Hybrid.Enabled is set: large communities evolve by the fluid limit,
	// only a probe boundary is event-simulated, and the error controller
	// demotes the run to full fidelity when the probes disagree with the
	// fluid prediction (see sim.RunHybrid). ContactSeed and ReactionScale
	// are overwritten per trial by the wiring; the remaining knobs pass
	// through.
	Hybrid sim.HybridOptions
}

// Default returns the paper's evaluation scenario.
func Default() Scenario {
	return Scenario{
		Nodes:      50,
		Items:      50,
		Rho:        5,
		Mu:         0.05,
		Omega:      1,
		DemandRate: 2,
		Duration:   5000,
		Trials:     15,
		Seed:       1,
		QCRScale:   0.1,
		QCRBurst:   0.05,
		WarmupFrac: 0.3,
	}
}

// Scaled returns a cheaper copy for benchmarks and smoke tests: trials
// and duration shrink by the given factors (minimum 1 trial). The trial
// count rounds half-up so scenarios with different Trials shrink
// symmetrically instead of truncating toward zero.
func (sc Scenario) Scaled(trialFrac, durFrac float64) Scenario {
	out := sc
	out.Trials = int(math.Floor(float64(sc.Trials)*trialFrac + 0.5))
	if out.Trials < 1 {
		out.Trials = 1
	}
	out.Duration = sc.Duration * durFrac
	return out
}

// Pop returns the scenario's popularity distribution.
func (sc Scenario) Pop() demand.Popularity {
	return demand.Pareto(sc.Items, sc.Omega, sc.DemandRate)
}

// TraceGen produces the contact trace for one trial. Implementations must
// be deterministic in the seed.
type TraceGen func(seed uint64) (*trace.Trace, error)

// ConferenceTraces generates Infocom'06-like traces (§6.3). The scenario
// duration is overridden by the trace's three days.
func ConferenceTraces(cfg synth.ConferenceConfig) TraceGen {
	return func(seed uint64) (*trace.Trace, error) {
		return synth.Conference(cfg, rand.New(rand.NewPCG(seed, seed*31+7)))
	}
}

// VehicularTraces generates Cabspotting-like traces (§6.3).
func VehicularTraces(cfg synth.VehicularConfig) TraceGen {
	return func(seed uint64) (*trace.Trace, error) {
		return synth.Vehicular(cfg, rand.New(rand.NewPCG(seed, seed*17+3)))
	}
}

// MemorylessOf wraps a generator, replacing each trace by its memoryless
// counterpart (same pairwise rates, Poisson times — Figure 5c).
func MemorylessOf(gen TraceGen) TraceGen {
	return func(seed uint64) (*trace.Trace, error) {
		tr, err := gen(seed)
		if err != nil {
			return nil, err
		}
		return synth.Memoryless(tr, rand.New(rand.NewPCG(seed^0x5151, seed+13)))
	}
}

// Scheme names, in the paper's order.
const (
	SchemeQCR    = "QCR"
	SchemeQCRWOM = "QCRWOM" // QCR without mandate routing
	SchemeQCRH   = "QCRH"   // QCR with the adversary-hardened reaction
	SchemeOPT    = "OPT"
	SchemeUNI    = "UNI"
	SchemeSQRT   = "SQRT"
	SchemePROP   = "PROP"
	SchemeDOM    = "DOM"
)

// AllCompetitors is the fixed-allocation competitor set of Section 6.1.
var AllCompetitors = []string{SchemeOPT, SchemeUNI, SchemeSQRT, SchemePROP, SchemeDOM}

// buildStatic computes the fixed allocation for a named competitor given
// the empirical rate matrix of the trial's trace. OPT uses the
// heterogeneous submodular greedy under the memoryless approximation
// (exact greedy in the homogeneous case); the others depend only on
// demand.
func buildStatic(sc Scenario, scheme string, u utility.Function, pop demand.Popularity, rates *trace.RateMatrix) (alloc.Counts, *alloc.Placement, error) {
	switch scheme {
	case SchemeUNI:
		return alloc.Uniform(sc.Items, sc.Nodes, sc.Rho), nil, nil
	case SchemeSQRT:
		return alloc.Sqrt(pop.Rates, sc.Nodes, sc.Rho), nil, nil
	case SchemePROP:
		return alloc.Prop(pop.Rates, sc.Nodes, sc.Rho), nil, nil
	case SchemeDOM:
		return alloc.Dom(pop.Rates, sc.Nodes, sc.Rho), nil, nil
	case SchemeOPT:
		ids := make([]int, sc.Nodes)
		for i := range ids {
			ids[i] = i
		}
		het := welfare.Hetero{
			Utility: u,
			Pop:     pop,
			Profile: demand.UniformProfile(sc.Items, sc.Nodes),
			Rates:   rates,
			Clients: ids,
			Servers: ids,
		}
		p, err := het.GreedySubmodular(sc.Rho)
		if err != nil {
			return nil, nil, err
		}
		return p.Counts(), p, nil
	default:
		return nil, nil, fmt.Errorf("experiment: unknown scheme %q", scheme)
	}
}

// reactionScale resolves the burst-normalized reaction proportionality
// constant (falling back to the raw QCRScale knob when normalization is
// unavailable). The QCR policy and the hybrid engine's fluid PsiScale
// both consume it, so fluid and event transients share a clock.
func (sc Scenario) reactionScale(u utility.Function, mu float64) float64 {
	scale := sc.QCRScale
	if sc.QCRBurst > 0 {
		h := welfare.Homogeneous{
			Utility: u, Pop: sc.Pop(), Mu: mu,
			Servers: sc.Nodes, Clients: sc.Nodes,
		}
		if s, err := h.ReactionScale(sc.Rho, sc.QCRBurst); err == nil && s > 0 {
			scale = s
		}
	}
	return scale
}

// qcrPolicy builds the tuned QCR policy for a trial: the Property-2
// reaction with its scale normalized so the mean burst at the optimum is
// sc.QCRBurst replicas per fulfillment, and a per-fulfillment mandate cap
// of |S|/5 against heavy-tailed counter bursts.
func (sc Scenario) qcrPolicy(u utility.Function, mu float64, routing bool, seed uint64) *core.QCR {
	scale := sc.reactionScale(u, mu)
	cap := sc.Nodes / 10
	if cap < 3 {
		cap = 3
	}
	return &core.QCR{
		Reaction:       core.TunedReaction(u, mu, sc.Nodes, scale),
		MandateRouting: routing,
		StrictSource:   true,
		MaxMandates:    cap,
		Seed:           seed,
	}
}

// plainQCR is the untuned QCR the extensions compare against: mandate
// routing over strict sources, at most five mandates per fulfillment and
// the trial's policy seed, with the given reaction.
func (sc Scenario) plainQCR(reaction core.ReactionFunc, trial uint64) *core.QCR {
	return &core.QCR{Reaction: reaction, MandateRouting: true, StrictSource: true, MaxMandates: 5, Seed: sc.policySeed(trial)}
}

// hardenProfile derives the scenario's default hardened-reaction knobs
// (SchemeQCRH). The counter cap sits at three populations' worth of
// meetings — the honest expectation is E[y] = |S|/x_i ≤ |S|, so the cap
// never binds on honest reports while flattening large forged counters.
// The replica clamp comes from the water-filling optimum: no honest
// trajectory needs an item's supply beyond ~1.5× the largest relaxed
// allocation x̃, so minting past it only ever serves an attacker. α=0.25
// means a forged counter earns at most a quarter of its rise over the
// item's running mean.
func (sc Scenario) hardenProfile(u utility.Function, mu float64) *core.Hardening {
	h := &core.Hardening{
		CounterCap:   3 * sc.Nodes,
		SmoothAlpha:  0.25,
		ReplicaClamp: sc.Nodes,
	}
	w := welfare.Homogeneous{
		Utility: u, Pop: sc.Pop(), Mu: mu,
		Servers: sc.Nodes, Clients: sc.Nodes,
	}
	if xt, err := w.RelaxedOptimal(sc.Rho); err == nil {
		var xmax float64
		for _, x := range xt {
			if x > xmax {
				xmax = x
			}
		}
		if clamp := int(math.Ceil(1.5 * xmax)); clamp >= 1 && clamp < sc.Nodes {
			h.ReplicaClamp = clamp
		}
	}
	return h
}

// simSeed is the simulator seed of one trial. Every scheme of the trial
// shares it, so their request arrivals are identical; it depends only on
// the scenario seed and the trial index, never on scheduling.
func (sc Scenario) simSeed(trial uint64) uint64 { return sc.Seed*1_000_003 + trial*101 }

// policySeed is the seed of one trial's QCR-family policy streams.
func (sc Scenario) policySeed(trial uint64) uint64 { return sc.Seed*7919 + trial }

// trialConfig is the simulation config every hand-built scheme of a
// trial starts from: the scenario's cache size, popularity and warmup
// under utility u, with the trial's simulator seed.
func (sc Scenario) trialConfig(u utility.Function, trial uint64) sim.Config {
	return sim.Config{
		Rho:        sc.Rho,
		Utility:    u,
		Pop:        sc.Pop(),
		Seed:       sc.simSeed(trial),
		WarmupFrac: sc.WarmupFrac,
	}
}

// schemeConfig builds one scheme's simulation config for one trial,
// leaving the contact input to the batch executor, which streams one
// shared source through every scheme's config.
func (sc Scenario) schemeConfig(scheme string, u utility.Function, rates *trace.RateMatrix, mu float64, trial uint64, series bool, plan *FaultPlan) (sim.Config, error) {
	cfg := sc.trialConfig(u, trial)
	if series {
		cfg.BinWidth = sc.Duration / 100
		cfg.RecordCounts = true
	}
	if plan != nil {
		cfg.Faults = plan.Faults
		cfg.Adversary = plan.Adversary
	}
	switch scheme {
	case SchemeQCR, SchemeQCRWOM, SchemeQCRH:
		pol := sc.qcrPolicy(u, mu, scheme != SchemeQCRWOM, sc.policySeed(trial))
		if plan != nil {
			pol.MandateTTL = plan.MandateTTL
			pol.MaxAttempts = plan.MaxAttempts
		}
		if scheme == SchemeQCRH {
			pol.Hardening = sc.hardenProfile(u, mu)
		}
		cfg.Policy = pol
	default:
		counts, placement, err := buildStatic(sc, scheme, u, cfg.Pop, rates)
		if err != nil {
			return sim.Config{}, err
		}
		cfg.Policy = core.Static{Label: scheme}
		cfg.NoSticky = true
		if placement != nil {
			cfg.InitialPlacement = placement
		} else {
			cfg.Initial = counts
		}
	}
	return cfg, nil
}

// Comparison is the outcome of running a scheme set over common trials.
type Comparison struct {
	Schemes []string
	// Utility[s] aggregates the per-trial average utility rates.
	Utility map[string]stats.Summary
	// Loss[s] aggregates the per-trial normalized loss vs OPT in percent
	// (Figures 4–6's y-axis). OPT's own loss is identically 0.
	Loss map[string]stats.Summary
}

// RunComparison runs every scheme on the same per-trial contact streams
// and aggregates utilities and losses vs OPT: the one-point case of the
// sweep driver. Each trial streams its source once for the empirical
// rates and once, in lockstep, for every scheme — no materialized contact
// list. Trials execute on the parallel trial engine (sc.Workers workers);
// aggregation happens in trial order, so results do not depend on
// scheduling.
func (sc Scenario) RunComparison(u utility.Function, gen SourceGen, schemes []string) (*Comparison, error) {
	outs, err := sc.sweep(gen, schemes, []float64{0}, "", func(int, uint64) (sweepPoint, error) {
		return sweepPoint{sc: sc, u: u}, nil
	})
	if err != nil {
		return nil, err
	}
	return pointComparisons(schemes, outs, 1)[0], nil
}

// aggregateComparison folds per-trial utilities (indexed [trial][scheme])
// into the summary the comparison returns, with losses against the
// trial's OPT when the set has one; trial order is fixed by the caller,
// so the float reductions are worker-count invariant.
func aggregateComparison(schemes []string, rows [][]float64) *Comparison {
	opt := slices.Index(schemes, SchemeOPT)
	cmp := &Comparison{
		Schemes: append([]string(nil), schemes...),
		Utility: make(map[string]stats.Summary, len(schemes)),
		Loss:    make(map[string]stats.Summary, len(schemes)),
	}
	for k, s := range schemes {
		utils := make([]float64, len(rows))
		loss := make([]float64, len(rows))
		for t, row := range rows {
			utils[t] = row[k]
			if opt >= 0 {
				loss[t] = stats.NormalizedLoss(row[k], row[opt])
			}
		}
		cmp.Utility[s] = stats.Summarize(utils)
		if opt >= 0 {
			cmp.Loss[s] = stats.Summarize(loss)
		}
	}
	return cmp
}

// trialTable lays per-trial outcomes (rows[trial][k]) out as one column
// per name against the trial index — the shape of the single-setting
// ablations and extensions.
func trialTable(title string, names []string, rows [][]float64) *plot.Table {
	table := &plot.Table{Title: title, XLabel: "trial"}
	for t := range rows {
		table.X = append(table.X, float64(t))
	}
	for k, name := range names {
		col := make([]float64, len(rows))
		for t, row := range rows {
			col[t] = row[k]
		}
		table.AddColumn(name, col)
	}
	return table
}

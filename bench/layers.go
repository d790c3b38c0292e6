package main

import (
	"math/rand/v2"
	"runtime"
	"syscall"
	"time"

	"impatience/internal/contact"
	"impatience/internal/demand"
	"impatience/internal/experiment"
	"impatience/internal/meanfield"
	"impatience/internal/numeric"
	"impatience/internal/rates"
	"impatience/internal/serve"
	"impatience/internal/sim"
	"impatience/internal/trace"
	"impatience/internal/utility"
)

// The layer probes time each layer in isolation at the sizes of the
// workload whose end-to-end metric it should move (see README.md). They
// run in every traced run, so every traced run reports every per-layer
// metric; each probe call is a span under the "probes" root.

// probe is one layer measurement.
type probe struct {
	name string
	run  func(s spec, t *tracer, parent int, r *Result) error
}

var probes = []probe{
	{"probe.contact", probeContact},
	{"probe.rates", probeRates},
	{"probe.sim_setup", probeSimSetup},
	{"probe.sim_kernel", probeKernel},
	{"probe.sim_shards", probeShards},
	{"probe.meanfield", probeMeanfield},
	{"probe.serve", probeServe},
}

func runProbes(s spec, t *tracer, r *Result) error {
	return t.span("probes", 0, -1, func(root int) error {
		for _, p := range probes {
			if err := t.span(p.name, root, -1, func(id int) error { return p.run(s, t, id, r) }); err != nil {
				return err
			}
		}
		return nil
	})
}

// drain pulls every contact from src in batches and returns the count.
func drain(src trace.Source) int {
	buf := make([]trace.Contact, 4096)
	n := 0
	for {
		k := trace.FillBatch(src, buf)
		if k == 0 {
			return n
		}
		n += k
	}
}

// perCall runs f reps times, each in a span, and returns the median
// span duration in nanoseconds.
func perCall(t *tracer, parent int, name string, reps int, f func() error) (float64, error) {
	for i := 0; i < reps; i++ {
		if err := t.span(name, parent, i, func(int) error { return f() }); err != nil {
			return 0, err
		}
	}
	return median(lastDurations(t, name, reps)), nil
}

func lastDurations(t *tracer, name string, n int) []float64 {
	d := durations(t.Spans(), name)
	return d[len(d)-n:]
}

// probeContact: the homogeneous contact generators, the empirical-rate
// pass and the OPT greedy, at Figure 4 sizes.
func probeContact(s spec, t *tracer, p int, r *Result) error {
	sc := fig4Scenario(s)
	seed := s.repSeed(0)
	var n int
	replay, err := perCall(t, p, "contact.replay_drain", 3, func() error {
		src, err := contact.NewHomogeneousReplayStream(sc.Nodes, sc.Mu, sc.Duration, seed, seed^0xabcdef)
		n = drain(src)
		return err
	})
	if err != nil {
		return err
	}
	alias, err := perCall(t, p, "contact.alias_drain", 3, func() error {
		src, err := contact.NewHomogeneousStream(sc.Nodes, sc.Mu, sc.Duration, rand.New(rand.NewPCG(seed, 1)))
		drain(src)
		return err
	})
	if err != nil {
		return err
	}
	src, err := contact.NewHomogeneousReplayStream(sc.Nodes, sc.Mu, sc.Duration, seed, seed^0xabcdef)
	if err != nil {
		return err
	}
	tr, err := trace.Collect(src)
	if err != nil {
		return err
	}
	var rm *trace.RateMatrix
	emp, err := perCall(t, p, "trace.empirical_rates", 3, func() (err error) {
		rm, err = trace.EmpiricalRatesFrom(tr.Source())
		return err
	})
	if err != nil {
		return err
	}
	greedy, err := perCall(t, p, "welfare.opt_greedy", 3, func() error {
		_, err := optHetero(sc, utility.Step{Tau: 10}, rm).GreedySubmodular(sc.Rho)
		return err
	})
	if err != nil {
		return err
	}
	r.set("contact.replay_ns_per_contact", replay/float64(n), "ns", 3)
	r.set("contact.alias_ns_per_contact", alias/float64(n), "ns", 3)
	r.set("trace.empirical_rates_ns_per_contact", emp/float64(len(tr.Contacts)), "ns", 3)
	r.set("welfare.opt_greedy_ms", greedy/1e6, "ms", 3)
	return nil
}

// allocBytes returns the bytes allocated by f.
func allocBytes(f func() error) (uint64, error) {
	var a, b runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&a)
	err := f()
	runtime.ReadMemStats(&b)
	return b.TotalAlloc - a.TotalAlloc, err
}

// probeRates: the structured model's setup bytes and the sharded
// sampler's merge, at the community-1m population.
func probeRates(s spec, t *tracer, p int, r *Result) error {
	cs, _ := communitySizes(s)
	var m *rates.Model
	bytes, err := allocBytes(func() error {
		return t.span("rates.setup", p, 0, func(int) error {
			var err error
			if m, err = communityModel(cs.nodes, cs.comms); err != nil {
				return err
			}
			_, err = rates.NewSharded(m, cs.duration, s.seed, 0)
			return err
		})
	})
	if err != nil {
		return err
	}
	var n int
	ns, err := perCall(t, p, "rates.sharded_drain", 3, func() error {
		src, err := rates.NewSharded(m, cs.duration/4, s.seed, 0)
		n = drain(src)
		return err
	})
	if err != nil {
		return err
	}
	r.set("rates.setup_bytes_per_node", float64(bytes)/float64(cs.nodes), "B", 0)
	r.set("rates.sharded_ns_per_contact", ns/float64(n), "ns", 3)
	return nil
}

// emptySource is a contact source with no contacts: a run over it is all
// runner setup.
func emptySource(nodes int) trace.Source {
	return (&trace.Trace{Nodes: nodes, Duration: setupDuration}).Source()
}

// probeSimSetup: QCR runner setup at the community-1m population.
func probeSimSetup(s spec, t *tracer, p int, r *Result) error {
	cs, _ := communitySizes(s)
	sc := communityScenario(cs, s.seed)
	m, err := communityModel(cs.nodes, cs.comms)
	if err != nil {
		return err
	}
	cfg, err := schemeConfig(sc, experiment.SchemeQCR, utility.Step{Tau: 10}, m.MeanPairRate(), 0, nil, false)
	if err != nil {
		return err
	}
	run := func() error {
		c := cfg
		c.Contacts = emptySource(cs.nodes)
		_, err := sim.Run(c)
		return err
	}
	ns, err := perCall(t, p, "sim.setup", 3, run)
	if err != nil {
		return err
	}
	bytes, err := allocBytes(run)
	if err != nil {
		return err
	}
	r.set("sim.setup_ns_per_node", ns/float64(cs.nodes), "ns", 3)
	r.set("sim.setup_bytes_per_node", float64(bytes)/float64(cs.nodes), "B", 0)
	return nil
}

// probeKernel splits the kernel's per-contact cost by differential runs
// over one materialized Figure 4 trace, setup subtracted: a static
// scheme with almost no demand (meetings only), the same with the
// workload's demand (adds fulfilment), and QCR (adds policy work).
func probeKernel(s spec, t *tracer, p int, r *Result) error {
	sc := fig4Scenario(s)
	seed := s.repSeed(0)
	src, err := contact.NewHomogeneousReplayStream(sc.Nodes, sc.Mu, sc.Duration, seed, seed^0xabcdef)
	if err != nil {
		return err
	}
	tr, err := trace.Collect(src)
	if err != nil {
		return err
	}
	u := utility.Step{Tau: 10}
	mu := trace.EmpiricalRates(tr).Mean()
	quiet := sc
	quiet.DemandRate = 1e-9
	cfgOf := func(sc experiment.Scenario, scheme string) (sim.Config, error) {
		return schemeConfig(sc, scheme, u, mu, 0, nil, false)
	}
	type variant struct {
		name string
		sc   experiment.Scenario
		sch  string
	}
	variants := []variant{
		{"sim.kernel.setup", quiet, experiment.SchemeUNI},
		{"sim.kernel.meet", quiet, experiment.SchemeUNI},
		{"sim.kernel.fulfill", sc, experiment.SchemeUNI},
		{"sim.kernel.policy", sc, experiment.SchemeQCR},
	}
	ns := make([]float64, len(variants))
	var qcrCfg sim.Config
	for i, v := range variants {
		cfg, err := cfgOf(v.sc, v.sch)
		if err != nil {
			return err
		}
		if v.sch == experiment.SchemeQCR {
			qcrCfg = cfg
		}
		ns[i], err = perCall(t, p, v.name, 3, func() error {
			c := cfg
			if i == 0 {
				c.Contacts = emptySource(sc.Nodes)
			} else {
				c.Contacts = tr.Source()
			}
			_, err := sim.Run(c)
			return err
		})
		if err != nil {
			return err
		}
	}
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	qcrCfg.Contacts = tr.Source()
	if _, err := sim.Run(qcrCfg); err != nil {
		return err
	}
	runtime.ReadMemStats(&b)

	n := float64(len(tr.Contacts))
	r.set("sim.kernel.meet_ns_per_contact", (ns[1]-ns[0])/n, "ns", 3)
	r.set("sim.kernel.fulfill_ns_per_contact", (ns[2]-ns[1])/n, "ns", 3)
	r.set("sim.kernel.policy_ns_per_contact", (ns[3]-ns[2])/n, "ns", 3)
	r.set("sim.kernel.allocs_per_contact", float64(b.Mallocs-a.Mallocs)/n, "count", 0)
	return nil
}

// probeShards: the sharded executor at one and two shards on a tenth of
// the community-1m population.
func probeShards(s spec, t *tracer, p int, r *Result) error {
	_, mini := communitySizes(s)
	cs := mini
	cs.duration = 4
	m, err := communityModel(cs.nodes, cs.comms)
	if err != nil {
		return err
	}
	u := utility.Step{Tau: 10}
	var contacts int
	times := map[int]float64{}
	for _, shards := range []int{1, 2} {
		sc := communityScenario(cs, s.seed)
		sc.Shards = shards
		ns, err := perCall(t, p, "sim.structured_scale", 3, func() error {
			rep, err := sc.StructuredScale(u, m, communitySchemes, 0)
			if err == nil {
				contacts = rep.Contacts
			}
			return err
		})
		if err != nil {
			return err
		}
		times[shards] = ns
	}
	r.set("sim.shard_speedup", times[1]/times[2], "x", 3)
	r.set("sim.batch_ns_per_runner_contact", times[1]/float64(contacts*len(communitySchemes)), "ns", 3)
	return nil
}

// probeMeanfield drives the RK45 stepper over the hybrid-xh block
// system, built from the model's public accessors as the hybrid engine
// builds it, one controller window (a sixteenth of the horizon) at a
// time.
func probeMeanfield(s spec, t *tracer, p int, r *Result) error {
	cs, _ := hybridSize(s)
	m, err := communityModel(cs.nodes, cs.comms)
	if err != nil {
		return err
	}
	sc := hybridScenario(cs, 1, s.seed)
	u := utility.Power{Alpha: 0}
	c := m.Communities()
	sizes := make([]int, c)
	block := make([][]float64, c)
	dem := make([][]float64, c)
	pop := sc.Pop()
	for k := range sizes {
		sizes[k] = m.CommunitySize(k)
	}
	for k := range block {
		block[k] = make([]float64, c)
		for l := range block[k] {
			switch {
			case k != l:
				block[k][l] = m.RateAt(m.Member(k, 0), m.Member(l, 0))
			case sizes[k] > 1:
				block[k][l] = m.RateAt(m.Member(k, 0), m.Member(k, 1))
			}
		}
		dem[k] = make([]float64, len(pop.Rates))
		for i, d := range pop.Rates {
			dem[k][i] = d * float64(sizes[k]) / float64(m.Nodes())
		}
	}
	b := meanfield.BlockSystem{Utility: u, Sizes: sizes, Block: block, Demand: dem, Rho: sc.Rho,
		PsiScale: reactionScale(sc, u, m.MeanPairRate())}
	st, err := b.Stepper(b.UniformStart(), 0, 0)
	if err != nil {
		return err
	}
	const windows = 16
	for w := 1; w <= windows; w++ {
		target := sc.Duration * float64(w) / windows
		if err := t.span("meanfield.window", p, w, func(int) error { return st.AdvanceTo(target) }); err != nil {
			return err
		}
	}
	var total float64
	for _, d := range lastDurations(t, "meanfield.window", windows) {
		total += d
	}
	rk := st.Stats()
	r.set("meanfield.rk45_ms_per_window", total/1e6/windows, "ms", windows)
	r.set("meanfield.evals_per_window", float64(rk.Evals)/windows, "count", windows)
	r.set("meanfield.ns_per_eval", total/float64(rk.Evals), "ns", rk.Evals)
	r.set("meanfield.accepted_frac", float64(rk.Steps)/float64(rk.Steps+rk.Rejected), "ratio", rk.Steps+rk.Rejected)
	return nil
}

// probeServe replays the aged request path in process: the steady mix
// for the per-window layers (no solver) and the allocation body a query
// encodes, the flash mix for the solver, and the steady windows over
// HTTP for what the listener adds to an observe.
func probeServe(s spec, t *tracer, p int, r *Result) error {
	cfg := agedConfig(s)
	nSteady, nFlash := agedReplayWindows(s, steadyMix), agedReplayWindows(s, flashMix)
	steady := windowBodies(steadyMix, cfg.Items, s.seed)
	st, _, err := replayWindows(cfg, steady, nSteady, t, p, "serve.steady")
	if err != nil {
		return err
	}
	layer := func(name string) float64 { return median(lastDurations(t, name, nSteady)) / 1e3 }
	dec, fold, drift, respond := layer("serve.decode"), layer("serve.fold"), layer("serve.drift"), layer("serve.respond")
	enc, err := perCall(t, p, "serve.encode", nSteady, st.encodeAllocation)
	if err != nil {
		return err
	}
	rt, err := httpWindows(cfg, steady, nSteady)
	if err != nil {
		return err
	}

	flash := windowBodies(flashMix, cfg.Items, s.seed)
	st, _, err = replayWindows(cfg, flash, nFlash, t, p, "serve.flash")
	if err != nil {
		return err
	}
	stats := st.solver.Stats()
	warm, cold, err := waterfillLadder(cfg, st.solved, t, p)
	if err != nil {
		return err
	}

	r.set("serve.decode_us", dec, "us", nSteady)
	r.set("serve.fold_us", fold, "us", nSteady)
	r.set("serve.drift_us", drift, "us", nSteady)
	r.set("serve.encode_us", enc/1e3, "us", nSteady)
	r.set("serve.http_gap_us", median(rt)*1e6-(dec+fold+drift+respond), "us", nSteady)
	r.set("serve.warm_certified_frac", float64(stats.Warm)/float64(max(stats.Warm+stats.Fallback, 1)), "ratio", int(stats.Warm+stats.Fallback))
	r.set("numeric.waterfill_warm_ms", warm, "ms", 0)
	r.set("numeric.waterfill_cold_ms", cold, "ms", 0)
	return nil
}

// waterfillLadder times the cold water-fill and its warm start on the
// estimates the flash replay re-solved, each warm solve seeded from the
// previous estimate's solution as the daemon seeds it.
func waterfillLadder(cfg serve.Config, pops []demand.Popularity, t *tracer, p int) (warmMs, coldMs float64, err error) {
	f, err := utility.Parse(cfg.Utility)
	if err != nil {
		return 0, 0, err
	}
	problem := func(pop demand.Popularity) numeric.WaterFillProblem {
		caps := make([]float64, pop.Items())
		for i := range caps {
			caps[i] = float64(cfg.Servers)
		}
		return numeric.WaterFillProblem{Weights: pop.Rates, Caps: caps, Budget: float64(cfg.Servers * cfg.Rho),
			Deriv: func(x float64) float64 { return f.Phi(cfg.Mu, x) }}
	}
	const rungs = 5
	pops = pops[:min(len(pops), rungs+1)]
	x, err := numeric.WaterFill(problem(pops[0]))
	if err != nil {
		return 0, 0, err
	}
	lambda, err := numeric.RecoverLambda(problem(pops[0]), x)
	if err != nil {
		return 0, 0, err
	}
	for k, pop := range pops[1:] {
		prob := problem(pop)
		err := t.span("numeric.waterfill_warm", p, k, func(int) (err error) {
			x, lambda, err = numeric.WaterFillWarm(prob, &numeric.WarmState{Lambda: lambda, X: x})
			return err
		})
		if err != nil {
			return 0, 0, err
		}
		if err := t.span("numeric.waterfill_cold", p, k, func(int) error { _, err := numeric.WaterFill(prob); return err }); err != nil {
			return 0, 0, err
		}
	}
	n := len(pops) - 1
	return median(lastDurations(t, "numeric.waterfill_warm", n)) / 1e6, median(lastDurations(t, "numeric.waterfill_cold", n)) / 1e6, nil
}

// runtimeSnap is the process counters the runtime.* metrics difference.
type runtimeSnap struct {
	cpu   time.Duration
	gc    uint32
	pause uint64
	alloc uint64
}

func snapRuntime() runtimeSnap {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return runtimeSnap{
		cpu:   time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		gc:    ms.NumGC,
		pause: ms.PauseTotalNs,
		alloc: ms.TotalAlloc,
	}
}

func (a runtimeSnap) record(b runtimeSnap, r *Result) {
	r.set("runtime.cpu_s", (b.cpu - a.cpu).Seconds(), "s", 0)
	r.set("runtime.gc_cycles", float64(b.gc-a.gc), "count", 0)
	r.set("runtime.gc_pause_ms", float64(b.pause-a.pause)/1e6, "ms", 0)
	r.set("runtime.alloc_mb", float64(b.alloc-a.alloc)/(1<<20), "MB", 0)
}

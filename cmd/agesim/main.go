// Command agesim runs a single opportunistic-caching simulation and
// prints the realized utility, allocation and protocol statistics.
//
// Usage examples:
//
//	agesim -utility step:10 -scheme qcr -nodes 50 -items 50 -rho 5 -duration 5000
//	agesim -utility power:0 -scheme prop -trace conference
//	agesim -utility exp:0.1 -scheme opt -trace file -trace-file contacts.txt
//	agesim -scheme qcr -churn 0.001 -ploss 0.2 -pdrop 0.05 -mandate-ttl 80
//	agesim -scheme qcrh -dishonest-frac 0.2 -mult 25 -freerider-frac 0.1
//	agesim -scheme qcr -flash-crowd 500 -night-factor 0.1
//	agesim -scheme qcr -rates community:n=1000000,c=32,in=0.01,out=1e-6 -duration 1 -shards 4
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"impatience/internal/adversary"
	"impatience/internal/demand"
	"impatience/internal/experiment"
	"impatience/internal/faults"
	"impatience/internal/parallel"
	"impatience/internal/prof"
	"impatience/internal/rates"
	"impatience/internal/stats"
	"impatience/internal/synth"
	"impatience/internal/trace"
	"impatience/internal/utility"
	"impatience/internal/welfare"
)

// options collects every agesim flag.
type options struct {
	utilitySpec string
	scheme      string
	nodes       int
	items       int
	rho         int
	mu          float64
	omega       float64
	demandRate  float64
	duration    float64
	traceKind   string
	traceFile   string
	seed        uint64
	trials      int
	workers     int
	qcrScale    float64
	warmup      float64
	showAlloc   bool
	stream      bool
	ratesSpec   string
	shards      int
	hybrid      bool
	cpuProfile  string
	memProfile  string

	// Fault injection (internal/faults) and QCR hardening.
	churn       float64
	churnDown   float64
	ploss       float64
	pdrop       float64
	massCrash   float64
	massFrac    float64
	massDown    float64
	mandateTTL  float64
	retries     int
	faultScript string

	// Adversarial workload (internal/adversary) and nonstationarity.
	dishonestFrac float64
	mult          float64
	freeRiderFrac float64
	churnSchedule string
	flashCrowd    float64
	nightFactor   float64
	dayStart      float64
	dayEnd        float64
}

func main() {
	if err := run(parseOptions(os.Args[1:])); err != nil {
		fmt.Fprintln(os.Stderr, "agesim:", err)
		os.Exit(1)
	}
}

// parseOptions reads the command line into options; unset flags keep
// their defaults. A malformed command line exits with the usage text.
func parseOptions(args []string) options {
	var o options
	fs := flag.NewFlagSet(os.Args[0], flag.ExitOnError)
	fs.StringVar(&o.utilitySpec, "utility", "step:10", "delay-utility spec: step:τ, exp:ν, power:α, neglog")
	fs.StringVar(&o.scheme, "scheme", "qcr", "replication scheme: qcr, qcrh, qcrwom, opt, uni, sqrt, prop, dom")
	fs.IntVar(&o.nodes, "nodes", 50, "number of nodes (pure P2P population)")
	fs.IntVar(&o.items, "items", 50, "catalog size")
	fs.IntVar(&o.rho, "rho", 5, "cache slots per node")
	fs.Float64Var(&o.mu, "mu", 0.05, "pairwise contact rate (homogeneous trace)")
	fs.Float64Var(&o.omega, "omega", 1, "Pareto popularity exponent")
	fs.Float64Var(&o.demandRate, "demand", 2, "aggregate request rate per minute")
	fs.Float64Var(&o.duration, "duration", 5000, "simulated minutes (homogeneous trace)")
	fs.StringVar(&o.traceKind, "trace", "homogeneous", "contact source: homogeneous, conference, vehicular, file")
	fs.StringVar(&o.traceFile, "trace-file", "", "trace file path when -trace file")
	fs.Uint64Var(&o.seed, "seed", 1, "random seed")
	fs.IntVar(&o.trials, "trials", 1, "independent trials to run and aggregate")
	fs.IntVar(&o.workers, "workers", 0, "trial worker pool size (0 = GOMAXPROCS); results are identical for any value")
	fs.Float64Var(&o.qcrScale, "qcr-scale", 0.1, "reaction-function scale")
	fs.Float64Var(&o.warmup, "warmup", 0.3, "fraction of the run excluded from averages")
	fs.BoolVar(&o.showAlloc, "show-alloc", false, "print the final per-item replica counts")
	fs.BoolVar(&o.stream, "stream", false, "fuse contact generation with the simulation (homogeneous QCR only): contacts are drawn lazily, never materialized")
	fs.StringVar(&o.ratesSpec, "rates", "", "structured rate model spec (community:n=...,c=...,in=...,out=... | hubspoke:... | distance:...); overrides -trace and -nodes, O(N + C²) state")
	fs.IntVar(&o.shards, "shards", 0, "partition the lockstep batch across this many workers (with -rates); results are bit-identical for any value")
	fs.BoolVar(&o.hybrid, "hybrid", false, "run the mean-field hybrid engine (with -rates): fluid communities plus an event-simulated probe boundary, demoting to full simulation when the error controller trips")
	fs.StringVar(&o.cpuProfile, "cpuprofile", "", "write a CPU profile to this file (go tool pprof agesim <file>)")
	fs.StringVar(&o.memProfile, "memprofile", "", "write a heap profile to this file on exit")
	fs.Float64Var(&o.churn, "churn", 0, "node crash rate (crashes per node-minute; 0 = off)")
	fs.Float64Var(&o.churnDown, "churn-down", 0, "mean downtime after a crash (minutes; 0 = 1/churn)")
	fs.Float64Var(&o.ploss, "ploss", 0, "probability a meeting's content-transfer phase fails")
	fs.Float64Var(&o.pdrop, "pdrop", 0, "probability a routed mandate is lost in flight")
	fs.Float64Var(&o.massCrash, "mass-crash", 0, "time of a correlated mass crash (minutes; 0 = off)")
	fs.Float64Var(&o.massFrac, "mass-frac", 0.5, "fraction of nodes hit by the mass crash")
	fs.Float64Var(&o.massDown, "mass-down", 0, "downtime after the mass crash (minutes)")
	fs.Float64Var(&o.mandateTTL, "mandate-ttl", 0, "mandate time-to-live (minutes; 0 = auto when faults are on)")
	fs.IntVar(&o.retries, "retries", 5, "content-transfer attempts per mandate before abandoning (0 = unbounded)")
	fs.StringVar(&o.faultScript, "fault-script", "", "file with a scripted fault timeline (\"<t> <node> down|up\" lines)")
	fs.Float64Var(&o.dishonestFrac, "dishonest-frac", 0, "fraction of nodes inflating their query counters (0 = off)")
	fs.Float64Var(&o.mult, "mult", 25, "counter multiplier applied by dishonest nodes (the MULT knob)")
	fs.Float64Var(&o.freeRiderFrac, "freerider-frac", 0, "fraction of nodes that consume but never serve, store, or carry mandates")
	fs.StringVar(&o.churnSchedule, "churn-schedule", "", "file with a popularity-churn schedule (\"<t> rotate|swap|zipf|uniform ...\" lines)")
	fs.Float64Var(&o.flashCrowd, "flash-crowd", 0, "rotate the popularity ranking by one every this many minutes (0 = off)")
	fs.Float64Var(&o.nightFactor, "night-factor", 1, "night contact-activity factor in (0,1]; < 1 imposes a day/night profile by time change")
	fs.Float64Var(&o.dayStart, "day-start", 480, "day window start (minute of day) for -night-factor")
	fs.Float64Var(&o.dayEnd, "day-end", 1200, "day window end (minute of day) for -night-factor")
	fs.Parse(args)
	return o
}

// faultPlan translates the fault and adversary flags into an
// experiment.FaultPlan, or nil when every fault and misbehavior class is
// off (the simulator is then bit-identical to a build without either
// layer).
func (o options) faultPlan() (*experiment.FaultPlan, error) {
	fc := &faults.Config{
		ChurnRate:     o.churn,
		MeanDowntime:  o.churnDown,
		PLoss:         o.ploss,
		PDrop:         o.pdrop,
		MassCrashTime: o.massCrash,
		MassCrashFrac: o.massFrac,
		Seed:          o.seed ^ 0xfa17,
	}
	if o.massCrash > 0 {
		fc.MassDowntime = o.massDown
	}
	if o.faultScript != "" {
		f, err := os.Open(o.faultScript)
		if err != nil {
			return nil, err
		}
		evs, err := faults.ParseTimeline(f)
		f.Close()
		if err != nil {
			return nil, err
		}
		fc.Script = evs
	}
	ac, err := o.adversaryConfig()
	if err != nil {
		return nil, err
	}
	if !fc.Enabled() && o.mandateTTL == 0 {
		if ac == nil {
			return nil, nil
		}
		// Adversaries without faults: no mandate hardening, so the run
		// matches the experiment layer's adversary sweeps exactly.
		return &experiment.FaultPlan{Adversary: ac}, nil
	}
	ttl := o.mandateTTL
	if ttl == 0 {
		ttl = 4 / o.mu
	}
	if !fc.Enabled() {
		fc = nil
	}
	return &experiment.FaultPlan{Faults: fc, Adversary: ac, MandateTTL: ttl, MaxAttempts: o.retries}, nil
}

// adversaryConfig translates the misbehavior flags into an
// adversary.Config, or nil when every class is off.
func (o options) adversaryConfig() (*adversary.Config, error) {
	ac := &adversary.Config{
		DishonestFrac: o.dishonestFrac,
		Mult:          o.mult,
		FreeRiderFrac: o.freeRiderFrac,
		Seed:          o.seed ^ 0xadbad,
	}
	if o.churnSchedule != "" && o.flashCrowd > 0 {
		return nil, fmt.Errorf("-churn-schedule and -flash-crowd are mutually exclusive")
	}
	pop := demand.Pareto(o.items, o.omega, o.demandRate)
	switch {
	case o.churnSchedule != "":
		f, err := os.Open(o.churnSchedule)
		if err != nil {
			return nil, err
		}
		s, err := demand.ParseSchedule(f, pop)
		f.Close()
		if err != nil {
			return nil, err
		}
		ac.Schedule = s
	case o.flashCrowd > 0:
		s, err := synth.FlashCrowd(pop, o.flashCrowd, o.duration, 1)
		if err != nil {
			return nil, err
		}
		ac.Schedule = s
	}
	if !ac.Enabled() {
		return nil, nil
	}
	return ac, nil
}

// modulated imposes the day/night activity profile on a materialized
// trace by streaming it through adversary.Modulate and re-collecting the
// time-changed contacts. The identity profile (-night-factor 1) returns
// the trace untouched.
func (o options) modulated(tr *trace.Trace) (*trace.Trace, error) {
	if o.nightFactor == 1 {
		return tr, nil
	}
	src, err := adversary.DayNight(tr.Source(), o.dayStart, o.dayEnd, o.nightFactor)
	if err != nil {
		return nil, err
	}
	return trace.Collect(src)
}

func run(o options) error {
	u, err := utility.Parse(o.utilitySpec)
	if err != nil {
		return err
	}
	stop, err := prof.Start(o.cpuProfile, o.memProfile)
	if err != nil {
		return err
	}
	defer func() {
		if err := stop(); err != nil {
			fmt.Fprintln(os.Stderr, "agesim: profile:", err)
		}
	}()

	sc := experiment.Scenario{
		Nodes: o.nodes, Items: o.items, Rho: o.rho, Mu: o.mu, Omega: o.omega,
		DemandRate: o.demandRate, Duration: o.duration, Trials: o.trials, Seed: o.seed,
		Workers: o.workers, QCRScale: o.qcrScale, WarmupFrac: o.warmup,
	}
	if o.ratesSpec != "" {
		return runStructured(o, u, sc)
	}
	if o.hybrid {
		return fmt.Errorf("-hybrid requires -rates (the fluid limit needs a structured rate model)")
	}
	if o.stream {
		return runStream(o, u, sc)
	}
	if o.trials > 1 {
		return runTrials(o, u, sc)
	}

	// The single trial draws its trace from the same generator as
	// -trials N, seeded with -seed.
	gen, nodes, err := o.traceGen(sc)
	if err != nil {
		return err
	}
	if nodes != o.nodes {
		fmt.Printf("note: trace has %d nodes; overriding -nodes\n", nodes)
		sc.Nodes, o.nodes = nodes, nodes
	}
	tr, err := gen(o.seed)
	if err != nil {
		return err
	}
	sc.Duration = tr.Duration

	rates := trace.EmpiricalRates(tr)
	muEff := rates.Mean()
	if muEff <= 0 {
		return fmt.Errorf("trace has no contacts")
	}

	schemeName, err := canonicalScheme(o.scheme)
	if err != nil {
		return err
	}
	plan, err := o.faultPlan()
	if err != nil {
		return err
	}
	results, err := sc.RunSchemesBatch([]string{schemeName}, u, tr.Source(), 0, 0, false, plan)
	if err != nil {
		return err
	}
	res := results[0]

	fmt.Printf("scheme          %s\n", schemeName)
	fmt.Printf("utility         %s\n", u.Name())
	fmt.Printf("trace           %s: %d nodes, %.0f min, %d contacts (mean pair rate %.5f/min)\n",
		o.traceKind, tr.Nodes, tr.Duration, len(tr.Contacts), muEff)
	fmt.Printf("population      pure P2P, ρ=%d, %d items, Pareto ω=%g, %.3g req/min\n", o.rho, o.items, o.omega, o.demandRate)
	fmt.Printf("avg utility     %.6g (gain per minute, after %.0f min warmup)\n", res.AvgUtilityRate, res.MeasureStart)
	fmt.Printf("fulfillments    %d (%d immediate), %d still outstanding\n", res.Fulfillments, res.Immediate, res.Outstanding)
	fmt.Printf("replicas made   %d over %d meetings\n", res.ReplicasMade, res.Meetings)
	if t := res.Faults; t != nil {
		fmt.Printf("faults          %d crashes / %d rejoins, %d contacts skipped, %d meetings truncated, %d arrivals dropped\n",
			t.Crashes, t.Rejoins, t.SkippedContacts, t.TruncatedMeetings, t.DroppedArrivals)
		fmt.Printf("fault losses    %d replicas wiped (%d sticky), %d open requests, %d pending mandates\n",
			t.ReplicasLost, t.StickyLost, t.RequestsLost, t.MandatesCrashed)
		fmt.Printf("hardening       %d mandates dropped in flight, %d expired, %d abandoned, %d sticky re-seeded\n",
			t.MandatesDropped, t.MandatesExpired, t.MandatesAbandoned, t.StickyReseeded)
	}
	if t := res.Adversary; t != nil {
		fmt.Printf("adversary       %d dishonest / %d free-riders; %d reports inflated, %d serves refused, %d writes refused, %d reactions suppressed, %d demand shifts\n",
			t.DishonestNodes, t.FreeRiders, t.InflatedReports, t.RefusedServes, t.RefusedWrites, t.SuppressedReactions, t.DemandShifts)
		if t.CountersCapped > 0 || t.ReactionsClamped > 0 {
			fmt.Printf("defense         %d counters capped, %d reactions clamped by the hardened reaction\n",
				t.CountersCapped, t.ReactionsClamped)
		}
	}

	// Analytic reference under the memoryless homogeneous approximation.
	pop := demand.Pareto(o.items, o.omega, o.demandRate)
	hom := welfare.Homogeneous{
		Utility: u, Pop: pop, Mu: muEff, Servers: o.nodes, Clients: o.nodes, PureP2P: true,
	}
	if opt, err := hom.GreedyOptimal(o.rho); err == nil {
		fmt.Printf("analytic U_opt  %.6g (homogeneous memoryless approximation)\n", hom.WelfareCounts(opt))
	}
	if o.showAlloc {
		fmt.Printf("final counts    %v\n", res.FinalCounts)
	}
	return nil
}

// runStructured is the -rates path: contacts come from a structured
// heterogeneous rate model (community, hub-spoke, or distance-kernel)
// through the group-decomposed sampler, and the simulation runs on the
// sharded lockstep executor. Nothing O(N²) is ever built — no empirical
// rate matrix (the ψ plug-in rate is the model's mean pair rate), no
// materialized trace — which is what admits N ≥ 10⁶. OPT is therefore
// unavailable here, and the fault/adversary layers are not yet wired
// through this path.
func runStructured(o options, u utility.Function, sc experiment.Scenario) error {
	if o.stream {
		return fmt.Errorf("-rates and -stream are mutually exclusive (-rates already streams)")
	}
	if o.traceKind != "homogeneous" || o.traceFile != "" {
		return fmt.Errorf("-rates replaces -trace (got -trace %q)", o.traceKind)
	}
	if plan, err := o.faultPlan(); err != nil {
		return err
	} else if plan != nil {
		return fmt.Errorf("fault and adversary flags are not supported with -rates yet")
	}
	scheme, err := canonicalScheme(o.scheme)
	if err != nil {
		return err
	}
	m, err := rates.ParseRates(o.ratesSpec)
	if err != nil {
		return err
	}
	if m.Nodes() != o.nodes && o.nodes != 50 {
		fmt.Printf("note: rate model has %d nodes; overriding -nodes\n", m.Nodes())
	}
	sc.Nodes = m.Nodes()
	sc.Shards = o.shards
	sc.Hybrid.Enabled = o.hybrid

	if o.trials > 1 {
		cmp, err := sc.RunStructuredComparison(u, m, []string{scheme})
		if err != nil {
			return err
		}
		sum := cmp.Utility[scheme]
		engine := fmt.Sprintf("structured rates, %d shards", o.shards)
		if o.hybrid {
			engine = "structured rates, hybrid mean-field engine"
		}
		fmt.Printf("scheme          %s (%s)\n", scheme, engine)
		fmt.Printf("utility         %s\n", u.Name())
		fmt.Printf("rate model      %s: %d nodes, %d communities, mean pair rate %.3g/min\n",
			o.ratesSpec, m.Nodes(), m.Communities(), m.MeanPairRate())
		fmt.Printf("trials          %d over %d workers\n", sc.Trials, parallel.Workers(sc.Workers))
		fmt.Printf("avg utility     %.6g (mean across trials; p5 %.6g, p95 %.6g)\n", sum.Mean, sum.P5, sum.P95)
		return nil
	}

	rep, err := sc.StructuredScale(u, m, []string{scheme}, 0)
	if err != nil {
		return err
	}
	engine := "structured rates, sharded lockstep"
	if rep.Hybrid {
		engine = "structured rates, hybrid mean-field engine"
	}
	fmt.Printf("scheme          %s (%s)\n", scheme, engine)
	fmt.Printf("utility         %s\n", u.Name())
	fmt.Printf("rate model      %s: %d nodes, %d communities, mean pair rate %.3g/min\n",
		o.ratesSpec, rep.Nodes, rep.Communities, rep.MeanPairRate)
	fmt.Printf("contacts        %d streamed over %.0f min, %d shards\n",
		rep.Contacts, rep.Duration, rep.Shards)
	fmt.Printf("avg utility     %.6g (gain per minute)\n", rep.AvgUtility[0])
	fmt.Printf("fulfillments    %d\n", rep.Fulfillments)
	fmt.Printf("peak heap       %.1f MB (O(N + C²) state; a dense rate matrix alone would be %.1f MB)\n",
		float64(rep.PeakHeapBytes)/1e6, 8*float64(rep.Nodes)*float64(rep.Nodes)/1e6)
	if rep.Hybrid {
		fmt.Printf("hybrid          %.1f%% of the population on the fluid, %d demotions to full simulation\n",
			100*rep.FluidFraction, rep.Demotions)
	}
	fmt.Printf("digest family   %#016x (bit-identical at every -shards value)\n", rep.DigestFamily)
	return nil
}

// runStream is the -stream path: contact generation fuses with the
// simulation through the trace.Source seam, so the contact list is never
// materialized and the run's heap stays at the generator's O(N²) rate
// state. This is how production-scale populations (N in the thousands)
// run on a laptop — see TestStreamingScaleSmoke in internal/experiment
// for the metered N = 5000 run.
func runStream(o options, u utility.Function, sc experiment.Scenario) error {
	if o.traceKind != "homogeneous" {
		return fmt.Errorf("-stream supports only -trace homogeneous (got %q)", o.traceKind)
	}
	if s, err := canonicalScheme(o.scheme); err != nil || s != experiment.SchemeQCR {
		return fmt.Errorf("-stream supports only -scheme qcr (got %q)", o.scheme)
	}
	if o.trials > 1 {
		return fmt.Errorf("-stream runs a single trial (got -trials %d)", o.trials)
	}
	rep, err := sc.StreamingScale(u, 0)
	if err != nil {
		return err
	}
	fmt.Printf("scheme          %s (fused streaming pipeline)\n", experiment.SchemeQCR)
	fmt.Printf("utility         %s\n", u.Name())
	fmt.Printf("contacts        %d streamed over %d nodes, %.0f min (µ=%g/min)\n",
		rep.Contacts, rep.Nodes, rep.Duration, o.mu)
	fmt.Printf("avg utility     %.6g (gain per minute)\n", rep.AvgUtilityRate)
	fmt.Printf("fulfillments    %d over %d meetings\n", rep.Fulfillments, rep.Meetings)
	fmt.Printf("peak heap       %.1f MB streamed vs %.1f MB materialized contact list alone\n",
		float64(rep.PeakHeapBytes)/1e6, float64(rep.MaterializedBytes)/1e6)
	return nil
}

// traceGen builds the per-trial trace generator for -trials > 1. A trace
// file is loaded once and shared; the synthetic kinds draw a fresh trace
// per trial from the engine-provided seed. The day/night profile, when
// on, is imposed on every trial's trace.
func (o options) traceGen(sc experiment.Scenario) (experiment.TraceGen, int, error) {
	gen, nodes, err := o.baseTraceGen(sc)
	if err != nil || o.nightFactor == 1 {
		return gen, nodes, err
	}
	return func(seed uint64) (*trace.Trace, error) {
		tr, err := gen(seed)
		if err != nil {
			return nil, err
		}
		return o.modulated(tr)
	}, nodes, nil
}

// homogeneousTraces materializes the scenario's homogeneous contact
// streams: the synthetic trace kinds and trace files share one
// materialized path (day/night modulation, the contact count report).
func homogeneousTraces(sc experiment.Scenario) experiment.TraceGen {
	return func(seed uint64) (*trace.Trace, error) {
		src, err := sc.HomogeneousSources()(seed)
		if err != nil {
			return nil, err
		}
		return trace.Collect(src)
	}
}

func (o options) baseTraceGen(sc experiment.Scenario) (experiment.TraceGen, int, error) {
	switch o.traceKind {
	case "homogeneous":
		return homogeneousTraces(sc), o.nodes, nil
	case "conference":
		cfg := synth.DefaultConference()
		cfg.Nodes = o.nodes
		return experiment.ConferenceTraces(cfg), o.nodes, nil
	case "vehicular":
		cfg := synth.DefaultVehicular()
		cfg.Cabs = o.nodes
		return experiment.VehicularTraces(cfg), o.nodes, nil
	case "file":
		if o.traceFile == "" {
			return nil, 0, fmt.Errorf("-trace file requires -trace-file")
		}
		tr, err := trace.Load(o.traceFile)
		if err != nil {
			return nil, 0, err
		}
		return func(uint64) (*trace.Trace, error) { return tr, nil }, tr.Nodes, nil
	default:
		return nil, 0, fmt.Errorf("unknown trace kind %q", o.traceKind)
	}
}

// runTrials is the -trials N path: run the scheme over N independent
// trials on the parallel trial engine and report aggregate statistics.
func runTrials(o options, u utility.Function, sc experiment.Scenario) error {
	schemeName, err := canonicalScheme(o.scheme)
	if err != nil {
		return err
	}
	gen, nodes, err := o.traceGen(sc)
	if err != nil {
		return err
	}
	sc.Nodes = nodes
	plan, err := o.faultPlan()
	if err != nil {
		return err
	}
	type out struct {
		util        float64
		fulfilled   int
		outstanding int
	}
	results, err := parallel.RunTrials(sc.Trials, sc.Workers, sc.Seed, func(trial int, seed uint64) (out, error) {
		tr, err := gen(seed)
		if err != nil {
			return out{}, err
		}
		s := sc
		s.Duration = tr.Duration
		results, err := s.RunSchemesBatch([]string{schemeName}, u, tr.Source(), 0, uint64(trial), false, plan)
		if err != nil {
			return out{}, err
		}
		res := results[0]
		return out{util: res.AvgUtilityRate, fulfilled: res.Fulfillments, outstanding: res.Outstanding}, nil
	})
	if err != nil {
		return err
	}
	utils := make([]float64, len(results))
	var fulfilled, outstanding int
	for i, r := range results {
		utils[i] = r.util
		fulfilled += r.fulfilled
		outstanding += r.outstanding
	}
	sum := stats.Summarize(utils)
	fmt.Printf("scheme          %s\n", schemeName)
	fmt.Printf("utility         %s\n", u.Name())
	fmt.Printf("trials          %d over %d workers\n", sc.Trials, parallel.Workers(sc.Workers))
	fmt.Printf("avg utility     %.6g (mean across trials; p5 %.6g, p95 %.6g)\n", sum.Mean, sum.P5, sum.P95)
	fmt.Printf("fulfillments    %.1f per trial, %.1f still outstanding\n",
		float64(fulfilled)/float64(len(results)), float64(outstanding)/float64(len(results)))
	return nil
}

func canonicalScheme(s string) (string, error) {
	switch strings.ToLower(s) {
	case "qcr":
		return experiment.SchemeQCR, nil
	case "qcrh", "qcr-hardened":
		return experiment.SchemeQCRH, nil
	case "qcrwom", "qcr-no-routing":
		return experiment.SchemeQCRWOM, nil
	case "opt":
		return experiment.SchemeOPT, nil
	case "uni":
		return experiment.SchemeUNI, nil
	case "sqrt":
		return experiment.SchemeSQRT, nil
	case "prop":
		return experiment.SchemePROP, nil
	case "dom":
		return experiment.SchemeDOM, nil
	default:
		return "", fmt.Errorf("unknown scheme %q", s)
	}
}

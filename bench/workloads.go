package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"time"

	"impatience/internal/contact"
	"impatience/internal/demand"
	"impatience/internal/experiment"
	"impatience/internal/parallel"
	"impatience/internal/plot"
	"impatience/internal/rates"
	"impatience/internal/sim"
	"impatience/internal/trace"
	"impatience/internal/utility"
	"impatience/internal/welfare"
)

// workers bounds every worker pool, shard set and connection set the
// benchmark uses, so load comes from one process on two cores.
const workers = 2

// spec is what a workload run is given: the seed its inputs derive from,
// how long to measure, and whether to use the miniature sizes the tests
// run.
type spec struct {
	seed    uint64
	seconds float64
	mini    bool
}

// repSeed derives the input seed of one repetition.
func (s spec) repSeed(rep int) uint64 { return parallel.TrialSeed(s.seed, rep) }

// workload is one named input set; why each was chosen is in
// BENCHMARK.json and README.md. run measures it with tracing off and
// fills the end-to-end metrics; replay re-issues the same inputs as
// traced calls into the layer functions.
type workload struct {
	name   string
	run    func(s spec, r *Result) error
	replay func(s spec, t *tracer, r *Result) (replayed, error)
}

var workloads = []workload{
	{"fig4-step", runFig4, replayFig4},
	{"community-1m", runCommunity, replayCommunity},
	{"hybrid-xh", runHybrid, replayHybrid},
	{"aged-flash", runAgedFlash, replayAgedFlash},
	{"aged-steady", runAgedSteady, replayAgedSteady},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// repeatOp runs op until the run's time is spent and returns each call's
// duration in seconds. It stops early rather than start a call expected
// to overrun the budget by more than half its length, and always makes
// at least minReps calls.
func repeatOp(seconds float64, minReps int, op func(rep int) error) ([]float64, error) {
	var ds []float64
	start := time.Now()
	for rep := 0; ; rep++ {
		if rep >= minReps {
			el := time.Since(start).Seconds()
			if el >= seconds || el+ds[len(ds)-1]/2 > seconds {
				return ds, nil
			}
		}
		runtime.GC()
		t0 := time.Now()
		if err := op(rep); err != nil {
			return ds, fmt.Errorf("rep %d: %w", rep, err)
		}
		ds = append(ds, time.Since(t0).Seconds())
	}
}

// timeEach runs f n times and returns each call's duration in seconds.
func timeEach(n int, f func(i int) error) ([]float64, error) {
	ds := make([]float64, n)
	for i := range ds {
		runtime.GC()
		t0 := time.Now()
		if err := f(i); err != nil {
			return nil, err
		}
		ds[i] = time.Since(t0).Seconds()
	}
	return ds, nil
}

// heapPeak samples the bytes held by heap objects, live and garbage,
// every 2 ms until stopped.
type heapPeak struct {
	stop chan struct{}
	done chan uint64
}

func startHeapPeak() *heapPeak {
	h := &heapPeak{stop: make(chan struct{}), done: make(chan uint64, 1)}
	go func() {
		s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		var peak uint64
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(s)
			peak = max(peak, s[0].Value.Uint64())
			select {
			case <-h.stop:
				h.done <- peak
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// record stops the sampler and records the process's peak resident set
// (declared) and the sampled heap peak (an extra). The resident set
// includes the runtime's own memory, so garbage-collection timing moves
// it far less than the heap peak of a small heap.
func (h *heapPeak) record(r *Result) error {
	close(h.stop)
	r.extra("peak_heap_mb", float64(<-h.done)/(1<<20), "MB", 0)
	rss, err := peakRSS()
	if err != nil {
		return err
	}
	r.set("peak_rss_mb", rss, "MB", 0)
	return nil
}

// peakRSS reads the process's peak resident set size (VmHWM) in MiB.
func peakRSS() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// recordTimes records the median setup and op durations.
func recordTimes(r *Result, setup, ops []float64) {
	r.set("setup_s", median(setup), "s", len(setup))
	r.set("op_p50_ms", 1000*median(ops), "ms", len(ops))
	r.extra("wall_s", median(ops), "s", len(ops))
}

// ---- fig4-step ----

// fig4Scenario is the paper's evaluation scenario (N=50, 50 items, ρ=5,
// µ=0.05, Pareto ω=1, 2 req/min, T=5000) with two trials per repetition
// run by two workers; a run's repetitions together cover the paper's
// trial count.
func fig4Scenario(s spec) experiment.Scenario {
	sc := experiment.Default()
	sc.Trials = 2
	sc.Workers = workers
	if s.mini {
		sc.Nodes, sc.Items, sc.Rho, sc.Duration, sc.Trials = 12, 10, 2, 300, 1
	}
	return sc
}

// fig4Taus is the τ sweep of Figure 4 (right): 7 values log-spaced over
// [1, 1000], as Figure4Step draws them.
func fig4Taus() []float64 {
	taus := make([]float64, 7)
	la, lb := math.Log(1), math.Log(1000)
	for i := range taus {
		taus[i] = math.Exp(la + (lb-la)*float64(i)/float64(len(taus)-1))
	}
	return taus
}

// fig4TrialInputs prepares one trial's inputs the way the figure does
// before any scheme runs: the contact stream, its empirical rates, and
// the OPT placement from the submodular greedy.
func fig4TrialInputs(sc experiment.Scenario, seed uint64, tau float64) error {
	src, err := contact.NewHomogeneousReplayStream(sc.Nodes, sc.Mu, sc.Duration, seed, seed^0xabcdef)
	if err != nil {
		return err
	}
	rm, err := trace.EmpiricalRatesFrom(src)
	if err != nil {
		return err
	}
	_, err = optHetero(sc, utility.Step{Tau: tau}, rm).GreedySubmodular(sc.Rho)
	return err
}

func optHetero(sc experiment.Scenario, u utility.Function, rm *trace.RateMatrix) welfare.Hetero {
	ids := make([]int, sc.Nodes)
	for i := range ids {
		ids[i] = i
	}
	return welfare.Hetero{
		Utility: u,
		Pop:     sc.Pop(),
		Profile: demand.UniformProfile(sc.Items, sc.Nodes),
		Rates:   rm,
		Clients: ids,
		Servers: ids,
	}
}

func column(t *plot.Table, name string) []float64 {
	for _, c := range t.Columns {
		if c.Name == name {
			return c.Y
		}
	}
	return nil
}

// runFig4 regenerates the figure τ by τ through RunComparison, which is
// what Figure4Step's sweep runs, so each τ is its own timed section and
// OPT's loss, which the figure's table drops, can be checked.
func runFig4(s spec, r *Result) error {
	sc := fig4Scenario(s)
	schemes := append([]string{experiment.SchemeQCR}, experiment.AllCompetitors...)
	taus := fig4Taus()
	peak := startHeapPeak()
	setup, err := timeEach(15, func(i int) error {
		return fig4TrialInputs(sc, s.repSeed(1000+i), 10)
	})
	if err != nil {
		return err
	}

	qcr, uni := make([]float64, len(taus)), make([]float64, len(taus))
	nonFinite, optNonZero := 0, 0
	ops, err := repeatOp(s.seconds, 3, func(rep int) error {
		sc.Seed = s.repSeed(rep)
		for i, tau := range taus {
			cmp, err := sc.RunComparison(utility.Step{Tau: tau}, sc.HomogeneousSources(), schemes)
			if err != nil {
				return err
			}
			r.Attempted += sc.Trials
			for _, l := range cmp.Loss {
				if math.IsNaN(l.Mean) || math.IsInf(l.Mean, 0) {
					nonFinite++
				}
			}
			if o := cmp.Loss[experiment.SchemeOPT]; o.Mean != 0 || o.P5 != 0 || o.P95 != 0 {
				optNonZero++
			}
			qcr[i] += cmp.Loss[experiment.SchemeQCR].Mean
			uni[i] += cmp.Loss[experiment.SchemeUNI].Mean
		}
		return nil
	})
	if err != nil {
		return err
	}
	if err := peak.record(r); err != nil {
		return err
	}
	for i := range taus {
		qcr[i] /= float64(len(ops))
		uni[i] /= float64(len(ops))
	}
	r.gate("every loss finite", nonFinite == 0, "%d not finite", nonFinite)
	r.gate("OPT loss is 0", optNonZero == 0, "%d comparisons with a non-zero OPT loss", optNonZero)
	qcrMean, uniMean := mean(qcr), mean(uni)
	r.gate("QCR mean loss >= UNI mean loss", qcrMean >= uniMean, "QCR %.3f%% UNI %.3f%%", qcrMean, uniMean)
	worst := 0.0
	for _, v := range qcr {
		worst = max(worst, math.Abs(v))
	}
	// QCR needs the paper's horizon to converge; the miniature only
	// exercises the code, so its limit is loose.
	limit := 20.0
	if s.mini {
		limit = 50
	}
	r.gate(fmt.Sprintf("|QCR loss| <= %g%% at every tau", limit), worst <= limit, "worst %.3f%%", worst)

	contacts := float64(trace.NumPairs(sc.Nodes)) * sc.Mu * sc.Duration // expected per trial
	work := contacts * float64(sc.Trials*len(taus)*len(schemes))
	recordTimes(r, setup, ops)
	r.set("work_per_s", work*float64(len(ops))/sum(ops), "1/s", len(ops))
	r.extra("contacts_per_s", work/median(ops), "1/s", len(ops))
	r.extra("qcr_loss_pct", qcrMean, "%", len(ops)*sc.Trials)
	r.extra("uni_loss_pct", uniMean, "%", len(ops)*sc.Trials)
	return nil
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

func mean(xs []float64) float64 { return sum(xs) / float64(len(xs)) }

// ---- community-1m ----

// perNodeRate is the paper scenario's contact intensity per node
// (µ=0.05 × 49 peers), held fixed as N grows.
const perNodeRate = 2.45

type communitySize struct {
	nodes, comms, items, rho int
	duration                 float64
}

// communityModel splits each node's contact budget 70 % inside its
// community and 30 % across.
func communityModel(nodes, comms int) (*rates.Model, error) {
	per := nodes / comms
	return rates.NewCommunity(rates.CommunityConfig{
		Nodes:       nodes,
		Communities: comms,
		In:          0.7 * perNodeRate / float64(per-1),
		Out:         0.3 * perNodeRate / float64(nodes-per),
	})
}

func communitySizes(s spec) (full, miniature communitySize) {
	if s.mini {
		return communitySize{20_000, 32, 4, 2, 1}, communitySize{5_000, 8, 4, 2, 1}
	}
	return communitySize{1_000_000, 32, 4, 2, 4}, communitySize{100_000, 32, 4, 2, 0.5}
}

func communityScenario(cs communitySize, seed uint64) experiment.Scenario {
	sc := experiment.Default()
	sc.Nodes, sc.Items, sc.Rho, sc.Duration = cs.nodes, cs.items, cs.rho, cs.duration
	sc.DemandRate = 0.04 * float64(cs.nodes)
	sc.Trials, sc.Shards, sc.Seed = 1, workers, seed
	return sc
}

var communitySchemes = []string{experiment.SchemeQCR, experiment.SchemeUNI}

// setupDuration is a horizon short enough that a run is all setup.
const setupDuration = 1e-6

func runCommunity(s spec, r *Result) error {
	cs, mini := communitySizes(s)
	u := utility.Step{Tau: 10}

	// Before timing: the sharded executor must be bit-identical to the
	// serial one on a miniature of the workload.
	mm, err := communityModel(mini.nodes, mini.comms)
	if err != nil {
		return err
	}
	var fams [2]uint64
	for i, shards := range []int{1, 2} {
		sc := communityScenario(mini, s.seed)
		sc.Shards = shards
		rep, err := sc.StructuredScale(u, mm, communitySchemes, 0)
		if err != nil {
			return err
		}
		r.Attempted++
		fams[i] = rep.DigestFamily
	}
	r.gate("digest family equal at 1 and 2 shards", fams[0] == fams[1], "%#x vs %#x", fams[0], fams[1])

	peak := startHeapPeak()
	var m *rates.Model
	var runner []float64
	setup, err := timeEach(5, func(i int) error {
		var err error
		if m, err = communityModel(cs.nodes, cs.comms); err != nil {
			return err
		}
		t0 := time.Now()
		sc := communityScenario(cs, s.repSeed(1000+i))
		sc.Duration = setupDuration
		_, err = sc.StructuredScale(u, m, communitySchemes, 0)
		runner = append(runner, time.Since(t0).Seconds())
		return err
	})
	if err != nil {
		return err
	}
	runnerSetup := median(runner)

	// One untimed run: the first at this N pays the page faults of
	// growing the heap.
	if _, err := communityScenario(cs, s.seed).StructuredScale(u, m, communitySchemes, 0); err != nil {
		return err
	}
	var contacts []float64
	var fulfilled int
	ops, err := repeatOp(s.seconds, 3, func(rep int) error {
		out, err := communityScenario(cs, s.seed).StructuredScale(u, m, communitySchemes, uint64(rep+1))
		if err != nil {
			return err
		}
		r.Attempted++
		fulfilled += out.Fulfillments
		contacts = append(contacts, float64(out.Contacts))
		return nil
	})
	if err != nil {
		return err
	}
	if err := peak.record(r); err != nil {
		return err
	}
	r.gate("fulfilments > 0", fulfilled > 0, "%d", fulfilled)

	// work_per_s counts whole runs; the steady state excludes the runner
	// setup, whose subtraction makes it the noisier of the two.
	steady := make([]float64, len(contacts))
	for i, c := range contacts {
		steady[i] = c / max(ops[i]-runnerSetup, 1e-9)
	}
	recordTimes(r, setup, ops)
	r.set("work_per_s", sum(contacts)/sum(ops), "1/s", len(ops))
	r.extra("contacts_per_s", median(steady), "1/s", len(steady))
	r.extra("runner_setup_s", runnerSetup, "s", len(runner))
	return nil
}

// ---- hybrid-xh ----

func hybridSize(s spec) (communitySize, int) {
	if s.mini {
		return communitySize{4_000, 8, 8, 3, 200}, 1
	}
	return communitySize{100_000, 64, 32, 3, 2000}, 2
}

func hybridScenario(cs communitySize, trials int, seed uint64) experiment.Scenario {
	sc := communityScenario(cs, seed)
	sc.Trials, sc.Workers, sc.Shards = trials, workers, 0
	return sc
}

// hybridChecks reads a HybridFigure3 result: QCR's final expected
// utility against OPT's, and the per-trial fluid fraction and demotions.
func hybridChecks(tables []*plot.Table) (lossPct, minFluid float64, demotions int, err error) {
	if len(tables) < 4 {
		return 0, 0, 0, fmt.Errorf("hybrid figure returned %d tables", len(tables))
	}
	q, o := column(tables[0], experiment.SchemeQCR), column(tables[0], experiment.SchemeOPT)
	if len(q) == 0 || len(o) == 0 {
		return 0, 0, 0, fmt.Errorf("hybrid figure lacks QCR or OPT utility")
	}
	uq, uo := q[len(q)-1], o[len(o)-1]
	lossPct = 100 * (uq - uo) / math.Abs(uo)
	minFluid = math.Inf(1)
	for _, v := range column(tables[3], "fluid_fraction") {
		minFluid = min(minFluid, v)
	}
	for _, v := range column(tables[3], "demotions") {
		demotions += int(v)
	}
	return lossPct, minFluid, demotions, nil
}

// hybridSetup builds what a hybrid figure builds before the fluid state
// evolves: the homogeneous optimum its OPT line comes from and a hybrid
// run's probe set and fluid system, on a static scheme (which integrates
// nothing) over a horizon too short to simulate.
func hybridSetup(sc experiment.Scenario, m *rates.Model) error {
	u := utility.Power{Alpha: 0}
	mu := m.MeanPairRate()
	h := welfare.Homogeneous{Utility: u, Pop: sc.Pop(), Mu: mu, Servers: sc.Nodes, Clients: sc.Nodes, PureP2P: true}
	if _, err := h.GreedyOptimal(sc.Rho); err != nil {
		return err
	}
	cfg, err := schemeConfig(sc, experiment.SchemeUNI, u, mu, 0, nil, true)
	if err != nil {
		return err
	}
	hy := sc.Hybrid
	hy.ContactSeed = sc.Seed
	_, err = sim.RunHybrid(cfg, m, setupDuration, hy)
	return err
}

func runHybrid(s spec, r *Result) error {
	cs, trials := hybridSize(s)
	peak := startHeapPeak()
	var m *rates.Model
	setup, err := timeEach(7, func(i int) error {
		var err error
		if m, err = communityModel(cs.nodes, cs.comms); err != nil {
			return err
		}
		return hybridSetup(hybridScenario(cs, 1, s.repSeed(1000+i)), m)
	})
	if err != nil {
		return err
	}
	var losses []float64
	minFluid, demotions := math.Inf(1), 0
	ops, err := repeatOp(s.seconds, 3, func(rep int) error {
		tables, err := experiment.HybridFigure3(hybridScenario(cs, trials, s.repSeed(rep)), m)
		if err != nil {
			return err
		}
		r.Attempted += trials
		loss, fluid, demoted, err := hybridChecks(tables)
		if err != nil {
			return err
		}
		minFluid, demotions = min(minFluid, fluid), demotions+demoted
		losses = append(losses, loss)
		return nil
	})
	if err != nil {
		return err
	}
	if err := peak.record(r); err != nil {
		return err
	}
	r.gate("fluid fraction > 0.9 in every trial", minFluid > 0.9, "min %.4f", minFluid)
	r.gate("zero demotions", demotions == 0, "%d", demotions)

	work := float64(cs.nodes) * cs.duration * float64(trials*2)
	recordTimes(r, setup, ops)
	r.set("work_per_s", work*float64(len(ops))/sum(ops), "1/s", len(ops))
	r.extra("qcr_loss_pct", mean(losses), "%", len(losses))
	return nil
}

// The hybrid-fidelity engine: large homogeneous sub-populations evolve
// by the block fluid limit (internal/meanfield, integrated with the
// adaptive Dormand–Prince stepper) while only a small boundary set of
// tagged measurement probes is event-simulated. The coupling runs both
// ways — probes see the fluid replica fractions as contact-success
// probabilities, and probe arrivals feed per-window demand estimates
// back into the ODE drift — and an error controller compares the
// probes' realized per-node gain rate against the fluid prediction each
// post-warmup window, demoting the whole run to full event simulation
// when the fluid stops tracking reality.
//
// Probes are cacheless virtual requesters: all cache mass lives in the
// fluid, and a probe's own cache is modeled probabilistically (an
// arrival is immediately fulfilled with probability x_ki/N_k, the
// chance a typical community-k node holds item i). A probe meets peers
// at the community meeting rate M_k; at a meeting the partner community
// is drawn ∝ β_kl·N_l and each open request is fulfilled with
// probability min(x_li/N_l, 1). Holding probabilities are evaluated
// against the fluid state synced at checkpoint times (≈ Window/16), so
// the event path never forces a mid-step ODE interpolation. Per-item
// success draws are independent Bernoulli — the mean-field
// approximation of the partner's ρ-slot cache.
//
// The engine refuses configurations whose dynamics the fluid cannot
// represent (faults, adversaries, dedicated servers, per-item
// utilities, pinned placements, non-uniform node weights, policies
// other than QCR/Static) by falling back to the full event simulation
// up front; the controller demotes mid-run divergence the same way,
// re-running the whole horizon at full fidelity so the returned result
// is never a splice of two regimes.

package sim

import (
	"errors"
	"fmt"
	"math"
	"math/rand/v2"

	"impatience/internal/alloc"
	"impatience/internal/core"
	"impatience/internal/meanfield"
	"impatience/internal/numeric"
	"impatience/internal/rates"
	"impatience/internal/stats"
)

// minWindowArrivals is the fewest probe request arrivals a window must
// see before the error controller checks it; below this the probe CI
// is too degenerate to distinguish "fluid is wrong" from "nothing
// happened yet".
const minWindowArrivals = 8

// Probe-set, feedback and error-controller constants.
const (
	// hybridBoundaryPerComm is the number of measurement probes per
	// community (at most the whole community).
	hybridBoundaryPerComm = 8
	// hybridMaxBoundary caps the total probe count: the event cost
	// scales with it, and the fluid speedup is the point.
	hybridMaxBoundary = 512
	// hybridFeedbackAlpha is the EWMA weight of the per-window demand
	// estimate fed back into the fluid drift.
	hybridFeedbackAlpha = 0.2
	// hybridWindows is the number of controller accounting windows per
	// run; fluid state syncs 16 times per window.
	hybridWindows = 16
	// hybridConf is the confidence level of the per-window probe
	// gain-rate CI.
	hybridConf = 0.95
	// hybridSlack and hybridFloor set the per-window tolerance
	// |probe mean − fluid prediction| ≤ slack·halfwidth + floor·|prediction|.
	// The floor keeps narrow CIs from tripping the controller on an
	// error the welfare summaries cannot resolve.
	hybridSlack = 3
	hybridFloor = 0.05
	// hybridBreach is the number of consecutive violating windows that
	// demote the run to full event simulation.
	hybridBreach = 2
)

// HybridOptions carries what a caller sets per run. The probe set, the
// demand feedback weight and the error controller's window, confidence,
// tolerance and breach count are package constants.
type HybridOptions struct {
	// Enabled marks the options as active; RunHybrid itself ignores it
	// (calling RunHybrid is the opt-in), but the experiment wiring uses
	// it to choose between the hybrid and full-fidelity paths.
	Enabled bool
	// ContactSeed seeds the probe event streams, and the sharded contact
	// source when the run falls back to full simulation.
	ContactSeed uint64
	// ReactionScale is the tuned QCR reaction scale (the simulator's
	// burst normalization); it becomes the fluid PsiScale so fluid and
	// event transients run on the same clock. 0 means 1.
	ReactionScale float64
}

// HybridTally reports what the hybrid engine did; Result.Hybrid is nil
// for runs that never went through RunHybrid, keeping their digests
// byte-identical to builds without the engine.
type HybridTally struct {
	FluidNodes    int     // nodes evolved by the fluid limit
	BoundaryNodes int     // event-simulated measurement probes
	Windows       int     // completed post-warmup controller windows
	Violations    int     // windows outside tolerance
	Demotions     int     // mid-run fidelity demotions (0 or 1)
	MaxErr        float64 // max relative |probe − fluid| over windows
	FluidFraction float64 // realized fluid node fraction (0 after fallback)
	FellBack      bool    // the result came from the full event path
	// Reason describes why the run fell back ("" when it did not). Like
	// the delay instrumentation, it is excluded from Result.Digest.
	Reason string
}

// ErrHybrid wraps every hybrid-engine configuration rejection.
var ErrHybrid = errors.New("sim: hybrid")

// hybridIneligible returns a human-readable reason the configuration
// must run at full fidelity, or "" when the fluid path applies.
func hybridIneligible(cfg *Config, m *rates.Model) string {
	switch {
	case cfg.Faults != nil && cfg.Faults.Enabled():
		return "fault injection enabled"
	case cfg.Adversary != nil && cfg.Adversary.Enabled():
		return "adversary layer enabled"
	case cfg.ServerCount != 0:
		return "dedicated-server population"
	case cfg.Utilities != nil:
		return "per-item delay-utilities"
	case cfg.InitialPlacement != nil:
		return "pinned item placement"
	case cfg.RecordDelays:
		return "per-item delay instrumentation"
	case !m.UniformWeights():
		return "non-uniform node weights"
	}
	switch cfg.Policy.(type) {
	case *core.QCR, core.Static:
		return ""
	default:
		return fmt.Sprintf("policy %q has no fluid limit here", cfg.Policy.Name())
	}
}

// hybridFallback runs the full event simulation over the model's
// sharded contact process and stamps the tally explaining why.
func hybridFallback(cfg Config, m *rates.Model, duration float64, hy HybridOptions, tally *HybridTally) (*Result, error) {
	src, err := rates.NewSharded(m, duration, hy.ContactSeed, 0)
	if err != nil {
		return nil, err
	}
	cfg.Contacts = src
	res, err := Run(cfg)
	if err != nil {
		return nil, err
	}
	tally.FellBack = true
	tally.FluidFraction = 0
	res.Hybrid = tally
	return res, nil
}

// RunHybrid simulates cfg over the structured rate model m for the
// given duration on the hybrid engine. The configuration must leave
// Contacts nil — the engine builds its own contact process (and, on
// fallback, the model's sharded source seeded by hy.ContactSeed) — and
// pass the simulator's own validation. The returned Result always
// carries a non-nil Hybrid tally.
func RunHybrid(cfg Config, m *rates.Model, duration float64, hy HybridOptions) (*Result, error) {
	if m == nil {
		return nil, fmt.Errorf("%w: nil rate model", ErrHybrid)
	}
	if duration <= 0 || math.IsNaN(duration) || math.IsInf(duration, 0) {
		return nil, fmt.Errorf("%w: duration %g", ErrHybrid, duration)
	}
	if cfg.Contacts != nil {
		return nil, fmt.Errorf("%w: the engine builds its own contact process; leave Contacts nil", ErrHybrid)
	}
	// validate normalizes the warmup fraction in place; the fallback gets
	// the caller's config, which Run validates (and normalizes) itself.
	norm := cfg
	if err := validate(&norm, m.Nodes()); err != nil {
		return nil, fmt.Errorf("%w: %w", ErrHybrid, err)
	}
	if reason := hybridIneligible(&norm, m); reason != "" {
		return hybridFallback(cfg, m, duration, hy, &HybridTally{Reason: reason})
	}
	h, err := newHybridRun(&norm, m, duration, hy)
	if err != nil {
		return nil, err
	}
	if err := h.drive(); err != nil {
		return nil, err
	}
	if h.demoted {
		h.tally.Demotions = 1
		return hybridFallback(cfg, m, duration, hy, h.tally)
	}
	h.finish()
	return h.res, nil
}

// hybridRun is the live state of one fluid-path run.
type hybridRun struct {
	cfg      *Config
	m        *rates.Model
	duration float64

	b       meanfield.BlockSystem
	kern    *meanfield.BlockKernel // drift and welfare, with their scratch
	stepper *numeric.Stepper       // integrates through kern; nil for static policies
	xs      []float64              // fluid state at the last checkpoint
	belief  []float64              // fluid demand belief (global d_i)

	nodes, items, comms int
	sizes               []int
	meet                []float64          // M_k per community
	partner             []numeric.CDFIndex // per community: over cumulative β_kl·peers_l, total M_k

	probes    int
	probeComm []int32          // probe → community
	probeCDF  []float64        // cumulative probe meeting rate, by probe
	probeIdx  numeric.CDFIndex // over probeCDF
	open      [][]openReq      // per probe: outstanding requests

	rng      *rand.Rand
	popRates []float64 // current true popularity (switch applies here)
	popCDF   []float64
	popIdx   numeric.CDFIndex // over popCDF
	popTotal float64
	uk       utilKernel // monomorphic delay-utility for the probe loop

	measureStart float64
	res          *Result
	tally        *HybridTally

	// Accumulators between checkpoints.
	uPrev     float64 // welfare at the previous checkpoint
	totalInt  float64 // ∫ U dt, post-warmup
	winInt    float64 // ∫ U dt over the current window
	binInt    float64 // ∫ U dt over the current bin
	winGain   []float64
	winArr    []float64 // per item: probe arrivals this window
	samples   []float64 // per probe: window gain rate (scratch)
	binGain   float64
	binFuls   int
	binIdx    int
	consec    int
	breach    int // consecutive violations that demote (hybridBreach)
	demoted   bool
	boundGain float64 // post-warmup probe gain
}

type openReq struct {
	item int32
	t0   float64
}

func newHybridRun(cfg *Config, m *rates.Model, duration float64, hy HybridOptions) (*hybridRun, error) {
	nodes := m.Nodes()
	items := cfg.Pop.Items()
	comms := m.Communities()
	sizes := make([]int, comms)
	for k := range sizes {
		sizes[k] = m.CommunitySize(k)
	}

	// Effective block rates including the (uniform) node weight: read
	// off a representative member pair so weighted-but-uniform models
	// come out right.
	block := make([][]float64, comms)
	for k := range block {
		block[k] = make([]float64, comms)
		for l := range block[k] {
			switch {
			case k != l:
				block[k][l] = m.RateAt(m.Member(k, 0), m.Member(l, 0))
			case sizes[k] > 1:
				block[k][l] = m.RateAt(m.Member(k, 0), m.Member(k, 1))
			}
		}
	}

	belief := append([]float64(nil), cfg.Pop.Rates...)
	dem := make([][]float64, comms)
	for k := range dem {
		dem[k] = make([]float64, items)
	}
	b := meanfield.BlockSystem{
		Utility:  cfg.Utility,
		Sizes:    sizes,
		Block:    block,
		Demand:   dem,
		Rho:      cfg.Rho,
		PsiScale: hy.ReactionScale,
	}

	x0, err := hybridStart(cfg, m, items)
	if err != nil {
		return nil, err
	}
	if err := b.Validate(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrHybrid, err)
	}

	h := &hybridRun{
		cfg: cfg, m: m, duration: duration,
		b: b, kern: b.Kernel(), xs: append([]float64(nil), x0...), belief: belief,
		nodes: nodes, items: items, comms: comms, sizes: sizes,
		measureStart: cfg.WarmupFrac * duration,
		winArr:       make([]float64, items),
		uk:           kernelFor(cfg.Utility),
		tally:        &HybridTally{},
		breach:       hybridBreach,
	}
	h.pushBelief()

	if _, ok := cfg.Policy.(*core.QCR); ok {
		st, err := h.kern.Stepper(x0, 0, 0)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrHybrid, err)
		}
		h.stepper = st
	}

	// Community meeting rates and partner CDFs.
	h.meet = make([]float64, comms)
	h.partner = make([]numeric.CDFIndex, comms)
	for k := 0; k < comms; k++ {
		cdf := make([]float64, comms)
		var acc float64
		for l := 0; l < comms; l++ {
			peers := float64(sizes[l])
			if l == k {
				peers--
			}
			acc += block[k][l] * peers
			cdf[l] = acc
		}
		h.meet[k] = acc
		h.partner[k] = numeric.NewCDFIndex(cdf)
	}

	// Probe set: hybridBoundaryPerComm per community (at most the whole
	// community), capped at hybridMaxBoundary by shaving the largest
	// allocations first (deterministic).
	per := make([]int, comms)
	total := 0
	for k, n := range sizes {
		bk := min(hybridBoundaryPerComm, n)
		per[k] = bk
		total += bk
	}
	for total > hybridMaxBoundary {
		best := -1
		for k := range per {
			if per[k] > 0 && (best < 0 || per[k] > per[best]) {
				best = k
			}
		}
		per[best]--
		total--
	}
	h.probes = total
	h.probeComm = make([]int32, 0, total)
	h.probeCDF = make([]float64, 0, total)
	var acc float64
	for k, bk := range per {
		for j := 0; j < bk; j++ {
			h.probeComm = append(h.probeComm, int32(k))
			acc += h.meet[k]
			h.probeCDF = append(h.probeCDF, acc)
		}
	}
	h.probeIdx = numeric.NewCDFIndex(h.probeCDF)
	h.open = make([][]openReq, total)
	h.winGain = make([]float64, total)
	h.samples = make([]float64, total)

	h.rng = rand.New(rand.NewPCG(cfg.Seed, hy.ContactSeed^0x9e3779b97f4a7c15))
	h.setPop(cfg.Pop.Rates)

	h.res = &Result{
		Duration:     duration,
		MeasureStart: h.measureStart,
	}
	h.tally.BoundaryNodes = total
	h.tally.FluidNodes = nodes - total
	h.tally.FluidFraction = float64(nodes-total) / float64(nodes)
	h.uPrev = h.kern.Welfare(h.xs)
	return h, nil
}

// hybridStart replays the event engine's initial cache layout — sticky
// seeding (QCR without NoSticky) followed by the spreadInitial greedy —
// against per-community accumulators, so the fluid starts from exactly
// the allocation the full simulation would place. A proportional split
// would misstate the per-community hold rates badly: the greedy packs
// copies into the lowest-index free nodes, which are whole communities
// at a time under the consecutive-range constructors.
func hybridStart(cfg *Config, m *rates.Model, items int) ([]float64, error) {
	nodes := m.Nodes()
	comms := m.Communities()
	want := cfg.Initial
	if want == nil {
		want = alloc.Uniform(items, nodes, cfg.Rho)
	}
	if len(want) != items {
		return nil, fmt.Errorf("%w: %d initial counts for %d items", ErrHybrid, len(want), items)
	}
	if err := want.Validate(nodes, cfg.Rho); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrHybrid, err)
	}
	x0 := make([]float64, comms*items)
	free := make([]int, nodes)
	for n := range free {
		free[n] = cfg.Rho
	}
	counts := make([]int, items)
	stickyN := make([]int, items) // sticky holder per item, -1 when none
	for i := range stickyN {
		stickyN[i] = -1
	}
	_, qcr := cfg.Policy.(*core.QCR)
	if qcr && !cfg.NoSticky {
		for i := 0; i < items; i++ {
			n := i % nodes
			if free[n] == 0 {
				return nil, fmt.Errorf("%w: node %d cannot hold sticky replica of item %d (ρ too small)", ErrHybrid, n, i)
			}
			free[n]--
			stickyN[i] = n
			counts[i]++
			x0[m.Community(n)*items+i]++
		}
	}
	err := spreadInitial(items, nodes, cfg.Rho, want,
		func(n int) int { return free[n] },
		func(i int) int { return counts[i] },
		func(n, i int) bool { return stickyN[i] == n },
		func(n, i int) error {
			free[n]--
			counts[i]++
			x0[m.Community(n)*items+i]++
			return nil
		})
	if err != nil {
		return nil, err
	}
	return x0, nil
}

// pushBelief writes the global demand belief into the per-community
// fluid demand rows (uniform profile: community share N_k/N). The rows
// are the same slices the stepper's drift kernel reads, so the update
// is visible without rebuilding the system; the stepper only has to
// drop its cached derivative.
func (h *hybridRun) pushBelief() {
	nodes := float64(h.nodes)
	for k, n := range h.b.Sizes {
		share := float64(n) / nodes
		row := h.b.Demand[k]
		for i, d := range h.belief {
			row[i] = d * share
		}
	}
	if h.stepper != nil {
		h.stepper.Invalidate()
	}
}

// setPop installs the true popularity driving probe arrivals.
func (h *hybridRun) setPop(rates []float64) {
	h.popRates = rates
	if cap(h.popCDF) < len(rates) {
		h.popCDF = make([]float64, len(rates))
	}
	h.popCDF = h.popCDF[:len(rates)]
	var acc float64
	for i, d := range rates {
		acc += d
		h.popCDF[i] = acc
	}
	h.popTotal = acc
	h.popIdx = numeric.NewCDFIndex(h.popCDF)
}

// arrivalRate is the total probe request rate: per-node demand d/N per
// probe under the uniform profile.
func (h *hybridRun) arrivalRate() float64 {
	return h.popTotal / float64(h.nodes) * float64(h.probes)
}

// meetingRate is the total probe meeting rate.
func (h *hybridRun) meetingRate() float64 {
	if h.probes == 0 {
		return 0
	}
	return h.probeCDF[h.probes-1]
}

// frac returns the probability a community-k node holds item i under
// the synced fluid state.
func (h *hybridRun) frac(k, i int) float64 {
	f := h.xs[k*h.items+i] / float64(h.sizes[k])
	if f < 0 {
		return 0
	}
	if f > 1 {
		return 1
	}
	return f
}

// drive runs the checkpointed event loop. On return h.demoted reports
// whether the controller tripped.
func (h *hybridRun) drive() error {
	window := h.duration / hybridWindows
	syncDt := window / 16
	nextSync := syncDt
	nextWin := window
	nextBin := math.Inf(1)
	if h.cfg.BinWidth > 0 {
		nextBin = h.cfg.BinWidth
	}
	tSwitch := math.Inf(1)
	if h.cfg.DemandSwitch != nil && h.cfg.DemandSwitchTime > 0 && h.cfg.DemandSwitchTime < h.duration {
		tSwitch = h.cfg.DemandSwitchTime
	}
	warmupAt := h.measureStart

	t := 0.0
	for t < h.duration {
		tEnd := math.Min(h.duration, nextSync)
		tEnd = math.Min(tEnd, nextWin)
		tEnd = math.Min(tEnd, nextBin)
		tEnd = math.Min(tEnd, tSwitch)
		if warmupAt > t {
			tEnd = math.Min(tEnd, warmupAt)
		}

		// Probe events in (t, tEnd].
		arr := h.arrivalRate()
		meet := h.meetingRate()
		rate := arr + meet
		et := t
		for rate > 0 {
			et += h.rng.ExpFloat64() / rate
			if et > tEnd {
				break
			}
			if h.rng.Float64()*rate < arr {
				h.arrival(et)
			} else {
				h.meeting(et)
			}
		}
		if err := h.checkpoint(t, tEnd); err != nil {
			return err
		}
		t = tEnd

		if t >= nextSync {
			nextSync += syncDt
		}
		if t >= nextBin {
			h.flushBin(t)
			nextBin += h.cfg.BinWidth
		}
		if t >= nextWin {
			h.window(t-window, t)
			if h.demoted {
				return nil
			}
			nextWin += window
		}
		if t >= tSwitch {
			h.setPop(h.cfg.DemandSwitch.Rates)
			tSwitch = math.Inf(1)
		}
		if t >= warmupAt {
			warmupAt = math.Inf(1)
		}
	}
	return nil
}

// checkpoint advances the fluid to t1 and accrues the welfare
// integrals by the trapezoid rule over [t0, t1]. A static run's state
// never moves, so its welfare is uPrev (window refreshes that when the
// demand belief moves).
func (h *hybridRun) checkpoint(t0, t1 float64) error {
	if t1 <= t0 {
		return nil
	}
	u := h.uPrev
	if h.stepper != nil {
		if err := h.stepper.AdvanceTo(t1); err != nil {
			// An integration failure is a fidelity problem, not a user
			// error: demote to the full event path.
			h.demoted = true
			h.tally.Reason = fmt.Sprintf("fluid integration failed: %v", err)
			return nil
		}
		copy(h.xs, h.stepper.State())
		u = h.kern.Welfare(h.xs)
	}
	area := (h.uPrev + u) / 2 * (t1 - t0)
	if t0 >= h.measureStart {
		h.totalInt += area
	}
	h.winInt += area
	h.binInt += area
	h.uPrev = u
	return nil
}

// arrival books one probe request at time t.
func (h *hybridRun) arrival(t float64) {
	p := h.rng.IntN(h.probes)
	i := h.popIdx.Search(h.rng.Float64() * h.popTotal)
	if i >= h.items {
		i = h.items - 1
	}
	h.winArr[i]++
	k := int(h.probeComm[p])
	if h.rng.Float64() < h.frac(k, i) {
		h.record(p, t, h.uk.H0(), true)
		return
	}
	h.open[p] = append(h.open[p], openReq{item: int32(i), t0: t})
}

// meeting books one probe meeting at time t: draw the probe, the
// partner community, and resolve each open request independently.
func (h *hybridRun) meeting(t float64) {
	h.res.Meetings++
	p := h.probeIdx.Search(h.rng.Float64() * h.meetingRate())
	if p >= h.probes {
		p = h.probes - 1
	}
	if len(h.open[p]) == 0 {
		return
	}
	k := int(h.probeComm[p])
	l := h.partner[k].Search(h.rng.Float64() * h.meet[k])
	if l >= h.comms {
		l = h.comms - 1
	}
	reqs := h.open[p][:0]
	for _, rq := range h.open[p] {
		if h.rng.Float64() < h.frac(l, int(rq.item)) {
			h.record(p, t, h.uk.H(t-rq.t0), false)
		} else {
			reqs = append(reqs, rq)
		}
	}
	h.open[p] = reqs
}

// record books one probe fulfillment: the window sample feeding the
// error controller (immediate H0 atoms included — the fluid prediction
// carries the frac·h(0⁺) term too), the bin series, and the post-warmup
// totals.
func (h *hybridRun) record(p int, t, gain float64, immediate bool) {
	h.winGain[p] += gain
	if h.cfg.BinWidth > 0 {
		h.binGain += gain
		h.binFuls++
	}
	if t >= h.measureStart {
		h.boundGain += gain
		h.res.Fulfillments++
		if immediate {
			h.res.Immediate++
		}
	}
}

// flushBin closes the bin ending at t1: the fluid gain estimate for the
// non-probe population plus the probes' realized gains.
func (h *hybridRun) flushBin(t1 float64) {
	bw := h.cfg.BinWidth
	bin := Bin{
		T0:           float64(h.binIdx) * bw,
		T1:           t1,
		Gain:         h.binInt*h.tally.FluidFraction + h.binGain,
		Fulfillments: h.binFuls,
	}
	if h.cfg.RecordCounts {
		bin.Counts = h.roundedCounts()
	}
	h.res.Bins = append(h.res.Bins, bin)
	h.binIdx++
	h.binInt, h.binGain, h.binFuls = 0, 0, 0
}

// window closes the accounting window [t0, t1]: demand feedback first,
// then the error controller on post-warmup windows.
func (h *hybridRun) window(t0, t1 float64) {
	winLen := t1 - t0
	if h.probes > 0 {
		// Feed probe arrivals back into the drift only when they are
		// inconsistent with the current belief: a Poisson dispersion
		// test over the per-item window counts. Blindly EWMA-ing every
		// window would inject the probes' sampling noise into the drift
		// (and the welfare prediction) even when the belief is exact —
		// with a few dozen probes that noise dominates tail items and
		// measurably biases the QCR fluid. Under drift (a demand
		// switch) the statistic explodes and the belief chases the
		// observation until they are statistically indistinguishable.
		probeShare := float64(h.probes) / float64(h.nodes) * winLen
		var x2 float64
		for i, d := range h.belief {
			e := d * probeShare
			z := h.winArr[i] - e
			x2 += z * z / math.Max(e, 1)
		}
		items := float64(len(h.belief))
		if x2 > items+5*math.Sqrt(2*items) {
			scale := float64(h.nodes) / float64(h.probes) / winLen
			for i := range h.belief {
				obs := h.winArr[i] * scale
				h.belief[i] = (1-hybridFeedbackAlpha)*h.belief[i] + hybridFeedbackAlpha*obs
			}
			h.pushBelief()
			h.uPrev = h.kern.Welfare(h.xs) // belief moved: restart the trapezoid
		}
	}
	var arrivals float64
	for i := range h.winArr {
		arrivals += h.winArr[i]
		h.winArr[i] = 0
	}

	// The welfare check needs enough probe requests for the CI to mean
	// something. In a starved window (sparse demand or a tiny boundary
	// share) every probe's gain is zero, MeanCI degenerates to 0 ± 0,
	// and any positive fluid prediction would count as a "violation" —
	// even though observing nothing is exactly what the prediction
	// implies at that arrival rate. Such windows are skipped, not
	// counted: the controller stays silent where it has no power.
	if t0 >= h.measureStart && h.probes >= 2 && arrivals >= minWindowArrivals {
		for p := range h.samples {
			h.samples[p] = h.winGain[p] / winLen
		}
		iv := stats.MeanCI(h.samples, hybridConf)
		pred := h.winInt / winLen / float64(h.nodes)
		diff := math.Abs(iv.Center - pred)
		tol := hybridSlack*iv.Halfwidth + hybridFloor*math.Abs(pred)
		rel := diff / math.Max(math.Abs(pred), 1e-12)
		h.tally.Windows++
		if rel > h.tally.MaxErr {
			h.tally.MaxErr = rel
		}
		if diff > tol {
			h.tally.Violations++
			h.consec++
			if h.consec >= h.breach {
				h.demoted = true
				h.tally.Reason = fmt.Sprintf(
					"window [%g, %g]: probe gain rate %s vs fluid %g exceeds tolerance %g",
					t0, t1, iv, pred, tol)
			}
		} else {
			h.consec = 0
		}
	}
	for p := range h.winGain {
		h.winGain[p] = 0
	}
	h.winInt = 0
}

// roundedCounts collapses the fluid state to integer per-item replica
// counts.
func (h *hybridRun) roundedCounts() alloc.Counts {
	counts := make(alloc.Counts, h.items)
	for i := 0; i < h.items; i++ {
		var x float64
		for k := 0; k < h.comms; k++ {
			x += h.xs[k*h.items+i]
		}
		counts[i] = int(math.Round(x))
	}
	return counts
}

// finish assembles the Result after a completed fluid run.
func (h *hybridRun) finish() {
	res := h.res
	res.TotalGain = h.totalInt*h.tally.FluidFraction + h.boundGain
	// Horizon accounting, mirroring the event engine: open requests born
	// after warmup charge their accrued waiting cost.
	for _, reqs := range h.open {
		res.Outstanding += len(reqs)
		for _, rq := range reqs {
			if g := h.uk.H(h.duration - rq.t0); g < 0 && rq.t0 >= h.measureStart {
				res.TotalGain += g
				res.OutstandingCost += g
			}
		}
	}
	if span := h.duration - h.measureStart; span > 0 {
		res.AvgUtilityRate = res.TotalGain / span
	}
	res.FinalCounts = h.roundedCounts()
	res.Hybrid = h.tally
}

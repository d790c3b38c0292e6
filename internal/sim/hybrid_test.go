package sim

import (
	"errors"
	"math"
	"strings"
	"testing"

	"impatience/internal/adversary"
	"impatience/internal/alloc"
	"impatience/internal/core"
	"impatience/internal/demand"
	"impatience/internal/faults"
	"impatience/internal/rates"
	"impatience/internal/utility"
	"impatience/internal/welfare"
)

// hybridModel is the shared two-community test model.
func hybridModel(t *testing.T, n int) *rates.Model {
	t.Helper()
	m, err := rates.New([]int{n / 2, n / 2}, [][]float64{{0.02, 0.004}, {0.004, 0.03}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func hybridStaticConfig(n int) Config {
	pop := demand.Pareto(24, 1, 0.04*float64(n))
	return Config{
		Rho:      3,
		Utility:  utility.Step{Tau: 10},
		Pop:      pop,
		Policy:   core.Static{Label: "UNI"},
		NoSticky: true,
		Seed:     11,
	}
}

func hybridQCRConfig(t *testing.T, n int, mu float64) (Config, float64) {
	t.Helper()
	pop := demand.Pareto(24, 1, 0.04*float64(n))
	u := utility.Step{Tau: 10}
	h := welfare.Homogeneous{Utility: u, Pop: pop, Mu: mu, Servers: n, Clients: n}
	scale, err := h.ReactionScale(3, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	return Config{
		Rho: 3, Utility: u, Pop: pop,
		Policy: &core.QCR{
			Reaction:       core.TunedReaction(u, mu, n, scale),
			MandateRouting: true, StrictSource: true, MaxMandates: n / 10,
			Seed: 17,
		},
		Seed: 11,
	}, scale
}

func TestHybridDeterminism(t *testing.T) {
	m := hybridModel(t, 200)
	run := func(contactSeed uint64) *Result {
		cfg, scale := hybridQCRConfig(t, 200, m.MeanPairRate())
		r, err := RunHybrid(cfg, m, 800, HybridOptions{ContactSeed: contactSeed, ReactionScale: scale})
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	a, b := run(5), run(5)
	if a.Digest() != b.Digest() {
		t.Errorf("same seeds, digests %#x vs %#x", a.Digest(), b.Digest())
	}
	if c := run(6); c.Digest() == a.Digest() {
		t.Error("different contact seed, same digest")
	}
	if a.Hybrid == nil || a.Hybrid.FellBack {
		t.Fatalf("expected fluid run, tally %+v", a.Hybrid)
	}
	if a.Hybrid.FluidNodes+a.Hybrid.BoundaryNodes != 200 {
		t.Errorf("tally splits %d+%d nodes, want 200", a.Hybrid.FluidNodes, a.Hybrid.BoundaryNodes)
	}
}

func TestHybridRejectsBadConfig(t *testing.T) {
	m := hybridModel(t, 200)
	base := hybridStaticConfig(200)
	cases := []struct {
		name  string
		cause string
		mut   func(*Config) (mo *rates.Model, dur float64)
	}{
		{"nil-model", "nil rate model", func(c *Config) (*rates.Model, float64) { return nil, 100 }},
		{"zero-duration", "duration 0", func(c *Config) (*rates.Model, float64) { return m, 0 }},
		{"nan-duration", "duration NaN", func(c *Config) (*rates.Model, float64) { return m, math.NaN() }},
		{"contacts-set", "leave Contacts nil", func(c *Config) (*rates.Model, float64) {
			src, _ := rates.NewSharded(m, 10, 1, 0)
			c.Contacts = src
			return m, 100
		}},
		{"nil-policy", "nil policy", func(c *Config) (*rates.Model, float64) { c.Policy = nil; return m, 100 }},
		{"nil-utility", "nil utility", func(c *Config) (*rates.Model, float64) { c.Utility = nil; return m, 100 }},
		{"empty-pop", "empty catalog", func(c *Config) (*rates.Model, float64) { c.Pop = demand.Popularity{}; return m, 100 }},
		{"zero-rho", "ρ=0", func(c *Config) (*rates.Model, float64) { c.Rho = 0; return m, 100 }},
		{"warmup-1", "warmup fraction 1", func(c *Config) (*rates.Model, float64) { c.WarmupFrac = 1; return m, 100 }},
		{"short-initial", "1 initial counts for 24 items", func(c *Config) (*rates.Model, float64) {
			c.Initial = alloc.Counts{1}
			return m, 100
		}},
		{"p2p-unbounded-h0", "unbounded h(0+)", func(c *Config) (*rates.Model, float64) {
			c.Utility = utility.NegLog{}
			return m, 100
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := base
			mo, dur := tc.mut(&cfg)
			_, err := RunHybrid(cfg, mo, dur, HybridOptions{})
			if err == nil {
				t.Fatal("invalid hybrid config accepted")
			}
			if !errors.Is(err, ErrHybrid) || !strings.Contains(err.Error(), tc.cause) {
				t.Errorf("error %q: want ErrHybrid naming %q", err, tc.cause)
			}
		})
	}
}

// TestHybridFallbackReasons pins the configurations the fluid cannot
// represent: each must fall back to the full event path with a tally
// naming the reason, not error out.
func TestHybridFallbackReasons(t *testing.T) {
	m := hybridModel(t, 60)
	weighted := func() *rates.Model {
		w := make([]float64, 60)
		for i := range w {
			w[i] = 1 + float64(i%3)
		}
		wm, err := rates.New([]int{30, 30}, [][]float64{{0.02, 0.004}, {0.004, 0.03}}, w)
		if err != nil {
			t.Fatal(err)
		}
		return wm
	}
	cases := []struct {
		name   string
		mut    func(*Config) *rates.Model
		reason string
	}{
		{"faults", func(c *Config) *rates.Model {
			c.Faults = &faults.Config{ChurnRate: 0.01, MeanDowntime: 5, Seed: 3}
			return m
		}, "fault"},
		{"adversary", func(c *Config) *rates.Model {
			c.Adversary = &adversary.Config{DishonestFrac: 0.2, Mult: 4, Seed: 3}
			return m
		}, "adversary"},
		{"dedicated-servers", func(c *Config) *rates.Model { c.ServerCount = 10; return m }, "dedicated"},
		{"per-item-utilities", func(c *Config) *rates.Model {
			c.Utilities = make([]utility.Function, c.Pop.Items())
			return m
		}, "per-item"},
		{"record-delays", func(c *Config) *rates.Model { c.RecordDelays = true; return m }, "instrumentation"},
		{"weighted-nodes", func(c *Config) *rates.Model { return weighted() }, "weights"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := hybridStaticConfig(60)
			mo := tc.mut(&cfg)
			r, err := RunHybrid(cfg, mo, 200, HybridOptions{ContactSeed: 9})
			if err != nil {
				t.Fatal(err)
			}
			tally := r.Hybrid
			if tally == nil || !tally.FellBack {
				t.Fatalf("expected fallback, tally %+v", tally)
			}
			if !strings.Contains(tally.Reason, tc.reason) {
				t.Errorf("reason %q does not mention %q", tally.Reason, tc.reason)
			}
			if tally.FluidFraction != 0 {
				t.Errorf("fluid fraction %g after fallback", tally.FluidFraction)
			}
		})
	}
}

// TestHybridFallbackMatchesFullRun: a fallback result must be exactly
// the full event simulation over the model's sharded source with the
// hybrid contact seed — same welfare, same counts.
func TestHybridFallbackMatchesFullRun(t *testing.T) {
	m := hybridModel(t, 60)
	cfg := hybridStaticConfig(60)
	cfg.RecordDelays = true // forces fallback without touching dynamics
	hyRes, err := RunHybrid(cfg, m, 300, HybridOptions{ContactSeed: 21})
	if err != nil {
		t.Fatal(err)
	}
	src, err := rates.NewSharded(m, 300, 21, 0)
	if err != nil {
		t.Fatal(err)
	}
	ref := cfg
	ref.Contacts = src
	refRes, err := Run(ref)
	if err != nil {
		t.Fatal(err)
	}
	if hyRes.AvgUtilityRate != refRes.AvgUtilityRate || hyRes.Fulfillments != refRes.Fulfillments {
		t.Errorf("fallback diverged from direct run: U %g vs %g, fulfillments %d vs %d",
			hyRes.AvgUtilityRate, refRes.AvgUtilityRate, hyRes.Fulfillments, refRes.Fulfillments)
	}
	// The tally is the only difference: gating it on nil keeps plain
	// runs digest-identical, so the fallback digest must differ only
	// through the tally.
	tally := hyRes.Hybrid
	hyRes.Hybrid = nil
	if hyRes.Digest() != refRes.Digest() {
		t.Errorf("fallback result digests %#x, direct run %#x", hyRes.Digest(), refRes.Digest())
	}
	hyRes.Hybrid = tally
}

// TestHybridStaticTracksFullSim: the fluid welfare estimate of a static
// allocation must land within 1.5% of the full event simulation.
func TestHybridStaticTracksFullSim(t *testing.T) {
	n := 300
	m := hybridModel(t, n)
	var full, hyb float64
	for trial := uint64(0); trial < 3; trial++ {
		cfg := hybridStaticConfig(n)
		cfg.Seed = 11 + trial
		src, err := rates.NewSharded(m, 1500, 100+trial, 0)
		if err != nil {
			t.Fatal(err)
		}
		ref := cfg
		ref.Contacts = src
		r, err := Run(ref)
		if err != nil {
			t.Fatal(err)
		}
		full += r.AvgUtilityRate / 3
		h, err := RunHybrid(cfg, m, 1500, HybridOptions{ContactSeed: 100 + trial})
		if err != nil {
			t.Fatal(err)
		}
		if h.Hybrid.FellBack {
			t.Fatalf("unexpected fallback: %s", h.Hybrid.Reason)
		}
		hyb += h.AvgUtilityRate / 3
	}
	if rel := math.Abs(hyb-full) / full; rel > 0.015 {
		t.Errorf("hybrid %g vs full %g: relative error %.3f", hyb, full, rel)
	}
}

// TestHybridDemotionTrigger forces the error controller to fall back:
// a head-concentrated static allocation, a popularity reversal after
// warmup, and demand feedback disabled, so the fluid prediction goes
// stale and the probes' realized gains collapse.
func TestHybridDemotionTrigger(t *testing.T) {
	n := 200
	m, err := rates.New([]int{100, 100}, [][]float64{{0.01, 0.002}, {0.002, 0.01}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	pop := demand.Pareto(32, 1, 0.1*float64(n))
	rev := demand.Popularity{Rates: make([]float64, 32)}
	for i, d := range pop.Rates {
		rev.Rates[31-i] = d
	}
	cfg := Config{
		Rho: 1, Utility: utility.Step{Tau: 2}, Pop: pop,
		Policy: core.Static{Label: "DOM"}, Initial: alloc.Dom(pop.Rates, n, 1),
		NoSticky: true, Seed: 11,
		DemandSwitch: &rev, DemandSwitchTime: 1200,
	}
	r, err := RunHybrid(cfg, m, 3000, HybridOptions{ContactSeed: 7})
	if err != nil {
		t.Fatal(err)
	}
	tally := r.Hybrid
	if !tally.FellBack || tally.Demotions != 1 {
		t.Fatalf("controller did not demote: %+v", tally)
	}
	if tally.Violations < 2 {
		t.Errorf("%d violations recorded, want ≥ breach", tally.Violations)
	}
	if !strings.Contains(tally.Reason, "exceeds tolerance") {
		t.Errorf("demotion reason %q", tally.Reason)
	}
	// Control: the same run without the switch must stay on the fluid.
	cfg.DemandSwitch = nil
	ok, err := RunHybrid(cfg, m, 3000, HybridOptions{ContactSeed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if ok.Hybrid.FellBack {
		t.Errorf("control run demoted: %+v", ok.Hybrid)
	}
}

// TestHybridBins: the time-series path must produce contiguous bins
// whose replica snapshots respect the cache budget.
func TestHybridBins(t *testing.T) {
	n := 200
	m := hybridModel(t, n)
	cfg := hybridStaticConfig(n)
	cfg.BinWidth = 100
	cfg.RecordCounts = true
	r, err := RunHybrid(cfg, m, 1000, HybridOptions{ContactSeed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Bins) != 10 {
		t.Fatalf("%d bins for duration 1000 at width 100", len(r.Bins))
	}
	budget := n * cfg.Rho
	for bi, b := range r.Bins {
		if b.T1 <= b.T0 {
			t.Errorf("bin %d: [%g, %g]", bi, b.T0, b.T1)
		}
		var total int
		for _, c := range b.Counts {
			total += c
		}
		if d := math.Abs(float64(total - budget)); d > float64(budget)/100 {
			t.Errorf("bin %d: %d replicas vs budget %d", bi, total, budget)
		}
	}
	var fromBins int
	for _, b := range r.Bins {
		fromBins += b.Fulfillments
	}
	if fromBins < r.Fulfillments {
		t.Errorf("bins carry %d fulfillments, post-warmup total %d", fromBins, r.Fulfillments)
	}
}

// TestHybridTallyGatesDigest pins the nil-gating: attaching a tally
// changes the digest, leaving it nil does not.
func TestHybridTallyGatesDigest(t *testing.T) {
	r := Result{Duration: 10, TotalGain: 3, Fulfillments: 7}
	base := r.Digest()
	r.Hybrid = &HybridTally{FluidNodes: 1}
	if r.Digest() == base {
		t.Error("hybrid tally did not change the digest")
	}
	r.Hybrid = nil
	if r.Digest() != base {
		t.Error("nil tally digest drifted")
	}
}

// TestHybridErrIdentity: every configuration the simulator's own
// validation rejects is rejected up front, wrapped in ErrHybrid and
// naming its cause — including the layers (faults, adversaries,
// dedicated servers) that would otherwise only fail inside the fallback.
func TestHybridErrIdentity(t *testing.T) {
	const n = 200
	m := hybridModel(t, n)
	if _, err := RunHybrid(hybridStaticConfig(10), nil, 10, HybridOptions{}); !errors.Is(err, ErrHybrid) {
		t.Errorf("error %v does not wrap ErrHybrid", err)
	}
	cases := []struct {
		name, cause string
		mut         func(*Config)
	}{
		{"faults", "p_loss", func(c *Config) { c.Faults = &faults.Config{PLoss: 2} }},
		{"adversary", "counter multiplier", func(c *Config) { c.Adversary = &adversary.Config{DishonestFrac: 0.2, Mult: -1} }},
		{"server-count", "ServerCount", func(c *Config) { c.ServerCount = n }},
		{"per-item-utilities", "per-item utilities", func(c *Config) { c.Utilities = []utility.Function{c.Utility} }},
		{"sticky-capacity", "sticky replicas impossible", func(c *Config) { c.NoSticky = false; c.Rho = 1; c.Pop = demand.Pareto(n+1, 1, 1) }},
		{"demand-switch", "demand switch catalog", func(c *Config) {
			sw := demand.Pareto(3, 1, 1)
			c.DemandSwitch = &sw
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := hybridStaticConfig(n)
			tc.mut(&cfg)
			_, err := RunHybrid(cfg, m, 100, HybridOptions{})
			if !errors.Is(err, ErrHybrid) || !strings.Contains(err.Error(), tc.cause) {
				t.Errorf("error %v: want ErrHybrid naming %q", err, tc.cause)
			}
		})
	}
}

// TestHybridCheckpointWindowAllocs: a QCR fluid run's checkpoint and
// controller window allocate nothing — the welfare kernel owns its
// scratch and the window reuses its per-probe sample buffer. The cycle
// feeds every item a probe arrival and the last item a burst of them,
// so both the controller's CI check and the belief feedback run.
func TestHybridCheckpointWindowAllocs(t *testing.T) {
	const n, duration = 200, 800.0
	m := hybridModel(t, n)
	cfg, scale := hybridQCRConfig(t, n, m.MeanPairRate())
	hy := HybridOptions{ContactSeed: 5, ReactionScale: scale}
	h, err := newHybridRun(&cfg, m, duration, hy)
	if err != nil {
		t.Fatal(err)
	}
	h.breach = math.MaxInt // keep the (allocating) demotion message out of the loop
	window := duration / hybridWindows
	dt := window / 16
	now := 0.0
	cycle := func() {
		for range 16 {
			if err := h.checkpoint(now, now+dt); err != nil {
				t.Fatal(err)
			}
			now += dt
		}
		for i := range h.winArr {
			h.winArr[i] = 1
		}
		h.winArr[len(h.winArr)-1] = 40
		for p := range h.winGain {
			h.winGain[p] = float64(p % 3)
		}
		h.window(now-window, now)
	}
	cycle()
	if avg := testing.AllocsPerRun(8, cycle); avg != 0 {
		t.Errorf("checkpoint+window cycle allocates %.2f objects, want 0", avg)
	}
	if h.demoted || h.tally.Windows == 0 {
		t.Errorf("controller never checked a window (demoted=%v, tally %+v)", h.demoted, h.tally)
	}
	if last := len(h.belief) - 1; h.belief[last] == cfg.Pop.Rates[last] {
		t.Error("belief feedback never ran")
	}
}

// TestHybridBeliefPushRefreshesDrift: when window feedback moves the
// demand belief, the stepper must not reuse a first-stage derivative
// computed under the old demand. A run whose stepper is told explicitly
// to drop it must agree bit for bit.
func TestHybridBeliefPushRefreshesDrift(t *testing.T) {
	const n, duration = 200, 800.0
	m := hybridModel(t, n)
	build := func() *hybridRun {
		cfg, scale := hybridQCRConfig(t, n, m.MeanPairRate())
		hy := HybridOptions{ContactSeed: 5, ReactionScale: scale}
		h, err := newHybridRun(&cfg, m, duration, hy)
		if err != nil {
			t.Fatal(err)
		}
		return h
	}
	got, want := build(), build()
	dt := duration / 32
	for _, h := range []*hybridRun{got, want} {
		if err := h.checkpoint(0, dt); err != nil {
			t.Fatal(err)
		}
		for i := range h.belief {
			h.belief[i] *= 1 + float64(i%3)
		}
		h.pushBelief()
	}
	want.stepper.Invalidate()
	for _, h := range []*hybridRun{got, want} {
		if err := h.checkpoint(dt, 2*dt); err != nil {
			t.Fatal(err)
		}
	}
	for j := range got.xs {
		if math.Float64bits(got.xs[j]) != math.Float64bits(want.xs[j]) {
			t.Fatalf("x[%d] = %v after the belief push, %v with the derivative dropped", j, got.xs[j], want.xs[j])
		}
	}
}

// hybridSwitchDigest pins TestHybridDemandSwitchPinned's run. It was
// computed before the probe CDFs moved onto numeric.CDFIndex, and the
// index must reproduce it bit for bit.
const hybridSwitchDigest = 0x2544b14855411cf7

// TestHybridDemandSwitchPinned pins a fluid-path QCR run through a
// mid-run DemandSwitch, the one place the probe popularity CDF and its
// index are rebuilt. Demand starts back-loaded (Pareto reversed) and
// switches to front-loaded Pareto at t = 400, so a stale lookup after
// the switch would start past the items the new demand draws.
func TestHybridDemandSwitchPinned(t *testing.T) {
	const n = 200
	m := hybridModel(t, n)
	cfg, scale := hybridQCRConfig(t, n, m.MeanPairRate())
	front := cfg.Pop
	back := demand.Popularity{Rates: make([]float64, front.Items())}
	for i, d := range front.Rates {
		back.Rates[len(back.Rates)-1-i] = d
	}
	cfg.Pop, cfg.DemandSwitch, cfg.DemandSwitchTime = back, &front, 400
	r, err := RunHybrid(cfg, m, 800, HybridOptions{ContactSeed: 5, ReactionScale: scale})
	if err != nil {
		t.Fatal(err)
	}
	if r.Hybrid == nil || r.Hybrid.FellBack {
		t.Fatalf("the pin must cover the fluid path, tally %+v", r.Hybrid)
	}
	if got := r.Digest(); got != hybridSwitchDigest {
		t.Errorf("digest %#016x, pinned %#016x", got, uint64(hybridSwitchDigest))
	}
}

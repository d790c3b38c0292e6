package sim

import (
	"testing"

	"impatience/internal/adversary"
	"impatience/internal/contact"
	"impatience/internal/core"
	"impatience/internal/demand"
	"impatience/internal/rates"
	"impatience/internal/trace"
	"impatience/internal/utility"
)

// The kernel equivalence tests compare the devirtualized contact kernel
// against a reference run of the same inputs that defeats each of its
// shortcuts through test-only wrappers: opaqueUtility lands every
// delay-utility on the ukGeneric interface arm (the utility methods are
// the reference the closed-form arms copy), hookedPolicy keeps the hooks
// of a passive policy running, and nextOnlySource makes the executors
// draw one Next call per contact instead of bulk fills.

// opaqueUtility hides a utility's concrete type from kernelFor's type
// switch.
type opaqueUtility struct{ utility.Function }

// hookedPolicy hides core.PassivePolicy, so the runner invokes every
// (no-op) hook instead of eliding it.
type hookedPolicy struct{ core.Policy }

// nextOnlySource hides trace.BulkSource (and every other optional
// interface), so trace.FillBatch falls back to Next.
type nextOnlySource struct{ trace.Source }

// asReference rewires cfg onto the reference path. Only passive policies
// are wrapped: the others already run every hook, and wrapping would hide
// their optional interfaces (mandate counts, fault awareness).
func asReference(cfg *Config) {
	if cfg.Utility != nil {
		cfg.Utility = opaqueUtility{cfg.Utility}
	}
	if cfg.Utilities != nil {
		us := make([]utility.Function, len(cfg.Utilities))
		for i, f := range cfg.Utilities {
			if f != nil {
				us[i] = opaqueUtility{f}
			}
		}
		cfg.Utilities = us
	}
	if core.IsPassive(cfg.Policy) {
		cfg.Policy = hookedPolicy{cfg.Policy}
	}
}

// TestKernelReferenceEquivalence is the correctness anchor of the
// devirtualized contact kernel: for every policy, utility family and
// executor the fast kernel's Result digest must be bit-identical to the
// reference run's. Each sub-test builds both configs from the same
// inputs and compares digests.
func TestKernelReferenceEquivalence(t *testing.T) {
	policies := []struct {
		name string
		pol  func() core.Policy
	}{
		{"static", func() core.Policy { return core.Static{Label: "uni"} }},
		{"qcr", func() core.Policy {
			return &core.QCR{
				Reaction:       core.TunedReaction(utility.Step{Tau: 10}, 0.05, 12, 1),
				MandateRouting: true,
				StrictSource:   true,
				Seed:           7,
			}
		}},
	}
	utilities := []struct {
		name string
		mod  func(*Config)
	}{
		{"step", func(c *Config) { c.Utility = utility.Step{Tau: 10} }},
		{"exp", func(c *Config) { c.Utility = utility.Exponential{Nu: 0.2} }},
		// Power (α > 1) and NegLog have unbounded h(0⁺), so they require
		// the dedicated-node case; mixing all four families per item also
		// exercises the per-item kernel table.
		{"mixed", func(c *Config) {
			c.ServerCount = 4 // 4·ρ slots ≥ the 10-item catalog
			fams := []utility.Function{
				utility.Step{Tau: 10}, utility.Exponential{Nu: 0.2},
				utility.Power{Alpha: 2}, utility.NegLog{},
			}
			items := c.Pop.Items()
			c.Utilities = make([]utility.Function, items)
			for i := range c.Utilities {
				c.Utilities[i] = fams[i%len(fams)]
			}
		}},
	}
	tr := smallTrace(t, 12, 0.05, 800, 9)
	// Each path runs one config over a fresh source (sources drain);
	// wrap is the identity on the fast side and nextOnlySource on the
	// reference side.
	paths := []struct {
		name string
		run  func(t *testing.T, cfg Config, wrap func(trace.Source) trace.Source) *Result
	}{
		{"materialized", func(t *testing.T, cfg Config, wrap func(trace.Source) trace.Source) *Result {
			cfg.Contacts = wrap(tr.Source())
			res, err := Run(cfg)
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			return res
		}},
		{"streaming", func(t *testing.T, cfg Config, wrap func(trace.Source) trace.Source) *Result {
			src, err := contact.NewHomogeneousStream(12, 0.05, 800, newRNG(9))
			if err != nil {
				t.Fatalf("NewHomogeneousStream: %v", err)
			}
			cfg.Contacts = wrap(src)
			res, err := Run(cfg)
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			return res
		}},
		{"batch", func(t *testing.T, cfg Config, wrap func(trace.Source) trace.Source) *Result {
			src, err := contact.NewReplayStream(trace.UniformRates(12, 0.05), 800, 9, 12)
			if err != nil {
				t.Fatalf("NewReplayStream: %v", err)
			}
			res, err := RunBatch([]Config{cfg}, wrap(src))
			if err != nil {
				t.Fatalf("RunBatch: %v", err)
			}
			return res[0]
		}},
		{"sharded", func(t *testing.T, cfg Config, wrap func(trace.Source) trace.Source) *Result {
			res, err := RunBatchSharded([]Config{cfg}, wrap(tr.Source()), 2)
			if err != nil {
				t.Fatalf("RunBatchSharded: %v", err)
			}
			return res[0]
		}},
	}
	for _, pc := range policies {
		for _, uc := range utilities {
			for _, path := range paths {
				t.Run(pc.name+"/"+uc.name+"/"+path.name, func(t *testing.T) {
					mk := func() Config {
						cfg := baseConfig(t, nil, pc.pol())
						cfg.BinWidth = 80
						cfg.RecordCounts = true
						uc.mod(&cfg)
						return cfg
					}
					refCfg := mk()
					asReference(&refCfg)
					ref := path.run(t, refCfg, func(s trace.Source) trace.Source { return nextOnlySource{s} })
					fast := path.run(t, mk(), func(s trace.Source) trace.Source { return s })
					if ref.Digest() != fast.Digest() {
						t.Errorf("fast kernel digest %#x != reference %#x", fast.Digest(), ref.Digest())
					}
				})
			}
		}
	}
}

// runReference runs cfg on the reference path: wrapped utilities and
// policy, Next-per-contact source.
func runReference(t *testing.T, cfg Config) *Result {
	t.Helper()
	asReference(&cfg)
	cfg.Contacts = nextOnlySource{cfg.Contacts}
	res, err := Run(cfg)
	if err != nil {
		t.Fatalf("Run (reference): %v", err)
	}
	return res
}

// TestKernelReferenceEquivalenceAdversary pins the non-passive side of
// the dispatch elision: with every misbehavior class active the hooks
// and role lookups must still run (passivity is off), and the fast
// kernel must remain bit-identical to the reference path.
func TestKernelReferenceEquivalenceAdversary(t *testing.T) {
	ref := runReference(t, adversarialConfig(t, 3))
	fast, err := Run(adversarialConfig(t, 3))
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if ref.Digest() != fast.Digest() {
		t.Errorf("fast kernel digest %#x != reference %#x under adversary", fast.Digest(), ref.Digest())
	}
	if ref.Adversary == nil || fast.Adversary == nil {
		t.Fatalf("adversary tally missing: ref=%v fast=%v", ref.Adversary, fast.Adversary)
	}
	if *ref.Adversary != *fast.Adversary {
		t.Errorf("adversary tallies diverge: %+v vs %+v", *fast.Adversary, *ref.Adversary)
	}
}

// TestKernelFreeRiderEquivalence targets the immediate-fulfillment
// elision specifically: with FreeRiderFrac = 1 every local hit takes the
// suppressed-reaction branch, which the passive fast path must never
// skip (passivity requires no adversary).
func TestKernelFreeRiderEquivalence(t *testing.T) {
	mk := func() Config {
		tr := smallTrace(t, 15, 0.05, 500, 4)
		cfg := baseConfig(t, tr, core.Static{Label: "uni"})
		cfg.Adversary = &adversary.Config{FreeRiderFrac: 1, Seed: 3}
		return cfg
	}
	ref := runReference(t, mk())
	fast, err := Run(mk())
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if ref.Digest() != fast.Digest() {
		t.Errorf("fast kernel digest %#x != reference %#x with free-riders", fast.Digest(), ref.Digest())
	}
}

// TestBatchedStreamZeroAllocSteadyState pins the streaming-batched hot
// path: once warm, filling the reusable contact buffer from a live
// generator and stepping every contact performs no steady-state heap
// allocation. Each measured call processes one full batch, so the bound
// is per 4096 contacts.
func TestBatchedStreamZeroAllocSteadyState(t *testing.T) {
	const (
		nodes    = 8
		items    = 6
		duration = 1e12
	)
	src, err := contact.NewHomogeneousStream(nodes, 0.05, duration, newRNG(5))
	if err != nil {
		t.Fatalf("NewHomogeneousStream: %v", err)
	}
	cfg := Config{
		Rho:        3,
		Utility:    utility.Step{Tau: 10},
		Pop:        demand.Pareto(items, 1, 2),
		Policy:     core.Static{Label: "uni"},
		Seed:       5,
		WarmupFrac: -1,
	}
	runners, err := newRunners([]Config{cfg}, src)
	if err != nil {
		t.Fatalf("newRunners: %v", err)
	}
	r := runners[0]
	buf := make([]trace.Contact, contactBatchSize)
	batchOne := func() {
		n := trace.FillBatch(src, buf)
		if n == 0 {
			t.Fatal("stream exhausted mid-test")
		}
		for i := range buf[:n] {
			if err := r.step(buf[i]); err != nil {
				t.Fatalf("step: %v", err)
			}
		}
	}
	for i := 0; i < 20; i++ {
		batchOne() // warm every request queue to steady-state capacity
	}
	// Tolerates a rare one-off queue growth; anything systematic (even one
	// allocation per contact would read as ≥ 4096) fails loudly.
	if avg := testing.AllocsPerRun(50, batchOne); avg > 0.5 {
		t.Errorf("batched stream steady state allocates %.2f objects/batch, want 0", avg)
	}
}

// TestShardedSourceZeroAllocSteadyState pins the structured-rates bulk
// path: draining a community model through ShardedSource.NextBatch and
// stepping the contacts is allocation-free once warm — the merge heap,
// group samplers and runner all reuse their state.
func TestShardedSourceZeroAllocSteadyState(t *testing.T) {
	const (
		nodes    = 64
		items    = 6
		duration = 1e12
	)
	m, err := rates.NewCommunity(rates.CommunityConfig{
		Nodes: nodes, Communities: 4, In: 0.1, Out: 0.01,
	})
	if err != nil {
		t.Fatalf("NewCommunity: %v", err)
	}
	src, err := rates.NewSharded(m, duration, 11, 0)
	if err != nil {
		t.Fatalf("NewSharded: %v", err)
	}
	cfg := Config{
		Rho:        3,
		Utility:    utility.Step{Tau: 10},
		Pop:        demand.Pareto(items, 1, 2),
		Policy:     core.Static{Label: "uni"},
		Seed:       5,
		WarmupFrac: -1,
	}
	runners, err := newRunners([]Config{cfg}, src)
	if err != nil {
		t.Fatalf("newRunners: %v", err)
	}
	r := runners[0]
	buf := make([]trace.Contact, contactBatchSize)
	batchOne := func() {
		n := trace.FillBatch(src, buf)
		if n == 0 {
			t.Fatal("sharded source exhausted mid-test")
		}
		for i := range buf[:n] {
			if err := r.step(buf[i]); err != nil {
				t.Fatalf("step: %v", err)
			}
		}
	}
	for i := 0; i < 20; i++ {
		batchOne()
	}
	if avg := testing.AllocsPerRun(50, batchOne); avg > 0.5 {
		t.Errorf("sharded bulk steady state allocates %.2f objects/batch, want 0", avg)
	}
}

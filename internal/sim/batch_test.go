package sim

import (
	"testing"

	"impatience/internal/core"
	"impatience/internal/demand"
	"impatience/internal/faults"
	"impatience/internal/trace"
	"impatience/internal/utility"
)

// batchSchemes builds the per-scheme configs for one trial: a static
// allocation, a live QCR, and a fault-ridden hardened QCR (churn, lossy
// meetings with truncated transfers, mandate drops) with the full
// recording surface (delays, bins, counts) enabled. Policies are
// stateful, so every call constructs fresh ones. Contacts is left unset
// — the batch executor supplies the shared stream; the single-run
// comparison sets it per call.
func batchSchemes(t *testing.T) []Config {
	t.Helper()
	static := baseConfig(t, nil, core.Static{Label: "uni"})
	static.Seed = 21
	static.RecordDelays = true

	qcr := baseConfig(t, nil, &core.QCR{
		Reaction:       core.TunedReaction(utility.Step{Tau: 10}, 0.05, 14, 1),
		MandateRouting: true,
		StrictSource:   true,
		Seed:           7,
	})
	qcr.Seed = 22
	qcr.BinWidth = 80

	faulty := baseConfig(t, nil, &core.QCR{
		Reaction:       core.PathReplication(0.5),
		MandateRouting: true,
		StrictSource:   true,
		MaxMandates:    5,
		MandateTTL:     80,
		MaxAttempts:    4,
		Seed:           93,
	})
	faulty.Seed = 23
	faulty.BinWidth = 80
	faulty.RecordCounts = true
	faulty.RecordDelays = true
	faulty.Faults = &faults.Config{
		ChurnRate:     0.002,
		MeanDowntime:  30,
		PLoss:         0.2, // truncated meetings
		PDrop:         0.1,
		MassCrashTime: 300,
		MassCrashFrac: 0.4,
		MassDowntime:  40,
		Seed:          23 ^ 0xbad,
	}
	return []Config{static, qcr, faulty}
}

// TestRunBatchMatchesSequential is the batch executor's correctness
// anchor: M runners stepped in lockstep over one shared stream must be
// bit-identical — same Digest — to M single Runs each replaying the
// materialized trace on its own. Covers static, QCR, and a fault
// timeline with truncated meetings; run under -race in CI.
func TestRunBatchMatchesSequential(t *testing.T) {
	tr := smallTrace(t, 14, 0.05, 700, 13)

	want := make([]uint64, len(batchSchemes(t)))
	for i, cfg := range batchSchemes(t) {
		cfg.Contacts = tr.Source()
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("sequential Run %d: %v", i, err)
		}
		want[i] = res.Digest()
	}

	got, err := RunBatch(batchSchemes(t), tr.Source())
	if err != nil {
		t.Fatalf("RunBatch: %v", err)
	}
	for i, res := range got {
		if res.Digest() != want[i] {
			t.Errorf("scheme %d: batch digest %#x != sequential %#x", i, res.Digest(), want[i])
		}
	}

	// Streaming-source equivalence: the same batch over a reopened view
	// of the same contacts reproduces itself.
	src := tr.Source()
	re, err := src.Reopen()
	if err != nil {
		t.Fatalf("Reopen: %v", err)
	}
	again, err := RunBatch(batchSchemes(t), re)
	if err != nil {
		t.Fatalf("RunBatch (reopened): %v", err)
	}
	for i, res := range again {
		if res.Digest() != want[i] {
			t.Errorf("scheme %d: reopened batch digest %#x != sequential %#x", i, res.Digest(), want[i])
		}
	}
}

// TestRunBatchValidation: malformed batches fail up front with the
// offending config identified, and contract violations in the shared
// stream abort the whole batch.
func TestRunBatchValidation(t *testing.T) {
	tr := smallTrace(t, 14, 0.05, 200, 3)

	if _, err := RunBatch(nil, tr.Source()); err == nil {
		t.Error("empty batch accepted")
	}
	if _, err := RunBatch(batchSchemes(t), nil); err == nil {
		t.Error("nil source accepted")
	}

	withStream := batchSchemes(t)
	withStream[0].Contacts = tr.Source()
	if _, err := RunBatch(withStream, tr.Source()); err == nil {
		t.Error("batch config with Contacts set accepted")
	}

	tiny := (&trace.Trace{Nodes: 1, Duration: 100}).Source()
	if _, err := RunBatch(batchSchemes(t), tiny); err == nil {
		t.Error("1-node source accepted")
	}

	disordered := (&trace.Trace{Nodes: 14, Duration: 100, Contacts: []trace.Contact{
		{T: 50, A: 0, B: 1}, {T: 10, A: 1, B: 2},
	}}).Source()
	if _, err := RunBatch(batchSchemes(t), disordered); err == nil {
		t.Error("out-of-order shared stream accepted")
	}
}

// TestBatchStepZeroAllocSteadyState extends the zero-allocation
// discipline to the batch executor: once warmed up, stepping every
// runner of a batch through one shared contact allocates nothing — the
// per-scheme bins, delay buffers, request queues, mandate piles and
// runner scratch are all preallocated or retained.
func TestBatchStepZeroAllocSteadyState(t *testing.T) {
	const (
		nodes    = 8
		items    = 6
		duration = 1e12
		dt       = 0.01
	)
	for _, tc := range steadyCases(13) {
		t.Run(tc.name, func(t *testing.T) {
			mk := func(seed uint64) Config {
				return Config{
					Rho:          3,
					Utility:      utility.Step{Tau: 10},
					Pop:          demand.Pareto(items, 1, tc.demand),
					Policy:       tc.policy(),
					Seed:         seed,
					WarmupFrac:   -1,
					RecordDelays: true, // preallocated delay buffers stay flat
					BinWidth:     duration / 64,
				}
			}
			runners, err := newRunners([]Config{mk(5), mk(6)}, (&trace.Trace{Nodes: nodes, Duration: duration}).Source())
			if err != nil {
				t.Fatalf("newRunners: %v", err)
			}
			var pairs []trace.Contact
			for a := 0; a < nodes; a++ {
				for b := a + 1; b < nodes; b++ {
					pairs = append(pairs, trace.Contact{A: a, B: b})
				}
			}
			now, pi := 0.0, 0
			stepOne := func() {
				c := pairs[pi]
				pi = (pi + 1) % len(pairs)
				now += dt
				c.T = now
				for _, r := range runners {
					if err := r.step(c); err != nil {
						t.Fatalf("step: %v", err)
					}
				}
			}
			for i := 0; i < 50000; i++ {
				stepOne()
			}
			if avg := testing.AllocsPerRun(20000, stepOne); avg > 0.01 {
				t.Errorf("batch steady-state step allocates %.4f objects/contact, want 0", avg)
			}
		})
	}
}

// utilitySink defeats dead-code elimination in BenchmarkUtilityFor.
var utilitySink utility.Function

// BenchmarkUtilityFor quantifies the satellite's cached per-item utility
// table: the hot path's s.utilityFor(i) is one slice load, versus the
// per-fulfillment resolveUtility fallback chain it replaced.
func BenchmarkUtilityFor(b *testing.B) {
	const items = 64
	utils := make([]utility.Function, items)
	for i := range utils {
		if i%2 == 0 {
			utils[i] = utility.Step{Tau: float64(i + 1)}
		}
	}
	cfg := Config{
		Rho:       3,
		Utility:   utility.Step{Tau: 10},
		Utilities: utils,
		Pop:       demand.Uniform(items, 1),
		Policy:    core.Static{Label: "uni"},
		NoSticky:  true,
		Seed:      1,
	}
	runners, err := newRunners([]Config{cfg}, (&trace.Trace{Nodes: 8, Duration: 100}).Source())
	if err != nil {
		b.Fatalf("newRunners: %v", err)
	}
	r := runners[0]
	b.Run("cached", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			utilitySink = r.s.utilityFor(i % items)
		}
	})
	b.Run("resolve", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			utilitySink = resolveUtility(&cfg, i%items)
		}
	})
}

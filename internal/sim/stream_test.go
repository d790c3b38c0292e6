package sim

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"impatience/internal/contact"
	"impatience/internal/core"
	"impatience/internal/demand"
	"impatience/internal/trace"
	"impatience/internal/utility"
)

// -update rewrites the committed golden digest instead of comparing;
// see TestStreamFusedGolden.
var update = flag.Bool("update", false, "rewrite testdata golden digests instead of comparing")

// TestStreamAdapterMatchesMaterialized: a run over a materialized trace
// (tr.Source()) and a run over the lazy replay stream drawing the same
// contacts must be bit-identical — same seed, same Digest. This is the
// equivalence that lets experiments switch paths freely.
func TestStreamAdapterMatchesMaterialized(t *testing.T) {
	tr := smallTrace(t, 12, 0.05, 800, 9)
	for _, tc := range []struct {
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
	} {
		t.Run(tc.name, func(t *testing.T) {
			mat := baseConfig(t, tr, tc.pol())
			mat.BinWidth = 80
			want, err := Run(mat)
			if err != nil {
				t.Fatalf("materialized Run: %v", err)
			}
			// smallTrace's generator seeds rand.NewPCG(9, 9+3).
			replay, err := contact.NewHomogeneousReplayStream(12, 0.05, 800, 9, 12)
			if err != nil {
				t.Fatalf("NewHomogeneousReplayStream: %v", err)
			}
			str := baseConfig(t, nil, tc.pol())
			str.BinWidth = 80
			str.Contacts = replay
			got, err := Run(str)
			if err != nil {
				t.Fatalf("streaming Run: %v", err)
			}
			if got.Digest() != want.Digest() {
				t.Errorf("digest mismatch: streaming %#x != materialized %#x", got.Digest(), want.Digest())
			}
		})
	}
}

// fusedConfig wires a fused generate+simulate run: the contact stream is
// drawn lazily inside Run, never materialized.
func fusedConfig(t *testing.T, nodes int, mu, duration float64, seed uint64) Config {
	t.Helper()
	src, err := contact.NewHomogeneousStream(nodes, mu, duration, newRNG(seed))
	if err != nil {
		t.Fatalf("NewHomogeneousStream: %v", err)
	}
	return Config{
		Rho:      3,
		Utility:  utility.Step{Tau: 10},
		Pop:      demand.Pareto(10, 1, 2),
		Contacts: src,
		Policy: &core.QCR{
			Reaction:       core.TunedReaction(utility.Step{Tau: 10}, mu, nodes, 1),
			MandateRouting: true,
			StrictSource:   true,
			Seed:           7,
		},
		Seed: 1,
	}
}

// TestStreamFusedGolden pins the fused path's own determinism: the
// streaming generator has its own RNG stream (distinct from the legacy
// materialized generator — see internal/contact), so it carries its own
// golden digest, committed under testdata/. Same seed → same digest, run
// to run and release to release. After an INTENDED behavior change,
// regenerate with:
//
//	go test ./internal/sim -run TestStreamFusedGolden -update
func TestStreamFusedGolden(t *testing.T) {
	const goldenPath = "testdata/fused_golden.txt"
	run := func() uint64 {
		res, err := Run(fusedConfig(t, 12, 0.05, 800, 9))
		if err != nil {
			t.Fatalf("fused Run: %v", err)
		}
		return res.Digest()
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("fused run not deterministic: %#x vs %#x", a, b)
	}
	if *update {
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, []byte(fmt.Sprintf("%#016x\n", a)), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", goldenPath)
		return
	}
	data, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("read %s (regenerate with -update): %v", goldenPath, err)
	}
	var want uint64
	if _, err := fmt.Sscanf(strings.TrimSpace(string(data)), "0x%x", &want); err != nil {
		t.Fatalf("parse %s: %v", goldenPath, err)
	}
	if a != want {
		t.Errorf("fused golden digest %#x, want %#x (streaming RNG contract changed; rerun with -update if intended)", a, want)
	}
}

// TestStreamRejectsBadSources: dimension and ordering violations surface
// as errors, not silent corruption.
func TestStreamRejectsBadSources(t *testing.T) {
	good := fusedConfig(t, 12, 0.05, 800, 9)

	tiny := good
	tiny.Contacts = (&trace.Trace{Nodes: 1, Duration: 100}).Source()
	if _, err := Run(tiny); err == nil {
		t.Error("1-node source accepted")
	}

	// Out-of-order and out-of-range streams must fail mid-run: the
	// adapter yields the raw slice, so sim's per-contact check is the
	// only guard.
	disordered := good
	disordered.Contacts = (&trace.Trace{Nodes: 4, Duration: 100, Contacts: []trace.Contact{
		{T: 50, A: 0, B: 1}, {T: 10, A: 1, B: 2},
	}}).Source()
	if _, err := Run(disordered); err == nil {
		t.Error("out-of-order stream accepted")
	}

	outOfRange := good
	outOfRange.Contacts = (&trace.Trace{Nodes: 4, Duration: 100, Contacts: []trace.Contact{
		{T: 10, A: 0, B: 9},
	}}).Source()
	if _, err := Run(outOfRange); err == nil {
		t.Error("out-of-range endpoint accepted")
	}
}

// steadyCase is one policy the zero-allocation steady-state tests run,
// with the aggregate demand rate it runs under.
type steadyCase struct {
	name   string
	demand float64
	policy func() core.Policy
}

// steadyCases are a static allocation, and QCR under enough demand that
// mandate piles are created, routed between nodes and drained at
// meetings throughout the measured window.
func steadyCases(seed uint64) []steadyCase {
	return []steadyCase{
		{"static", 2, func() core.Policy { return core.Static{Label: "uni"} }},
		{"qcr", 20, func() core.Policy {
			return &core.QCR{
				Reaction:       core.PathReplication(2),
				MandateRouting: true,
				StrictSource:   true,
				MaxMandates:    8,
				Seed:           seed,
			}
		}},
	}
}

// TestStepZeroAllocSteadyState is the allocation regression test behind
// the fused pipeline's throughput claim: once every (node, item) request
// queue has been touched, the per-contact hot path — arrival drain,
// meeting, fulfillment, bookkeeping and, under QCR, mandate minting,
// execution and routing — runs without heap allocation, so streamed runs
// of any length keep a flat memory profile.
func TestStepZeroAllocSteadyState(t *testing.T) {
	const (
		nodes    = 8
		items    = 6
		duration = 1e12
		dt       = 0.01
	)
	for _, tc := range steadyCases(11) {
		t.Run(tc.name, func(t *testing.T) {
			cfg := Config{
				Rho:        3,
				Utility:    utility.Step{Tau: 10},
				Pop:        demand.Pareto(items, 1, tc.demand),
				Policy:     tc.policy(),
				Seed:       5,
				WarmupFrac: -1,
			}
			runners, err := newRunners([]Config{cfg}, (&trace.Trace{Nodes: nodes, Duration: duration}).Source())
			if err != nil {
				t.Fatalf("newRunners: %v", err)
			}
			r := runners[0]
			// Cycle through every pair so all request queues, outstanding-item
			// lists and mandate piles reach their steady-state capacity during
			// warmup.
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
				if err := r.step(c); err != nil {
					t.Fatalf("step: %v", err)
				}
			}
			for i := 0; i < 50000; i++ {
				stepOne()
			}
			// Not exactly 0.0: a queue whose depth exceeds anything seen in
			// warmup can still grow once. The bound catches any systematic
			// per-contact allocation while tolerating such one-offs.
			if avg := testing.AllocsPerRun(20000, stepOne); avg > 0.01 {
				t.Errorf("steady-state step allocates %.4f objects/contact, want 0", avg)
			}
		})
	}
}

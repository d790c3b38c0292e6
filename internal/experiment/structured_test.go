package experiment

import (
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"

	"impatience/internal/parallel"
	"impatience/internal/rates"
	"impatience/internal/sim"
	"impatience/internal/trace"
	"impatience/internal/utility"
)

// structuredTiny pairs a small community model with a matching scenario.
func structuredTiny(t *testing.T) (Scenario, *rates.Model) {
	t.Helper()
	sc := Default()
	sc.Nodes = 40
	sc.Items = 10
	sc.Rho = 2
	sc.Duration = 800
	sc.Trials = 2
	m, err := rates.NewCommunity(rates.CommunityConfig{
		Nodes: 40, Communities: 4, In: 0.3, Out: 0.02,
	})
	if err != nil {
		t.Fatal(err)
	}
	return sc, m
}

// TestStructuredScaleShardInvariance: the experiment-level shard knob
// must not change a single bit of the outcome — the report's digest
// family is identical at every shard count, and the stream and utility
// measurements agree too. Beside the tiny model it runs the scale rungs
// N = 10⁴ and 10⁵ (a PaperCommunity model with 32 communities, 4 items,
// ρ = 2) at shard counts {1, 2, 4, NumCPU}.
func TestStructuredScaleShardInvariance(t *testing.T) {
	rung := func(nodes int, duration float64) func(t *testing.T) (Scenario, *rates.Model) {
		return func(t *testing.T) (Scenario, *rates.Model) {
			m, err := rates.PaperCommunity(nodes, 32)
			if err != nil {
				t.Fatal(err)
			}
			sc := Default()
			sc.Nodes, sc.Items, sc.Rho, sc.Duration = nodes, 4, 2, duration
			return sc, m
		}
	}
	shardLadder := []int{1, 2, 4}
	if n := runtime.NumCPU(); !slices.Contains(shardLadder, n) {
		shardLadder = append(shardLadder, n)
	}
	cases := []struct {
		name    string
		setup   func(t *testing.T) (Scenario, *rates.Model)
		schemes []string
		shards  []int
	}{
		{"tiny", structuredTiny, []string{SchemeQCR, SchemeUNI, SchemePROP}, []int{1, 2, 4}},
		{"N=1e4", rung(10_000, 4), []string{SchemeQCR, SchemeUNI}, shardLadder},
		{"N=1e5", rung(100_000, 0.8), []string{SchemeQCR, SchemeUNI}, shardLadder},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			sc, m := c.setup(t)
			var base *StructuredReport
			for _, shards := range c.shards {
				sc.Shards = shards
				rep, err := sc.StructuredScale(utility.Step{Tau: 10}, m, c.schemes, 0)
				if err != nil {
					t.Fatalf("shards=%d: %v", shards, err)
				}
				if rep.Contacts == 0 {
					t.Fatalf("shards=%d: empty stream", shards)
				}
				if base == nil {
					base = rep
					t.Logf("digest family %#x over %d contacts", rep.DigestFamily, rep.Contacts)
					continue
				}
				if rep.DigestFamily != base.DigestFamily {
					t.Errorf("shards=%d: digest family %#x != %#x at shards=1",
						shards, rep.DigestFamily, base.DigestFamily)
				}
				if rep.Contacts != base.Contacts {
					t.Errorf("shards=%d: %d contacts != %d", shards, rep.Contacts, base.Contacts)
				}
				for k := range rep.AvgUtility {
					if rep.AvgUtility[k] != base.AvgUtility[k] {
						t.Errorf("shards=%d scheme %s: utility %g != %g",
							shards, c.schemes[k], rep.AvgUtility[k], base.AvgUtility[k])
					}
				}
			}
		})
	}
}

// TestStructuredScaleReport sanity-checks the metered fields.
func TestStructuredScaleReport(t *testing.T) {
	sc, m := structuredTiny(t)
	sc.Shards = 2
	rep, err := sc.StructuredScale(utility.Step{Tau: 10}, m, []string{SchemeQCR, SchemeUNI}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Nodes != 40 || rep.Communities != 4 || rep.Shards != 2 {
		t.Errorf("provenance fields wrong: %+v", rep)
	}
	if rep.MeanPairRate != m.MeanPairRate() {
		t.Errorf("mean pair rate %g != model's %g", rep.MeanPairRate, m.MeanPairRate())
	}
	if rep.PeakHeapBytes == 0 {
		t.Error("peak heap not sampled")
	}
	if rep.Fulfillments <= 0 {
		t.Error("no fulfillments recorded")
	}
	for k, v := range rep.AvgUtility {
		if v <= 0 {
			t.Errorf("scheme %s utility %g", rep.Schemes[k], v)
		}
	}
}

// TestMeteredSourceMatchesRaw: the metering wrapper's bulk path yields
// the wrapped source's stream contact for contact, counts every contact,
// and samples the heap as the count crosses each multiple of every.
func TestMeteredSourceMatchesRaw(t *testing.T) {
	sc, m := structuredTiny(t)
	gen := sc.StructuredSources(m)
	raw, err := gen(5)
	if err != nil {
		t.Fatal(err)
	}
	src, err := gen(5)
	if err != nil {
		t.Fatal(err)
	}
	metered := &meteredSource{src: src, every: 1000}
	buf := make([]trace.Contact, 777)
	count := 0
	for {
		n := trace.FillBatch(metered, buf)
		if n == 0 {
			break
		}
		for _, got := range buf[:n] {
			want, ok := raw.Next()
			if !ok || got != want {
				t.Fatalf("contact %d: metered %+v, raw %+v (ok %v)", count, got, want, ok)
			}
			count++
		}
	}
	if c, ok := raw.Next(); ok {
		t.Fatalf("metered stream ended after %d contacts; raw continues with %+v", count, c)
	}
	if metered.produced != count || count < 2*metered.every {
		t.Fatalf("metered %d of %d contacts (every %d)", metered.produced, count, metered.every)
	}
	if metered.peak == 0 {
		t.Error("no heap sample across the batches")
	}
}

// TestStructuredScaleMeteringTransparent pins StructuredScale's stream
// length and digest family on the tiny model, at 1 and 2 shards, to the
// values of the per-contact metering path, and checks them against an
// unmetered run of the same configs.
func TestStructuredScaleMeteringTransparent(t *testing.T) {
	const (
		contacts = 52885
		family   = 0x14489c5c494c801f
	)
	sc, m := structuredTiny(t)
	schemes := []string{SchemeQCR, SchemeUNI}
	for _, shards := range []int{1, 2} {
		sc.Shards = shards
		rep, err := sc.StructuredScale(utility.Step{Tau: 10}, m, schemes, 1)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Contacts != contacts || rep.DigestFamily != family {
			t.Errorf("shards=%d: %d contacts, family %#016x; want %d, %#016x",
				shards, rep.Contacts, rep.DigestFamily, contacts, uint64(family))
		}
	}
	src, err := sc.StructuredSources(m)(parallel.TrialSeed(sc.Seed, 1))
	if err != nil {
		t.Fatal(err)
	}
	cfgs, err := sc.batchConfigs(schemes, utility.Step{Tau: 10}, nil, m.MeanPairRate(), 1, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	results, err := sim.RunBatchSharded(cfgs, src, 1)
	if err != nil {
		t.Fatal(err)
	}
	acc := uint64(0x9e3779b97f4a7c15)
	for _, r := range results {
		acc = parallel.SplitMix64(acc ^ r.Digest())
	}
	if acc != family || results[0].Meetings != contacts {
		t.Errorf("unmetered run: %d meetings, family %#016x; want %d, %#016x",
			results[0].Meetings, acc, contacts, uint64(family))
	}
}

// TestStructuredComparison: the trial engine runs over the structured
// source generator and aggregates like any other comparison, and the
// aggregate is identical at shard counts 1, 2 and 4 — this path hands
// the raw structured sampler to the executor, unlike StructuredScale's
// metering wrapper.
func TestStructuredComparison(t *testing.T) {
	sc, m := structuredTiny(t)
	schemes := []string{SchemeQCR, SchemeUNI}
	var base *Comparison
	for _, shards := range []int{1, 2, 4} {
		sc.Shards = shards
		cmp, err := sc.RunStructuredComparison(utility.Step{Tau: 10}, m, schemes)
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		if base == nil {
			base = cmp
			for _, s := range schemes {
				if cmp.Utility[s].N != sc.Trials {
					t.Errorf("%s trials %d, want %d", s, cmp.Utility[s].N, sc.Trials)
				}
				if cmp.Utility[s].Mean <= 0 {
					t.Errorf("%s mean utility %g", s, cmp.Utility[s].Mean)
				}
			}
			continue
		}
		if !reflect.DeepEqual(cmp, base) {
			t.Errorf("shards=%d: comparison %+v differs from shards=1 %+v", shards, cmp, base)
		}
	}
}

// TestStructuredRejectsOPT: both entry points refuse OPT (it needs the
// dense rate matrix the structured path exists to avoid) and a
// node-count mismatch between model and scenario.
func TestStructuredRejectsOPT(t *testing.T) {
	sc, m := structuredTiny(t)
	if _, err := sc.StructuredScale(utility.Step{Tau: 10}, m, []string{SchemeOPT}, 0); err == nil ||
		!strings.Contains(err.Error(), "rate matrix") {
		t.Errorf("StructuredScale OPT: %v", err)
	}
	if _, err := sc.RunStructuredComparison(utility.Step{Tau: 10}, m, []string{SchemeQCR, SchemeOPT}); err == nil {
		t.Error("RunStructuredComparison accepted OPT")
	}
	if _, err := sc.StructuredScale(utility.Step{Tau: 10}, m, nil, 0); err == nil {
		t.Error("empty scheme set accepted")
	}
	sc.Nodes = 39
	if _, err := sc.StructuredScale(utility.Step{Tau: 10}, m, []string{SchemeQCR}, 0); err == nil {
		t.Error("node mismatch accepted")
	}
}

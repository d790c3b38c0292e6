package experiment

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"impatience/internal/rates"
	"impatience/internal/utility"
)

// hybridTiny pairs a scenario with communities large enough for the
// fluid limit to be meaningful at test cost (two 100-node blocks).
func hybridTiny(t *testing.T) (Scenario, *rates.Model) {
	t.Helper()
	sc := Default()
	sc.Nodes = 200
	sc.Items = 10
	sc.Rho = 2
	sc.Duration = 800
	sc.Trials = 2
	sc.Hybrid.Enabled = true
	m, err := rates.New([]int{100, 100}, [][]float64{{0.02, 0.004}, {0.004, 0.03}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return sc, m
}

// hybridBenchShape is the fluid shape of the hybrid benchmark workload
// — 64 communities × 32 items, ρ = 3, contact budget split 70 % inside
// the community and 30 % across — at a population and horizon small
// enough for a unit test. The block kernel's loop order matters most
// at this many communities, so the digest pinned here guards bit
// identity where it is hardest to keep.
func hybridBenchShape(t *testing.T) (Scenario, *rates.Model) {
	t.Helper()
	const nodes, comms = 6400, 64
	m, err := rates.PaperCommunity(nodes, comms)
	if err != nil {
		t.Fatal(err)
	}
	sc := Default()
	sc.Nodes, sc.Items, sc.Rho, sc.Duration = nodes, 32, 3, 80
	sc.DemandRate = 0.04 * nodes
	sc.Hybrid.Enabled = true
	return sc, m
}

// TestHybridScaleReport: the hybrid branch of StructuredScale stamps its
// provenance — fluid fraction, demotion count, probe contact volume —
// into the report the benchmark rows are built from.
func TestHybridScaleReport(t *testing.T) {
	sc, m := hybridTiny(t)
	rep, err := sc.StructuredScale(utility.Step{Tau: 10}, m, []string{SchemeQCR, SchemeUNI}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Hybrid {
		t.Fatal("report not marked hybrid")
	}
	if rep.FluidFraction <= 0.5 || rep.FluidFraction > 1 {
		t.Errorf("fluid fraction %g, want most of the population on the fluid", rep.FluidFraction)
	}
	if rep.Demotions != 0 {
		t.Errorf("%d demotions in a stationary run", rep.Demotions)
	}
	if rep.Contacts <= 0 {
		t.Error("no probe contacts metered")
	}
	if rep.PeakHeapBytes == 0 {
		t.Error("peak heap not sampled")
	}
	for k, v := range rep.AvgUtility {
		if v <= 0 {
			t.Errorf("scheme %s utility %g", rep.Schemes[k], v)
		}
	}
}

// TestHybridComparisonWorkerInvariance: the hybrid trial path must stay
// bit-identical across worker counts, like every other runner on the
// parallel trial engine, and must not respond to the shard knob (the
// fluid path has no shards).
func TestHybridComparisonWorkerInvariance(t *testing.T) {
	run := func(workers, shards int) *Comparison {
		t.Helper()
		sc, m := hybridTiny(t)
		sc.Workers = workers
		sc.Shards = shards
		cmp, err := sc.RunStructuredComparison(utility.Step{Tau: 10}, m, []string{SchemeQCR, SchemeUNI})
		if err != nil {
			t.Fatal(err)
		}
		return cmp
	}
	ref := run(1, 1)
	for _, s := range []string{SchemeQCR, SchemeUNI} {
		if ref.Utility[s].N != 2 || ref.Utility[s].Mean <= 0 {
			t.Fatalf("%s summary %+v", s, ref.Utility[s])
		}
	}
	if got := run(4, 1); !reflect.DeepEqual(ref, got) {
		t.Errorf("workers=4 differs:\nref %+v\ngot %+v", ref, got)
	}
	if got := run(1, 4); !reflect.DeepEqual(ref, got) {
		t.Errorf("shards=4 differs:\nref %+v\ngot %+v", ref, got)
	}
}

// TestHybridOffMatchesEventPath: a zero-valued Hybrid option set must
// route StructuredScale through the exact event executor — digest family
// and all — that a scenario without the field produces. Together with
// the pinned golden digests this is the hybrid-off identity guarantee.
func TestHybridOffMatchesEventPath(t *testing.T) {
	sc, m := hybridTiny(t)
	sc.Hybrid.Enabled = false
	off, err := sc.StructuredScale(utility.Step{Tau: 10}, m, []string{SchemeQCR, SchemeUNI}, 0)
	if err != nil {
		t.Fatal(err)
	}
	sc2, _ := hybridTiny(t)
	sc2.Hybrid = Default().Hybrid // the untouched zero value
	ref, err := sc2.StructuredScale(utility.Step{Tau: 10}, m, []string{SchemeQCR, SchemeUNI}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if off.Hybrid || ref.Hybrid {
		t.Fatal("event-path report marked hybrid")
	}
	if off.DigestFamily != ref.DigestFamily {
		t.Errorf("digest family %#x vs %#x with hybrid off", off.DigestFamily, ref.DigestFamily)
	}
}

const hybridGoldenPath = "testdata/hybrid_digests.json"

// TestHybridDigestsPinned is the hybrid twin of TestGoldenDigestsPinned,
// kept in its own testdata file so the event-path pin stays byte-for-byte
// what earlier releases committed. Refresh after an intended change:
//
//	go test ./internal/experiment -run TestHybridDigestsPinned -update
func TestHybridDigestsPinned(t *testing.T) {
	sc, m := hybridTiny(t)
	xsc, xm := hybridBenchShape(t)
	got := make(map[string]string)
	for _, tc := range []struct {
		name    string
		sc      Scenario
		m       *rates.Model
		u       utility.Function
		schemes []string
	}{
		{"hybrid-qcr-uni", sc, m, utility.Step{Tau: 10}, []string{SchemeQCR, SchemeUNI}},
		{"hybrid-statics", sc, m, utility.Step{Tau: 10}, []string{SchemeUNI, SchemePROP, SchemeDOM}},
		{"hybrid-xh-shape", xsc, xm, utility.Power{Alpha: 0}, []string{SchemeQCR, SchemeUNI}},
	} {
		rep, err := tc.sc.StructuredScale(tc.u, tc.m, tc.schemes, 0)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if rep.FluidFraction == 0 || rep.Demotions != 0 {
			t.Errorf("%s: fluid fraction %g, %d demotions: the pin must cover the fluid path", tc.name, rep.FluidFraction, rep.Demotions)
		}
		got[tc.name] = fmt.Sprintf("%#016x", rep.DigestFamily)
	}
	if *update {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(hybridGoldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(hybridGoldenPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", hybridGoldenPath)
		return
	}
	data, err := os.ReadFile(hybridGoldenPath)
	if err != nil {
		t.Fatalf("read %s (regenerate with -update): %v", hybridGoldenPath, err)
	}
	var want map[string]string
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("parse %s: %v", hybridGoldenPath, err)
	}
	for name, g := range got {
		w, ok := want[name]
		if !ok {
			t.Errorf("%s: no pinned digest for %q (rerun with -update)", hybridGoldenPath, name)
			continue
		}
		if g != w {
			t.Errorf("%s: digest %s, pinned %s — hybrid behavior changed; if intended, rerun with -update and commit", name, g, w)
		}
	}
}

// TestHybridFigure3Pipeline exercises the at-scale figure family on a
// tiny model: tables assemble, the expected-utility series is populated,
// and the provenance table reports a fluid run.
func TestHybridFigure3Pipeline(t *testing.T) {
	sc, m := hybridTiny(t)
	tables, err := HybridFigure3(sc, m)
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 4 {
		t.Fatalf("%d tables", len(tables))
	}
	for _, tb := range tables {
		if len(tb.X) == 0 || len(tb.Columns) == 0 {
			t.Errorf("table %q empty", tb.Title)
		}
	}
	prov := tables[3]
	for i := range prov.X {
		if prov.Columns[0].Y[i] <= 0 {
			t.Errorf("trial %d fluid fraction %g", i, prov.Columns[0].Y[i])
		}
		if prov.Columns[1].Y[i] != 0 {
			t.Errorf("trial %d demoted", i)
		}
	}
}

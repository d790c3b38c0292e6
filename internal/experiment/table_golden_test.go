package experiment

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"testing"

	"impatience/internal/plot"
	"impatience/internal/rates"
	"impatience/internal/synth"
	"impatience/internal/utility"
)

// The table goldens pin the figures end to end: trace generation,
// per-point seeding (fault and adversary plans), the trial loop and the
// table assembly. Three families are pinned: the parameter sweeps, the
// binned time series (Figures 3 and 5a, x4, xm and the hybrid xh) and
// the one-shot per-trial tables (X2, XR, X6–X9). Each case digests the
// float bits of X and of every column (plus the column names) of a
// miniature run; the per-trial result digests in golden_digests.json
// cannot see a change in how a figure seeds its trials or reduces them.

const tableGoldenPath = "testdata/table_digests.json"

// tableDigest folds a table's labels and the float bits of every value.
func tableDigest(tables ...*plot.Table) uint64 {
	var acc uint64
	for _, t := range tables {
		acc = mixDigest(acc, uint64(len(t.X)))
		for _, x := range t.X {
			acc = mixDigest(acc, math.Float64bits(x))
		}
		for _, c := range t.Columns {
			h := fnv.New64a()
			h.Write([]byte(c.Name))
			acc = mixDigest(acc, h.Sum64())
			for _, y := range c.Y {
				acc = mixDigest(acc, math.Float64bits(y))
			}
		}
	}
	return acc
}

type tableCase struct {
	name string
	run  func(sc Scenario) ([]*plot.Table, error)
}

func one(t *plot.Table, err error) ([]*plot.Table, error) {
	if err != nil {
		return nil, err
	}
	return []*plot.Table{t}, nil
}

func tableCases() []tableCase {
	conf := synth.DefaultConference()
	conf.Nodes = goldenScenario().Nodes
	conf.Days = 1
	veh := synth.DefaultVehicular()
	veh.Cabs = goldenScenario().Nodes
	veh.DurationMin = 240
	step := utility.Step{Tau: 10}
	power := utility.Power{Alpha: 0}
	return []tableCase{
		{"fig4b", func(sc Scenario) ([]*plot.Table, error) {
			return one(Figure4Step(sc, []float64{5, 50, 500}))
		}},
		{"fig5b", func(sc Scenario) ([]*plot.Table, error) {
			return one(Figure5Step(sc, conf, []float64{10, 200}, false))
		}},
		{"fig6b", func(sc Scenario) ([]*plot.Table, error) {
			return one(Figure6(sc, veh, "step", []float64{5, 100}))
		}},
		{"x1-rho", func(sc Scenario) ([]*plot.Table, error) {
			return one(AblationCacheSize(sc, []int{2, 4}, step))
		}},
		{"x1-omega", func(sc Scenario) ([]*plot.Table, error) {
			return one(AblationPopularity(sc, []float64{0.5, 1.5}, step))
		}},
		{"xd-loss", func(sc Scenario) ([]*plot.Table, error) {
			return one(DegradationLoss(sc, step, []float64{0, 0.3}))
		}},
		{"xd-churn", func(sc Scenario) ([]*plot.Table, error) {
			return one(DegradationChurn(sc, step, []float64{0, 0.002}))
		}},
		{"xa-dishonest", func(sc Scenario) ([]*plot.Table, error) {
			return one(RobustnessDishonest(sc, power, []float64{0, 0.25}, 25))
		}},
		{"xa-inflation", func(sc Scenario) ([]*plot.Table, error) {
			return one(RobustnessInflation(sc, power, []float64{1, 25}, 0.25))
		}},
		{"xa-freeriders", func(sc Scenario) ([]*plot.Table, error) {
			return one(RobustnessFreeRiders(sc, power, []float64{0, 0.25}))
		}},
		{"xf", func(sc Scenario) ([]*plot.Table, error) {
			return one(RobustnessFlashCrowd(sc, power, []float64{0, 200}))
		}},
		{"xn", func(sc Scenario) ([]*plot.Table, error) {
			sc.Duration = 1440 // one day, so the day/night window bites
			return one(RobustnessDiurnal(sc, step, []float64{1, 0.1}))
		}},
		// Binned time series.
		{"fig3", Figure3},
		{"fig5a", func(sc Scenario) ([]*plot.Table, error) {
			return one(Figure5TimeSeries(sc, conf, 60))
		}},
		{"x4", func(sc Scenario) ([]*plot.Table, error) {
			return one(DynamicDemand(sc, step))
		}},
		{"xm", func(sc Scenario) ([]*plot.Table, error) {
			return one(MassFailureRecovery(sc, step, 0.5))
		}},
		{"xh", func(sc Scenario) ([]*plot.Table, error) {
			// Two 100-node communities: the smallest model on which the
			// fluid limit carries a real share of the population.
			sc.Nodes, sc.Items, sc.Rho, sc.Duration = 200, 10, 2, 800
			m, err := rates.New([]int{100, 100}, [][]float64{{0.02, 0.004}, {0.004, 0.03}}, nil)
			if err != nil {
				return nil, err
			}
			return HybridFigure3(sc, m)
		}},
		// One-shot per-trial tables.
		{"x2", func(sc Scenario) ([]*plot.Table, error) {
			return one(AblationRewriting(sc, power))
		}},
		{"xr", func(sc Scenario) ([]*plot.Table, error) {
			return one(ReactionComparison(sc, power))
		}},
		{"x6", func(sc Scenario) ([]*plot.Table, error) {
			return one(OverheadComparison(sc, power))
		}},
		{"x7", func(sc Scenario) ([]*plot.Table, error) {
			return one(MixedCatalog(sc))
		}},
		{"x8", func(sc Scenario) ([]*plot.Table, error) {
			return one(DedicatedKiosks(sc, 4))
		}},
		{"x9", func(sc Scenario) ([]*plot.Table, error) {
			return one(AdaptiveImpatience(sc, 0.1))
		}},
	}
}

// TestTableDigestsPinned requires every pinned table to match its pinned
// digest at workers 1 and 4. Regenerate after an intended change with
//
//	go test ./internal/experiment -run TestTableDigestsPinned -update
func TestTableDigestsPinned(t *testing.T) {
	got := make(map[string]string)
	for _, tc := range tableCases() {
		var ref string
		for _, w := range []int{1, 4} {
			sc := goldenScenario()
			sc.Workers = w
			tables, err := tc.run(sc)
			if err != nil {
				t.Fatalf("%s workers=%d: %v", tc.name, w, err)
			}
			d := fmt.Sprintf("%#016x", tableDigest(tables...))
			if w == 1 {
				ref = d
			} else if d != ref {
				t.Errorf("%s: workers=%d digest %s != workers=1 %s", tc.name, w, d, ref)
			}
		}
		got[tc.name] = ref
	}
	if *update {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(tableGoldenPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", tableGoldenPath)
		return
	}
	data, err := os.ReadFile(tableGoldenPath)
	if err != nil {
		t.Fatalf("read %s (regenerate with -update): %v", tableGoldenPath, err)
	}
	var want map[string]string
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("parse %s: %v", tableGoldenPath, err)
	}
	if len(want) != len(got) {
		t.Errorf("%s pins %d tables, test produces %d (stale file? rerun with -update)", tableGoldenPath, len(want), len(got))
	}
	for name, g := range got {
		if w, ok := want[name]; !ok {
			t.Errorf("%s: no pinned digest for %q (rerun with -update)", tableGoldenPath, name)
		} else if g != w {
			t.Errorf("%s: table digest %s, pinned %s — the figure's output changed", name, g, w)
		}
	}
}

// Benchmarks regenerating every table and figure of the paper's
// evaluation, at reduced scale so `go test -bench=. -benchmem` finishes
// in minutes. Each benchmark logs the rows/series it produced; the full-
// scale versions live behind cmd/agefigures. The experiment index mapping
// benchmarks to paper artifacts is in DESIGN.md §5 and EXPERIMENTS.md.
package impatience_test

import (
	"fmt"
	"strings"
	"testing"

	"impatience/internal/experiment"
	"impatience/internal/plot"
	"impatience/internal/synth"
	"impatience/internal/utility"
)

// benchScenario is the reduced-scale evaluation scenario used by all
// simulation benchmarks: same population shape as the paper (50 nodes,
// 50 items, ρ=5), fewer trials and shorter runs.
func benchScenario() experiment.Scenario {
	sc := experiment.Default()
	sc.Trials = 3
	sc.Duration = 2000
	return sc
}

func benchConference() synth.ConferenceConfig {
	cfg := synth.DefaultConference()
	cfg.Days = 1
	return cfg
}

func benchVehicular() synth.VehicularConfig {
	cfg := synth.DefaultVehicular()
	cfg.DurationMin = 480
	return cfg
}

// logTable emits a table's summary rows into the benchmark log.
func logTable(b *testing.B, t *plot.Table) {
	b.Helper()
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s\n%-14s", t.Title, t.XLabel)
	for _, c := range t.Columns {
		fmt.Fprintf(&sb, " %14s", c.Name)
	}
	sb.WriteByte('\n')
	for i := range t.X {
		fmt.Fprintf(&sb, "%-14.5g", t.X[i])
		for _, c := range t.Columns {
			fmt.Fprintf(&sb, " %14.5g", c.Y[i])
		}
		sb.WriteByte('\n')
	}
	b.Log(sb.String())
}

// logTableTail logs only the last row (for long time series).
func logTableTail(b *testing.B, t *plot.Table) {
	b.Helper()
	if len(t.X) == 0 {
		return
	}
	i := len(t.X) - 1
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s (final row)\n%s=%.5g:", t.Title, t.XLabel, t.X[i])
	for _, c := range t.Columns {
		fmt.Fprintf(&sb, " %s=%.5g", c.Name, c.Y[i])
	}
	b.Log(sb.String())
}

// BenchmarkTable1ClosedForms regenerates Table 1 (delay-utility families
// with their ϕ and ψ transforms, numerically cross-checked).
func BenchmarkTable1ClosedForms(b *testing.B) {
	var out string
	for i := 0; i < b.N; i++ {
		out = experiment.Table1(0.05, 50)
	}
	b.Log("\n" + out)
}

// BenchmarkFigure1Utilities regenerates the three delay-utility panels.
func BenchmarkFigure1Utilities(b *testing.B) {
	var tables []*plot.Table
	for i := 0; i < b.N; i++ {
		tables = experiment.Figure1()
	}
	for _, t := range tables {
		logTableTail(b, t)
	}
}

// BenchmarkFigure2Exponent regenerates the optimal-allocation exponent
// curve, fitted from the water-filled relaxed optimum.
func BenchmarkFigure2Exponent(b *testing.B) {
	sc := benchScenario()
	var t *plot.Table
	for i := 0; i < b.N; i++ {
		var err error
		t, err = experiment.Figure2(sc)
		if err != nil {
			b.Fatal(err)
		}
	}
	logTable(b, t)
}

// BenchmarkFigure3MandateRouting regenerates the mandate-routing
// comparison (expected/observed utility and replica dynamics).
func BenchmarkFigure3MandateRouting(b *testing.B) {
	sc := benchScenario()
	sc.Trials = 2
	var tables []*plot.Table
	for i := 0; i < b.N; i++ {
		var err error
		tables, err = experiment.Figure3(sc)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, t := range tables {
		logTableTail(b, t)
	}
}

// BenchmarkFigure4Power regenerates Figure 4 (left): loss vs α.
func BenchmarkFigure4Power(b *testing.B) {
	sc := benchScenario()
	alphas := []float64{-2, -1, 0, 0.5}
	var t *plot.Table
	for i := 0; i < b.N; i++ {
		var err error
		t, err = experiment.Figure4Power(sc, alphas)
		if err != nil {
			b.Fatal(err)
		}
	}
	logTable(b, t)
}

// BenchmarkFigure4Step regenerates Figure 4 (right): loss vs τ.
func BenchmarkFigure4Step(b *testing.B) {
	sc := benchScenario()
	taus := []float64{3, 10, 100, 1000}
	var t *plot.Table
	for i := 0; i < b.N; i++ {
		var err error
		t, err = experiment.Figure4Step(sc, taus)
		if err != nil {
			b.Fatal(err)
		}
	}
	logTable(b, t)
}

// BenchmarkFigure5TimeSeries regenerates Figure 5a: utility over time on
// the conference trace.
func BenchmarkFigure5TimeSeries(b *testing.B) {
	sc := benchScenario()
	sc.Trials = 2
	var t *plot.Table
	for i := 0; i < b.N; i++ {
		var err error
		t, err = experiment.Figure5TimeSeries(sc, benchConference(), 60)
		if err != nil {
			b.Fatal(err)
		}
	}
	logTableTail(b, t)
}

// BenchmarkFigure5StepActual regenerates Figure 5b: loss vs τ on the
// actual (bursty, diurnal) conference trace.
func BenchmarkFigure5StepActual(b *testing.B) {
	sc := benchScenario()
	sc.Trials = 2
	taus := []float64{30, 120, 600}
	var t *plot.Table
	for i := 0; i < b.N; i++ {
		var err error
		t, err = experiment.Figure5Step(sc, benchConference(), taus, false)
		if err != nil {
			b.Fatal(err)
		}
	}
	logTable(b, t)
}

// BenchmarkFigure5StepSynthesized regenerates Figure 5c: loss vs τ on the
// memoryless counterpart of the conference trace.
func BenchmarkFigure5StepSynthesized(b *testing.B) {
	sc := benchScenario()
	sc.Trials = 2
	taus := []float64{30, 120, 600}
	var t *plot.Table
	for i := 0; i < b.N; i++ {
		var err error
		t, err = experiment.Figure5Step(sc, benchConference(), taus, true)
		if err != nil {
			b.Fatal(err)
		}
	}
	logTable(b, t)
}

// BenchmarkFigure6Power regenerates Figure 6a: loss vs α on the vehicular
// trace.
func BenchmarkFigure6Power(b *testing.B) {
	sc := benchScenario()
	sc.Trials = 2
	var t *plot.Table
	for i := 0; i < b.N; i++ {
		var err error
		t, err = experiment.Figure6(sc, benchVehicular(), "power", []float64{-1, 0, 0.5})
		if err != nil {
			b.Fatal(err)
		}
	}
	logTable(b, t)
}

// BenchmarkFigure6Step regenerates Figure 6b: loss vs τ on the vehicular
// trace.
func BenchmarkFigure6Step(b *testing.B) {
	sc := benchScenario()
	sc.Trials = 2
	var t *plot.Table
	for i := 0; i < b.N; i++ {
		var err error
		t, err = experiment.Figure6(sc, benchVehicular(), "step", []float64{30, 120, 600})
		if err != nil {
			b.Fatal(err)
		}
	}
	logTable(b, t)
}

// BenchmarkFigure6Exponential regenerates Figure 6c: loss vs ν on the
// vehicular trace.
func BenchmarkFigure6Exponential(b *testing.B) {
	sc := benchScenario()
	sc.Trials = 2
	var t *plot.Table
	for i := 0; i < b.N; i++ {
		var err error
		t, err = experiment.Figure6(sc, benchVehicular(), "exp", []float64{0.001, 0.01, 0.1})
		if err != nil {
			b.Fatal(err)
		}
	}
	logTable(b, t)
}

// BenchmarkAblationCacheSize sweeps ρ (X1a).
func BenchmarkAblationCacheSize(b *testing.B) {
	sc := benchScenario()
	sc.Trials = 2
	var t *plot.Table
	for i := 0; i < b.N; i++ {
		var err error
		t, err = experiment.AblationCacheSize(sc, []int{2, 5, 10}, utility.Step{Tau: 10})
		if err != nil {
			b.Fatal(err)
		}
	}
	logTable(b, t)
}

// BenchmarkAblationPopularity sweeps ω (X1b).
func BenchmarkAblationPopularity(b *testing.B) {
	sc := benchScenario()
	sc.Trials = 2
	var t *plot.Table
	for i := 0; i < b.N; i++ {
		var err error
		t, err = experiment.AblationPopularity(sc, []float64{0.5, 1, 2}, utility.Step{Tau: 10})
		if err != nil {
			b.Fatal(err)
		}
	}
	logTable(b, t)
}

// BenchmarkAblationRewriting compares the two QCR replica-accounting
// variants (X2).
func BenchmarkAblationRewriting(b *testing.B) {
	sc := benchScenario()
	sc.Trials = 2
	var t *plot.Table
	for i := 0; i < b.N; i++ {
		var err error
		t, err = experiment.AblationRewriting(sc, utility.Power{Alpha: 0})
		if err != nil {
			b.Fatal(err)
		}
	}
	logTable(b, t)
}

// BenchmarkMeanFieldConvergence integrates the Eq. 7 fluid dynamics (X3).
func BenchmarkMeanFieldConvergence(b *testing.B) {
	sc := benchScenario()
	var t *plot.Table
	for i := 0; i < b.N; i++ {
		var err error
		t, err = experiment.MeanFieldConvergence(sc, utility.Power{Alpha: 0}, 5000, 10)
		if err != nil {
			b.Fatal(err)
		}
	}
	logTableTail(b, t)
}

// BenchmarkDynamicDemand flips demand mid-run (X4).
func BenchmarkDynamicDemand(b *testing.B) {
	sc := benchScenario()
	sc.Trials = 2
	var t *plot.Table
	for i := 0; i < b.N; i++ {
		var err error
		t, err = experiment.DynamicDemand(sc, utility.Step{Tau: 10})
		if err != nil {
			b.Fatal(err)
		}
	}
	logTableTail(b, t)
}

// BenchmarkDiscreteVsContinuous quantifies the δ → 0 agreement (X5).
func BenchmarkDiscreteVsContinuous(b *testing.B) {
	sc := benchScenario()
	var t *plot.Table
	for i := 0; i < b.N; i++ {
		var err error
		t, err = experiment.DiscreteVsContinuous(sc, utility.Exponential{Nu: 0.2}, nil)
		if err != nil {
			b.Fatal(err)
		}
	}
	logTable(b, t)
}

// BenchmarkOverheadComparison tallies protocol traffic per scheme (X6).
func BenchmarkOverheadComparison(b *testing.B) {
	sc := benchScenario()
	sc.Trials = 2
	var t *plot.Table
	for i := 0; i < b.N; i++ {
		var err error
		t, err = experiment.OverheadComparison(sc, utility.Power{Alpha: 0})
		if err != nil {
			b.Fatal(err)
		}
	}
	logTable(b, t)
}

// BenchmarkMixedCatalog exercises per-item delay-utilities (X7).
func BenchmarkMixedCatalog(b *testing.B) {
	sc := benchScenario()
	sc.Trials = 2
	var t *plot.Table
	for i := 0; i < b.N; i++ {
		var err error
		t, err = experiment.MixedCatalog(sc)
		if err != nil {
			b.Fatal(err)
		}
	}
	logTable(b, t)
}

// BenchmarkDedicatedKiosks runs the dedicated-node case with the neglog
// utility (X8).
func BenchmarkDedicatedKiosks(b *testing.B) {
	sc := benchScenario()
	sc.Trials = 2
	var t *plot.Table
	for i := 0; i < b.N; i++ {
		var err error
		t, err = experiment.DedicatedKiosks(sc, sc.Nodes/5)
		if err != nil {
			b.Fatal(err)
		}
	}
	logTable(b, t)
}

// BenchmarkAdaptiveImpatience learns ν from consumption feedback (X9).
func BenchmarkAdaptiveImpatience(b *testing.B) {
	sc := benchScenario()
	sc.Trials = 2
	var t *plot.Table
	for i := 0; i < b.N; i++ {
		var err error
		t, err = experiment.AdaptiveImpatience(sc, 0.1)
		if err != nil {
			b.Fatal(err)
		}
	}
	logTable(b, t)
}

// BenchmarkReactionComparison pits tuned ψ against path replication and
// constant reactions.
func BenchmarkReactionComparison(b *testing.B) {
	sc := benchScenario()
	sc.Trials = 2
	var t *plot.Table
	for i := 0; i < b.N; i++ {
		var err error
		t, err = experiment.ReactionComparison(sc, utility.Power{Alpha: 0})
		if err != nil {
			b.Fatal(err)
		}
	}
	logTable(b, t)
}

package experiment

import (
	"math"
	"strings"
	"sync/atomic"
	"testing"

	"impatience/internal/synth"
	"impatience/internal/trace"
	"impatience/internal/utility"
)

// tiny returns a scenario small enough for unit tests.
func tiny() Scenario {
	sc := Default()
	sc.Nodes = 15
	sc.Items = 10
	sc.Rho = 2
	sc.Duration = 1200
	sc.Trials = 2
	return sc
}

func TestScaled(t *testing.T) {
	sc := Default().Scaled(0.2, 0.5)
	if sc.Trials != 3 {
		t.Errorf("trials %d, want 3", sc.Trials)
	}
	if sc.Duration != 2500 {
		t.Errorf("duration %g, want 2500", sc.Duration)
	}
	if Default().Scaled(0.001, 1).Trials != 1 {
		t.Error("trials floor broken")
	}
}

func TestHomogeneousSourcesDeterministic(t *testing.T) {
	sc := tiny()
	gen := func(seed uint64) *trace.Trace {
		t.Helper()
		src, err := sc.HomogeneousSources()(seed)
		if err != nil {
			t.Fatal(err)
		}
		tr, err := trace.Collect(src)
		if err != nil {
			t.Fatal(err)
		}
		return tr
	}
	a, b := gen(5), gen(5)
	if len(a.Contacts) != len(b.Contacts) {
		t.Error("trace generation nondeterministic")
	}
	c := gen(6)
	if len(a.Contacts) == len(c.Contacts) && len(a.Contacts) > 0 && a.Contacts[0] == c.Contacts[0] {
		t.Error("different seeds produced identical traces")
	}
}

func TestBuildStaticAllSchemes(t *testing.T) {
	sc := tiny()
	pop := sc.Pop()
	src, err := sc.HomogeneousSources()(1)
	if err != nil {
		t.Fatal(err)
	}
	rates, err := trace.EmpiricalRatesFrom(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, scheme := range AllCompetitors {
		counts, placement, err := buildStatic(sc, scheme, utility.Step{Tau: 10}, pop, rates)
		if err != nil {
			t.Fatalf("%s: %v", scheme, err)
		}
		if err := counts.Validate(sc.Nodes, sc.Rho); err != nil {
			t.Errorf("%s infeasible: %v", scheme, err)
		}
		if scheme == SchemeOPT && placement == nil {
			t.Error("OPT should return a concrete placement")
		}
	}
	if _, _, err := buildStatic(sc, "bogus", utility.Step{Tau: 1}, pop, rates); err == nil {
		t.Error("unknown scheme accepted")
	}
}

func TestRunComparisonHomogeneous(t *testing.T) {
	sc := tiny()
	cmp, err := sc.RunComparison(utility.Step{Tau: 10}, sc.HomogeneousSources(),
		[]string{SchemeQCR, SchemeOPT, SchemeUNI})
	if err != nil {
		t.Fatalf("RunComparison: %v", err)
	}
	if cmp.Utility[SchemeOPT].N != sc.Trials {
		t.Errorf("OPT trials %d", cmp.Utility[SchemeOPT].N)
	}
	if got := cmp.Loss[SchemeOPT].Mean; got != 0 {
		t.Errorf("OPT loss vs itself %g, want 0", got)
	}
	// All utilities positive for the step function.
	for _, s := range cmp.Schemes {
		if cmp.Utility[s].Mean <= 0 {
			t.Errorf("%s mean utility %g", s, cmp.Utility[s].Mean)
		}
	}
}

func TestFigure1Shapes(t *testing.T) {
	tables := Figure1()
	if len(tables) != 3 {
		t.Fatalf("got %d panels", len(tables))
	}
	for _, tb := range tables {
		if len(tb.Columns) != 3 {
			t.Errorf("%s: %d curves", tb.Title, len(tb.Columns))
		}
		for _, c := range tb.Columns {
			// All delay-utilities are non-increasing.
			for i := 1; i < len(c.Y); i++ {
				if c.Y[i] > c.Y[i-1]+1e-12 {
					t.Errorf("%s/%s increases at %d", tb.Title, c.Name, i)
					break
				}
			}
		}
	}
}

func TestFigure2ExponentAgreement(t *testing.T) {
	sc := tiny()
	tb, err := Figure2(sc)
	if err != nil {
		t.Fatalf("Figure2: %v", err)
	}
	if len(tb.Columns) != 2 {
		t.Fatalf("columns %d", len(tb.Columns))
	}
	closed, fitted := tb.Columns[0].Y, tb.Columns[1].Y
	for i := range tb.X {
		if tb.X[i] > 1.2 {
			continue // near α→2 caps bind; the fit is noisier
		}
		if math.Abs(closed[i]-fitted[i]) > 0.05*math.Max(0.3, closed[i]) {
			t.Errorf("α=%g: closed %g vs fitted %g", tb.X[i], closed[i], fitted[i])
		}
	}
}

func TestTable1Renders(t *testing.T) {
	out := Table1(0.05, 50)
	for _, want := range []string{"Step", "Exponential", "Inverse power", "Negative log"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table 1 missing %q", want)
		}
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 7 {
		t.Errorf("Table 1 has %d lines", len(lines))
	}
}

func TestSweepSmall(t *testing.T) {
	sc := tiny()
	sc.Trials = 1
	tb, err := sc.Sweep("test sweep", "tau", []float64{5, 50},
		func(tau float64) utility.Function { return utility.Step{Tau: tau} },
		sc.HomogeneousSources(),
		[]string{SchemeQCR, SchemeOPT, SchemeUNI})
	if err != nil {
		t.Fatalf("Sweep: %v", err)
	}
	if len(tb.X) != 2 {
		t.Errorf("x has %d points", len(tb.X))
	}
	// OPT column dropped (identically zero), QCR and UNI present.
	if len(tb.Columns) != 2 {
		t.Errorf("got %d columns", len(tb.Columns))
	}
	for _, c := range tb.Columns {
		for i, v := range c.Y {
			if math.IsNaN(v) {
				t.Errorf("%s[%d] is NaN", c.Name, i)
			}
		}
	}
}

// TestSweepGeneratesEachTrialOnce: a sweep is trial-major — every trial
// generates its contacts once and replays them at every point, instead
// of regenerating them per point.
func TestSweepGeneratesEachTrialOnce(t *testing.T) {
	sc := tiny()
	sc.Duration = 300
	var calls atomic.Int64
	base := sc.HomogeneousSources()
	gen := func(seed uint64) (trace.Source, error) {
		calls.Add(1)
		return base(seed)
	}
	if _, err := sc.Sweep("count", "tau", []float64{5, 50, 500},
		func(tau float64) utility.Function { return utility.Step{Tau: tau} },
		gen, []string{SchemeQCR, SchemeOPT}); err != nil {
		t.Fatal(err)
	}
	if got := calls.Load(); got != int64(sc.Trials) {
		t.Errorf("generator called %d times for %d trials × 3 points, want %d", got, sc.Trials, sc.Trials)
	}
}

func TestMeanFieldConvergenceTable(t *testing.T) {
	sc := tiny()
	tb, err := MeanFieldConvergence(sc, utility.Power{Alpha: 0}, 5000, 10)
	if err != nil {
		t.Fatalf("MeanFieldConvergence: %v", err)
	}
	fluid := tb.Columns[0].Y
	opt := tb.Columns[1].Y
	// Fluid welfare approaches the optimum from below.
	last := len(fluid) - 1
	if fluid[last] > opt[last]+1e-9 {
		t.Errorf("fluid %g above optimum %g", fluid[last], opt[last])
	}
	if math.Abs(fluid[last]-opt[last]) > 0.02*math.Abs(opt[last]) {
		t.Errorf("fluid did not converge: %g vs %g", fluid[last], opt[last])
	}
	if fluid[0] > fluid[last] {
		t.Error("welfare did not improve from uniform start")
	}
}

func TestDiscreteVsContinuousTable(t *testing.T) {
	sc := tiny()
	tb, err := DiscreteVsContinuous(sc, utility.Exponential{Nu: 0.2}, nil)
	if err != nil {
		t.Fatalf("DiscreteVsContinuous: %v", err)
	}
	disc := tb.Columns[0].Y
	cont := tb.Columns[1].Y
	// Gap shrinks monotonically along decreasing δ.
	for i := 1; i < len(disc); i++ {
		g0 := math.Abs(disc[i-1] - cont[i-1])
		g1 := math.Abs(disc[i] - cont[i])
		if g1 > g0+1e-9 {
			t.Errorf("gap grew from δ=%g to δ=%g", tb.X[i-1], tb.X[i])
		}
	}
}

func TestConferenceTracesWiring(t *testing.T) {
	cfg := synth.DefaultConference()
	cfg.Nodes = 12
	cfg.Days = 1
	gen := ConferenceTraces(cfg)
	tr, err := gen(3)
	if err != nil {
		t.Fatalf("ConferenceTraces: %v", err)
	}
	if tr.Nodes != 12 {
		t.Errorf("nodes %d", tr.Nodes)
	}
	ml := MemorylessOf(gen)
	tr2, err := ml(3)
	if err != nil {
		t.Fatalf("MemorylessOf: %v", err)
	}
	if tr2.Nodes != 12 || tr2.Duration != tr.Duration {
		t.Error("memoryless header mismatch")
	}
}

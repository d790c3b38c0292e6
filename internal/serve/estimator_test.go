package serve

import (
	"math"
	"testing"

	"impatience/internal/demand"
)

func TestEstimatorConvergesToConstantRate(t *testing.T) {
	e, err := NewEstimator(3, 10)
	if err != nil {
		t.Fatal(err)
	}
	// 300 s of a constant firehose (30 half-lives: the initial zero state
	// retains weight 2⁻³⁰): item 0 at 100 req/s, item 2 at 25.
	for k := 0; k < 300; k++ {
		if err := e.Fold([]float64{100, 0, 25}, 1); err != nil {
			t.Fatal(err)
		}
	}
	pop := e.Snapshot()
	if math.Abs(pop.Rates[0]-100) > 1e-3 || math.Abs(pop.Rates[2]-25) > 1e-3 {
		t.Fatalf("estimates %v, want ≈ [100 0 25]", pop.Rates)
	}
	if e.Observed() != 300*125 {
		t.Fatalf("observed %d, want %d", e.Observed(), 300*125)
	}
}

// TestEstimatorObservedKeepsFractions is the regression for a counter that
// truncated every window's total before adding it: ten windows of 0.8
// requests reported 0. The running total keeps the fractions, and a
// snapshot restore (which persists the whole number) loses less than one.
func TestEstimatorObservedKeepsFractions(t *testing.T) {
	e, err := NewEstimator(2, 10)
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 10; k++ {
		if err := e.Fold([]float64{0.5, 0.3}, 0.5); err != nil {
			t.Fatal(err)
		}
	}
	if got := e.Observed(); got != 8 {
		t.Fatalf("ten windows of 0.8: observed %d, want 8", got)
	}
	e.Fold([]float64{0.7, 0}, 0.5)
	if got := e.Observed(); got != 8 {
		t.Fatalf("8.7 requests: observed %d, want 8", got)
	}
	if err := e.restore(e.Snapshot().Rates, e.Observed()); err != nil {
		t.Fatal(err)
	}
	e.Fold([]float64{0.6, 0.4}, 0.5)
	if got := e.Observed(); got != 9 {
		t.Fatalf("restored 8 + 1: observed %d, want 9", got)
	}
}

func TestEstimatorHalfLifeDecay(t *testing.T) {
	e, err := NewEstimator(1, 30)
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 400; k++ {
		e.Fold([]float64{50}, 1)
	}
	before := e.Snapshot().Rates[0]
	// One silent half-life in a single window halves the estimate.
	if err := e.Fold([]float64{0}, 30); err != nil {
		t.Fatal(err)
	}
	after := e.Snapshot().Rates[0]
	if rel := math.Abs(after-before/2) / before; rel > 1e-9 {
		t.Fatalf("after one silent half-life: %g, want %g", after, before/2)
	}
}

func TestEstimatorRejectsBadInput(t *testing.T) {
	if _, err := NewEstimator(0, 10); err == nil {
		t.Error("empty catalog accepted")
	}
	if _, err := NewEstimator(5, 0); err == nil {
		t.Error("zero half-life accepted")
	}
	if _, err := NewEstimator(5, math.Inf(1)); err == nil {
		t.Error("infinite half-life accepted")
	}
	e, err := NewEstimator(2, 10)
	if err != nil {
		t.Fatal(err)
	}
	e.Fold([]float64{4, 6}, 1)
	want := e.Snapshot()
	for name, tc := range map[string]struct {
		counts []float64
		window float64
	}{
		"wrong-len":   {[]float64{1}, 1},
		"neg-count":   {[]float64{-1, 0}, 1},
		"nan-count":   {[]float64{math.NaN(), 0}, 1},
		"inf-count":   {[]float64{math.Inf(1), 0}, 1},
		"zero-window": {[]float64{1, 1}, 0},
		"neg-window":  {[]float64{1, 1}, -3},
		"nan-window":  {[]float64{1, 1}, math.NaN()},
		"inf-window":  {[]float64{1, 1}, math.Inf(1)},
	} {
		if err := e.Fold(tc.counts, tc.window); err == nil {
			t.Errorf("%s: accepted", name)
			continue
		}
		got := e.Snapshot()
		for i := range got.Rates {
			if got.Rates[i] != want.Rates[i] {
				t.Errorf("%s: estimator mutated on error: %v != %v", name, got.Rates, want.Rates)
				break
			}
		}
	}
}

func TestDriftL1ScaleInvariantShapeSensitive(t *testing.T) {
	a := demand.Popularity{Rates: []float64{8, 4, 2, 1}}
	scaled := demand.Popularity{Rates: []float64{80, 40, 20, 10}}
	if d := demand.DriftL1(a, scaled); d != 0 {
		t.Errorf("pure rescale drifted %g, want 0", d)
	}
	disjoint := demand.Popularity{Rates: []float64{0, 0, 0, 1}}
	flipped := demand.Popularity{Rates: []float64{1, 0, 0, 0}}
	if d := demand.DriftL1(disjoint, flipped); math.Abs(d-1) > 1e-15 {
		t.Errorf("disjoint support drifted %g, want 1", d)
	}
	if d := demand.DriftL1(a, demand.Popularity{Rates: []float64{1, 2}}); d != 1 {
		t.Errorf("length mismatch drifted %g, want 1", d)
	}
	if d := demand.DriftL1(demand.Popularity{Rates: []float64{0, 0}}, demand.Popularity{Rates: []float64{0, 0}}); d != 0 {
		t.Errorf("both-empty drifted %g, want 0", d)
	}
}

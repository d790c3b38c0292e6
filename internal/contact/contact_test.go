package contact

import (
	"math"
	"math/rand/v2"
	"strings"
	"testing"

	"impatience/internal/trace"
)

func newRNG(seed uint64) *rand.Rand { return rand.New(rand.NewPCG(seed, seed*2654435761)) }

func TestGenerateHomogeneousRates(t *testing.T) {
	const (
		nodes    = 20
		mu       = 0.05
		duration = 2000.0
	)
	tr, err := GenerateHomogeneous(nodes, mu, duration, newRNG(1))
	if err != nil {
		t.Fatalf("GenerateHomogeneous: %v", err)
	}
	if err := tr.Validate(); err != nil {
		t.Fatalf("invalid trace: %v", err)
	}
	want := float64(trace.NumPairs(nodes)) * mu * duration
	got := float64(len(tr.Contacts))
	if math.Abs(got-want) > 4*math.Sqrt(want) {
		t.Errorf("contact count %g, want ≈%g", got, want)
	}
	// Per-pair empirical rates should recover µ.
	rm := trace.EmpiricalRates(tr)
	if m := rm.Mean(); math.Abs(m-mu) > 0.003 {
		t.Errorf("mean empirical rate %g, want %g", m, mu)
	}
}

func TestGenerateHeterogeneousRates(t *testing.T) {
	rm := trace.NewRateMatrix(4)
	rm.Set(0, 1, 0.2)
	rm.Set(2, 3, 0.05)
	// Pairs (0,2),(0,3),(1,2),(1,3) never meet.
	tr, err := Generate(rm, 5000, newRNG(2))
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	emp := trace.EmpiricalRates(tr)
	if got := emp.At(0, 1); math.Abs(got-0.2) > 0.02 {
		t.Errorf("µ(0,1)=%g, want 0.2", got)
	}
	if got := emp.At(2, 3); math.Abs(got-0.05) > 0.01 {
		t.Errorf("µ(2,3)=%g, want 0.05", got)
	}
	if got := emp.At(0, 2); got != 0 {
		t.Errorf("µ(0,2)=%g, want exactly 0", got)
	}
}

func TestGenerateZeroRates(t *testing.T) {
	tr, err := Generate(trace.NewRateMatrix(5), 100, newRNG(3))
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	if len(tr.Contacts) != 0 {
		t.Errorf("zero-rate matrix produced %d contacts", len(tr.Contacts))
	}
}

// TestGenerateRejectsInvalidRates: matrices mixing negative (or NaN)
// entries with positive ones used to slip through — Generate only checked
// the total, so a non-monotonic CDF could silently mis-assign contacts.
// Every generator must refuse them up front, and a genuinely all-zero
// matrix must return the documented zero-contact trace.
func TestGenerateRejectsInvalidRates(t *testing.T) {
	bad := trace.NewRateMatrix(4)
	bad.Set(0, 1, 0.5)
	bad.Set(1, 2, -0.5) // total still positive
	bad.Set(2, 3, 0)
	if _, err := Generate(bad, 100, newRNG(8)); err == nil {
		t.Error("Generate accepted a negative rate")
	}
	if _, err := GenerateDiscrete(bad, 100, 1, newRNG(8)); err == nil {
		t.Error("GenerateDiscrete accepted a negative rate")
	}
	if _, err := NewStream(bad, 100, newRNG(8)); err == nil {
		t.Error("NewStream accepted a negative rate")
	}
	if _, err := NewDiscreteStream(bad, 100, 1, newRNG(8)); err == nil {
		t.Error("NewDiscreteStream accepted a negative rate")
	}

	nan := trace.NewRateMatrix(3)
	nan.Set(0, 1, math.NaN())
	if _, err := Generate(nan, 100, newRNG(8)); err == nil {
		t.Error("Generate accepted a NaN rate")
	}

	// Zero-total with zero entries only: the documented empty trace.
	zero := trace.NewRateMatrix(4)
	tr, err := GenerateDiscrete(zero, 100, 1, newRNG(8))
	if err != nil {
		t.Fatalf("GenerateDiscrete on zero matrix: %v", err)
	}
	if len(tr.Contacts) != 0 {
		t.Errorf("zero matrix produced %d discrete contacts", len(tr.Contacts))
	}
}

// TestGeneratorsRejectOverflowingTotal: finite rates whose total
// overflows to +Inf used to pass validation. The clock then stepped by
// ExpFloat64()/Inf = 0, so a continuous-time stream never reached its
// duration. Every generator must refuse the matrix and name the cause.
// Generate is left out: it shares validRates with NewReplayStream, and
// without the check it would collect contacts until memory ran out.
func TestGeneratorsRejectOverflowingTotal(t *testing.T) {
	rm := trace.NewRateMatrix(3)
	rm.Set(0, 1, 1e308)
	rm.Set(0, 2, 5e307)
	rm.Set(1, 2, 1e308)
	errs := map[string]error{}
	_, errs["GenerateDiscrete"] = GenerateDiscrete(rm, 100, 1, newRNG(8))
	_, errs["NewStream"] = NewStream(rm, 100, newRNG(8))
	_, errs["NewDiscreteStream"] = NewDiscreteStream(rm, 100, 1, newRNG(8))
	_, errs["NewReplayStream"] = NewReplayStream(rm, 100, 1, 2)
	for name, err := range errs {
		if err == nil || !strings.Contains(err.Error(), "overflows") {
			t.Errorf("%s: error %v, want the overflowing total named", name, err)
		}
	}
}

func TestGenerateRejectsBadDuration(t *testing.T) {
	if _, err := Generate(trace.UniformRates(3, 1), 0, newRNG(4)); err == nil {
		t.Error("zero duration accepted")
	}
	if _, err := GenerateDiscrete(trace.UniformRates(3, 1), 100, 0, newRNG(4)); err == nil {
		t.Error("zero delta accepted")
	}
}

func TestGenerateInterContactExponential(t *testing.T) {
	// For a single pair at rate µ, inter-contact gaps are Exp(µ): the CV
	// must be ≈ 1 and the mean ≈ 1/µ.
	rm := trace.NewRateMatrix(2)
	rm.Set(0, 1, 0.1)
	tr, err := Generate(rm, 200000, newRNG(5))
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	gaps := trace.InterContactTimes(tr)
	if len(gaps) < 1000 {
		t.Fatalf("too few gaps: %d", len(gaps))
	}
	var sum float64
	for _, g := range gaps {
		sum += g
	}
	mean := sum / float64(len(gaps))
	if math.Abs(mean-10) > 0.5 {
		t.Errorf("mean gap %g, want 10", mean)
	}
	if cv := trace.CoefficientOfVariation(gaps); math.Abs(cv-1) > 0.1 {
		t.Errorf("CV %g, want ≈1 (memoryless)", cv)
	}
}

func TestGenerateDiscreteRates(t *testing.T) {
	const (
		nodes    = 10
		mu       = 0.04
		delta    = 0.5
		duration = 4000.0
	)
	tr, err := GenerateDiscrete(trace.UniformRates(nodes, mu), duration, delta, newRNG(6))
	if err != nil {
		t.Fatalf("GenerateDiscrete: %v", err)
	}
	if err := tr.Validate(); err != nil {
		t.Fatalf("invalid trace: %v", err)
	}
	want := float64(trace.NumPairs(nodes)) * mu * duration
	got := float64(len(tr.Contacts))
	if math.Abs(got-want) > 4*math.Sqrt(want) {
		t.Errorf("contact count %g, want ≈%g", got, want)
	}
	// All timestamps must sit on slot boundaries.
	for _, c := range tr.Contacts {
		k := c.T / delta
		if math.Abs(k-math.Round(k)) > 1e-9 {
			t.Fatalf("contact at %g not on a slot boundary", c.T)
		}
	}
}

func TestGenerateDiscreteCapsProbability(t *testing.T) {
	// µ·δ > 1 must clamp, not panic or produce multiple contacts per slot.
	tr, err := GenerateDiscrete(trace.UniformRates(2, 5), 10, 1, newRNG(7))
	if err != nil {
		t.Fatalf("GenerateDiscrete: %v", err)
	}
	if len(tr.Contacts) != 10 {
		t.Errorf("got %d contacts, want one per slot (10)", len(tr.Contacts))
	}
}

func TestGenerateDeterministicWithSeed(t *testing.T) {
	a, _ := GenerateHomogeneous(5, 0.1, 500, newRNG(42))
	b, _ := GenerateHomogeneous(5, 0.1, 500, newRNG(42))
	if len(a.Contacts) != len(b.Contacts) {
		t.Fatalf("lengths differ: %d vs %d", len(a.Contacts), len(b.Contacts))
	}
	for i := range a.Contacts {
		if a.Contacts[i] != b.Contacts[i] {
			t.Fatalf("contact %d differs", i)
		}
	}
}

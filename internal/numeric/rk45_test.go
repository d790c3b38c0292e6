package numeric

import (
	"math"
	"testing"
)

func TestRK45Exponential(t *testing.T) {
	// dx/dt = -x, x(0)=1 ⇒ x(2) = e^{-2}.
	f := func(_ float64, x, dst []float64) { dst[0] = -x[0] }
	got, stats, err := RK45(f, []float64{1}, 0, 2, RKOpts{RTol: 1e-8, ATol: 1e-12})
	if err != nil {
		t.Fatal(err)
	}
	want := math.Exp(-2)
	if math.Abs(got[0]-want) > 1e-7 {
		t.Errorf("x(2) = %.12f, want %.12f", got[0], want)
	}
	if stats.Steps == 0 || stats.Evals == 0 {
		t.Errorf("no work recorded: %+v", stats)
	}
}

func TestRK45Harmonic(t *testing.T) {
	// x'' = -x from (1, 0) over [0, π] ⇒ (-1, 0).
	f := func(_ float64, x, dst []float64) { dst[0], dst[1] = x[1], -x[0] }
	got, _, err := RK45(f, []float64{1, 0}, 0, math.Pi, RKOpts{RTol: 1e-9, ATol: 1e-12})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got[0]+1) > 1e-7 || math.Abs(got[1]) > 1e-7 {
		t.Errorf("x(π) = (%.9f, %.9f), want (-1, 0)", got[0], got[1])
	}
}

// TestRK45ToleranceConvergence is the adaptive analogue of step halving:
// tightening the tolerance by 100× must shrink the global error and
// increase the accepted step count, order after order.
func TestRK45ToleranceConvergence(t *testing.T) {
	f := func(tt float64, x, dst []float64) { dst[0] = math.Cos(tt) * x[0] } // x(t) = e^{sin t}
	want := math.Exp(math.Sin(5))
	prevErr := math.Inf(1)
	prevSteps := 0
	for _, rtol := range []float64{1e-3, 1e-5, 1e-7, 1e-9} {
		got, stats, err := RK45(f, []float64{1}, 0, 5, RKOpts{RTol: rtol, ATol: rtol * 1e-3})
		if err != nil {
			t.Fatal(err)
		}
		e := math.Abs(got[0] - want)
		if e >= prevErr && e > 1e-12 {
			t.Errorf("rtol=%g: error %g did not shrink from %g", rtol, e, prevErr)
		}
		if stats.Steps < prevSteps {
			t.Errorf("rtol=%g: %d steps, fewer than %d at the looser tolerance", rtol, stats.Steps, prevSteps)
		}
		prevErr, prevSteps = e, stats.Steps
	}
	if prevErr > 1e-9 {
		t.Errorf("tightest tolerance left error %g", prevErr)
	}
}

// TestRK45StepHalvingAgreement pins the classical property test: the
// same integration with MaxStep h and h/2 must agree to within the
// requested tolerance (the controller, not the cap, sets the accuracy).
func TestRK45StepHalvingAgreement(t *testing.T) {
	f := func(_ float64, x, dst []float64) {
		dst[0] = x[1]
		dst[1] = -4*x[0] - 0.1*x[1]
	}
	x0 := []float64{1, 0}
	a, _, err := RK45(f, x0, 0, 10, RKOpts{RTol: 1e-8, MaxStep: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := RK45(f, x0, 0, 10, RKOpts{RTol: 1e-8, MaxStep: 0.25})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if math.Abs(a[i]-b[i]) > 1e-6 {
			t.Errorf("component %d: MaxStep 0.5 → %.10f, 0.25 → %.10f", i, a[i], b[i])
		}
	}
}

func TestRK45RejectsStiffStep(t *testing.T) {
	// Fast decay: a large initial step must be rejected, not accepted
	// with garbage.
	f := func(_ float64, x, dst []float64) { dst[0] = -200 * x[0] }
	got, stats, err := RK45(f, []float64{1}, 0, 1, RKOpts{RTol: 1e-6, InitStep: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Rejected == 0 {
		t.Error("0.5 step on dx=-200x was never rejected")
	}
	if math.Abs(got[0]-math.Exp(-200)) > 1e-6 {
		t.Errorf("x(1) = %g, want ~0", got[0])
	}
}

func TestRK45ClampApplied(t *testing.T) {
	f := func(_ float64, x, dst []float64) { dst[0] = -5 }
	floor := 0.25
	got, _, err := RK45(f, []float64{1}, 0, 10, RKOpts{
		RTol: 1e-6,
		Clamp: func(x []float64) bool {
			if x[0] < floor {
				x[0] = floor
				return true
			}
			return false
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != floor {
		t.Errorf("clamped state = %g, want %g", got[0], floor)
	}
}

// TestRK45NoOpClampKeepsFSAL: a clamp that reports it left the state
// alone must not cost the FSAL reuse — the integration is bit-identical
// to an unclamped one, work counters included.
func TestRK45NoOpClampKeepsFSAL(t *testing.T) {
	f := func(_ float64, x, dst []float64) { dst[0], dst[1] = -x[0], x[0]-0.5*x[1] }
	x0 := []float64{1, 0}
	o := RKOpts{RTol: 1e-8, ATol: 1e-12}
	want, ws, err := RK45(f, x0, 0, 5, o)
	if err != nil {
		t.Fatal(err)
	}
	calls := 0
	o.Clamp = func([]float64) bool { calls++; return false }
	got, gs, err := RK45(f, x0, 0, 5, o)
	if err != nil {
		t.Fatal(err)
	}
	if calls != gs.Steps {
		t.Errorf("clamp ran %d times over %d accepted steps", calls, gs.Steps)
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Errorf("x[%d] = %v with a no-op clamp, %v without", i, got[i], want[i])
		}
	}
	if gs != ws {
		t.Errorf("stats %+v with a no-op clamp, %+v without", gs, ws)
	}
}

// TestRK45MovingClampForcesReevaluation: after a clamp that moved the
// state, the next step must evaluate the derivative at the clamped
// state instead of reusing the FSAL derivative of the unclamped one.
func TestRK45MovingClampForcesReevaluation(t *testing.T) {
	const floor = 0.25
	atFloor := 0
	f := func(_ float64, x, dst []float64) {
		if x[0] == floor {
			atFloor++
		}
		dst[0] = -x[0] - 1
	}
	moved := 0
	_, st, err := RK45(f, []float64{1}, 0, 3, RKOpts{
		RTol: 1e-6,
		Clamp: func(x []float64) bool {
			if x[0] < floor {
				x[0] = floor
				moved++
				return true
			}
			return false
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if moved == 0 {
		t.Fatal("clamp never moved the state")
	}
	// Every move but a final one is followed by a fresh evaluation at
	// exactly the clamped state.
	if atFloor < moved-1 || atFloor == 0 {
		t.Errorf("derivative evaluated %d times at the clamped state after %d moves", atFloor, moved)
	}
	// One initial evaluation, six per attempt, one more per moved step
	// that another step follows.
	if want := 1 + 6*(st.Steps+st.Rejected) + atFloor; st.Evals != want {
		t.Errorf("%d evaluations, want %d (%+v)", st.Evals, want, st)
	}
}

// TestStepperInvalidate: after a change to what the derivative reads,
// Invalidate makes the next step start from a fresh derivative — the
// same bits as a stepper that never reuses one.
func TestStepperInvalidate(t *testing.T) {
	rate := 1.0
	f := func(_ float64, x, dst []float64) { dst[0] = -rate * x[0] }
	o := RKOpts{RTol: 1e-8, ATol: 1e-12}
	got := NewStepper(f, []float64{1}, 0, o)
	o.Clamp = func([]float64) bool { return true } // re-evaluate every step
	want := NewStepper(f, []float64{1}, 0, o)
	for _, s := range []*Stepper{got, want} {
		if err := s.AdvanceTo(1); err != nil {
			t.Fatal(err)
		}
	}
	rate = 3
	got.Invalidate()
	for _, s := range []*Stepper{got, want} {
		if err := s.AdvanceTo(2); err != nil {
			t.Fatal(err)
		}
	}
	if g, w := got.State()[0], want.State()[0]; math.Float64bits(g) != math.Float64bits(w) {
		t.Errorf("x(2) = %v after Invalidate, %v re-evaluating every step", g, w)
	}
}

func TestRK45DoesNotModifyInput(t *testing.T) {
	f := func(_ float64, x, dst []float64) { dst[0] = x[0] }
	x0 := []float64{2}
	if _, _, err := RK45(f, x0, 0, 1, RKOpts{}); err != nil {
		t.Fatal(err)
	}
	if x0[0] != 2 {
		t.Errorf("input modified: %g", x0[0])
	}
}

func TestStepperResumes(t *testing.T) {
	// Advancing 0→1→2 must land within tolerance of advancing 0→2.
	f := func(_ float64, x, dst []float64) { dst[0] = -x[0] }
	s := NewStepper(f, []float64{1}, 0, RKOpts{RTol: 1e-8, ATol: 1e-12})
	if err := s.AdvanceTo(1); err != nil {
		t.Fatal(err)
	}
	if err := s.AdvanceTo(2); err != nil {
		t.Fatal(err)
	}
	if err := s.AdvanceTo(1.5); err != nil { // past target: no-op
		t.Fatal(err)
	}
	if got, want := s.State()[0], math.Exp(-2); math.Abs(got-want) > 1e-7 {
		t.Errorf("staged advance x(2) = %.12f, want %.12f", got, want)
	}
	if s.Time() != 2 {
		t.Errorf("time %g after no-op advance, want 2", s.Time())
	}
}

func TestRK45NonFiniteBlowup(t *testing.T) {
	f := func(_ float64, x, dst []float64) { dst[0] = x[0] * x[0] } // blows up at t=1
	_, _, err := RK45(f, []float64{1}, 0, 2, RKOpts{RTol: 1e-6, MaxSteps: 100000})
	if err == nil {
		t.Error("finite-time blowup integrated without error")
	}
}

// coupledSystem is a meanfield-shaped nonlinear test system: n competing
// species with a shared capacity, the same coupling structure as the
// replica ODE.
func coupledSystem(n int) (Derivs, []float64) {
	x0 := make([]float64, n)
	for i := range x0 {
		x0[i] = 1 + float64(i%7)/7
	}
	return func(_ float64, x, dst []float64) {
		var tot float64
		for _, v := range x {
			tot += v
		}
		for i := range x {
			dst[i] = x[i] * (float64(i%5+1) - tot/float64(n))
		}
	}, x0
}

func BenchmarkRK45Coupled64(b *testing.B) {
	f, x0 := coupledSystem(64)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := RK45(f, x0, 0, 10, RKOpts{RTol: 1e-6}); err != nil {
			b.Fatal(err)
		}
	}
}

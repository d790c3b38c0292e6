package experiment

import (
	"math"
	"strings"
	"testing"

	"impatience/internal/faults"
	"impatience/internal/sim"
	"impatience/internal/utility"
)

// degradeScenario is a cheap scenario for the fault experiments: small
// population, short runs, one trial.
func degradeScenario() Scenario {
	sc := Default()
	sc.Nodes = 25
	sc.Items = 25
	sc.Trials = 1
	sc.Duration = 1200
	return sc
}

// TestEmptyFaultPlanMatchesNilPlan: a plan with no faults and no
// adversary is the idealized run, bit for bit.
func TestEmptyFaultPlanMatchesNilPlan(t *testing.T) {
	sc := degradeScenario()
	u := utility.Step{Tau: 10}
	run := func(plan *FaultPlan) *sim.Result {
		t.Helper()
		src, err := sc.HomogeneousSources()(sc.Seed)
		if err != nil {
			t.Fatal(err)
		}
		res, err := sc.RunSchemesBatch([]string{SchemeQCR}, u, src, 0, 0, false, plan)
		if err != nil {
			t.Fatal(err)
		}
		return res[0]
	}
	a, b := run(nil), run(&FaultPlan{})
	if a.Digest() != b.Digest() {
		t.Errorf("empty plan diverged from nil plan: %g/%d vs %g/%d",
			b.AvgUtilityRate, b.Fulfillments, a.AvgUtilityRate, a.Fulfillments)
	}
}

func TestDegradationLossContinuous(t *testing.T) {
	sc := degradeScenario()
	table, err := DegradationLoss(sc, utility.Step{Tau: 10}, []float64{0, 0.25, 0.5})
	if err != nil {
		t.Fatal(err)
	}
	qcr := table.Columns[0]
	if qcr.Name != SchemeQCR {
		t.Fatalf("first column %q, want QCR", qcr.Name)
	}
	// Graceful degradation: worse with more loss, but no collapse — at
	// p_loss = 0.5 QCR keeps a substantial fraction of its clean utility.
	if !(qcr.Y[0] > qcr.Y[2]) {
		t.Errorf("QCR utility did not degrade: %v", qcr.Y)
	}
	if qcr.Y[2] < 0.5*qcr.Y[0] {
		t.Errorf("QCR collapsed under p_loss=0.5: %g vs clean %g", qcr.Y[2], qcr.Y[0])
	}
}

func TestDegradationChurnQCRBeatsStatic(t *testing.T) {
	sc := degradeScenario()
	table, err := DegradationChurn(sc, utility.Step{Tau: 10}, []float64{0.002})
	if err != nil {
		t.Fatal(err)
	}
	var qcr, opt, uni float64
	for _, col := range table.Columns {
		switch col.Name {
		case SchemeQCR:
			qcr = col.Y[0]
		case SchemeOPT:
			opt = col.Y[0]
		case SchemeUNI:
			uni = col.Y[0]
		}
	}
	// Crashes wipe replicas; only QCR rebuilds them, so it must beat both
	// static allocations under churn.
	if qcr <= opt || qcr <= uni {
		t.Errorf("QCR (%g) should dominate static OPT (%g) and UNI (%g) under churn", qcr, opt, uni)
	}
}

func TestMassFailureRecoveryHeadline(t *testing.T) {
	sc := degradeScenario()
	table, err := MassFailureRecovery(sc, utility.Step{Tau: 10}, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if len(table.X) != 100 {
		t.Fatalf("time series has %d bins, want 100", len(table.X))
	}
	window := func(col int, lo, hi float64) float64 {
		var sum float64
		var n int
		for k, x := range table.X {
			if x >= lo && x < hi {
				sum += table.Columns[col].Y[k]
				n++
			}
		}
		return sum / float64(n)
	}
	crash := 0.4 * sc.Duration
	// Measure well clear of the crash bin and the rejoin transient.
	for c, name := range map[int]string{0: SchemeQCR, 1: SchemeOPT} {
		if table.Columns[c].Name != name {
			t.Fatalf("column %d is %q, want %q", c, table.Columns[c].Name, name)
		}
	}
	preQCR := window(0, 0.3*sc.Duration, crash-50)
	lateQCR := window(0, 0.8*sc.Duration, sc.Duration)
	preOPT := window(1, 0.3*sc.Duration, crash-50)
	lateOPT := window(1, 0.8*sc.Duration, sc.Duration)
	// The headline: QCR re-converges toward its pre-crash welfare, static
	// OPT does not (its wiped replicas are never rewritten).
	if lateQCR/preQCR <= lateOPT/preOPT {
		t.Errorf("QCR recovery ratio %.3f not better than OPT's %.3f",
			lateQCR/preQCR, lateOPT/preOPT)
	}
	if lateQCR < 0.8*preQCR {
		t.Errorf("QCR failed to re-converge: late %.3f vs pre %.3f", lateQCR, preQCR)
	}
}

func TestMassFailureRecoveryValidation(t *testing.T) {
	sc := degradeScenario()
	if _, err := MassFailureRecovery(sc, utility.Step{Tau: 10}, 0); err == nil {
		t.Error("fraction 0 accepted")
	}
	if _, err := MassFailureRecovery(sc, utility.Step{Tau: 10}, 1.5); err == nil {
		t.Error("fraction 1.5 accepted")
	}
	// Invalid fault config surfaces from the simulator's validation.
	u := utility.Step{Tau: 10}
	src, err := sc.HomogeneousSources()(sc.Seed)
	if err != nil {
		t.Fatal(err)
	}
	bad := &FaultPlan{Faults: &faults.Config{PLoss: 2}}
	if _, err := sc.RunSchemesBatch([]string{SchemeQCR}, u, src, 0, 0, false, bad); err == nil {
		t.Error("p_loss=2 accepted")
	}
}

// TestFlashCrowdSurfacesScheduleErrors: a rotation period the schedule
// builder rejects fails the sweep, naming the period, instead of running
// as the stationary baseline.
func TestFlashCrowdSurfacesScheduleErrors(t *testing.T) {
	sc := tiny()
	sc.Duration = 300
	sc.Trials = 1
	_, err := RobustnessFlashCrowd(sc, utility.Power{Alpha: 0}, []float64{math.NaN()})
	if err == nil {
		t.Fatal("NaN rotation period accepted")
	}
	if !strings.Contains(err.Error(), "period (min)=NaN") {
		t.Errorf("error %q does not name the period", err)
	}
}

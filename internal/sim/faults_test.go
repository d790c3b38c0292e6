package sim

import (
	"bytes"
	"encoding/gob"
	"reflect"
	"testing"

	"impatience/internal/core"
	"impatience/internal/faults"
)

// faultyConfig builds a run with every fault class active and a hardened
// QCR policy. Policies are stateful, so each call constructs fresh ones.
func faultyConfig(t *testing.T, seed uint64) Config {
	t.Helper()
	tr := smallTrace(t, 20, 0.05, 600, 11)
	cfg := baseConfig(t, tr, &core.QCR{
		Reaction:       core.PathReplication(0.5),
		MandateRouting: true,
		StrictSource:   true,
		MaxMandates:    5,
		MandateTTL:     80,
		MaxAttempts:    4,
		Seed:           seed * 31,
	})
	cfg.Seed = seed
	cfg.BinWidth = 60
	cfg.RecordCounts = true
	cfg.Faults = &faults.Config{
		ChurnRate:     0.002,
		MeanDowntime:  30,
		PLoss:         0.2,
		PDrop:         0.1,
		MassCrashTime: 300,
		MassCrashFrac: 0.4,
		MassDowntime:  40,
		Seed:          seed ^ 0xbad,
	}
	return cfg
}

// TestDeterminismWithFaults is the satellite requirement: two runs with
// the same Seed — fault injection enabled — produce byte-identical
// Results.
func TestDeterminismWithFaults(t *testing.T) {
	encode := func() []byte {
		res, err := Run(faultyConfig(t, 5))
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(res); err != nil {
			t.Fatalf("gob: %v", err)
		}
		return buf.Bytes()
	}
	a, b := encode(), encode()
	if !bytes.Equal(a, b) {
		t.Fatal("two identically-seeded faulty runs produced different Results")
	}
}

// TestFaultsNilAndZeroConfigAgree checks the strict no-op contract: a nil
// Faults field and a zero (all classes disabled) faults.Config take the
// exact same code paths and yield identical results.
func TestFaultsNilAndZeroConfigAgree(t *testing.T) {
	play := func(fc *faults.Config) *Result {
		tr := smallTrace(t, 15, 0.05, 500, 4)
		cfg := baseConfig(t, tr, &core.QCR{
			Reaction:       core.PathReplication(0.5),
			MandateRouting: true,
			MaxMandates:    5,
			Seed:           9,
		})
		cfg.Faults = fc
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		return res
	}
	a := play(nil)
	b := play(&faults.Config{})
	if a.Faults != nil || b.Faults != nil {
		t.Fatal("disabled fault injection produced a fault tally")
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("nil vs zero fault config diverged:\n%+v\n%+v", a, b)
	}
}

// TestChurnConservation runs a churny simulation and checks the fault
// tally plus the mandate conservation law
//
//	created = pending + executed + expired + abandoned + dropped + crashed
//
// so no mandate is ever double-counted or leaked, even across crashes.
func TestChurnConservation(t *testing.T) {
	cfg := faultyConfig(t, 21)
	pol := cfg.Policy.(*core.QCR)
	res, err := Run(cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	ft := res.Faults
	if ft == nil {
		t.Fatal("fault tally missing")
	}
	if ft.Crashes == 0 || ft.Rejoins == 0 {
		t.Errorf("churn did not fire: %d crashes, %d rejoins", ft.Crashes, ft.Rejoins)
	}
	if ft.SkippedContacts == 0 {
		t.Error("no contacts skipped despite down nodes")
	}
	if ft.TruncatedMeetings == 0 {
		t.Error("no truncated meetings despite p_loss = 0.2")
	}
	if ft.ReplicasLost == 0 {
		t.Error("crashes wiped no replicas")
	}
	if ft.StickyLost > 0 && ft.StickyReseeded == 0 {
		t.Error("sticky replicas were lost but never re-seeded")
	}
	if ft.MandatesDropped == 0 {
		t.Error("no mandates dropped despite p_drop = 0.1")
	}
	n := pol.Counters()
	if ft.MandatesDropped != n.Dropped || ft.MandatesExpired != n.Expired || ft.MandatesAbandoned != n.Abandoned {
		t.Errorf("tally (%d,%d,%d) disagrees with policy counters (%d,%d,%d)",
			ft.MandatesDropped, ft.MandatesExpired, ft.MandatesAbandoned, n.Dropped, n.Expired, n.Abandoned)
	}
	accounted := n.Pending + n.Executed + n.Expired + n.Abandoned + n.Dropped + ft.MandatesCrashed
	if accounted != n.Created {
		t.Errorf("mandate conservation violated: accounted %d, created %d", accounted, n.Created)
	}
}

// TestCrashWipesAndRejoinRestores spot-checks the churn mechanics via a
// single scheduled mass crash: replicas drop at the crash and the sticky
// re-seeding path re-pins wiped sticky items on later fulfillments.
func TestMassCrashReplicaDrop(t *testing.T) {
	tr := smallTrace(t, 20, 0.05, 600, 8)
	cfg := baseConfig(t, tr, &core.QCR{
		Reaction:       core.PathReplication(0.5),
		MandateRouting: true,
		MaxMandates:    5,
		MandateTTL:     80,
		Seed:           3,
	})
	cfg.BinWidth = 30
	cfg.RecordCounts = true
	cfg.Faults = &faults.Config{MassCrashTime: 300, MassCrashFrac: 0.5, MassDowntime: 60, Seed: 2}
	res, err := Run(cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Faults.Crashes != 10 || res.Faults.Rejoins != 10 {
		t.Fatalf("mass crash applied %d crashes / %d rejoins, want 10 / 10", res.Faults.Crashes, res.Faults.Rejoins)
	}
	// A bin's Counts snapshot is taken when the bin closes, so the bin
	// straddling the crash already shows post-crash state; compare the
	// last bin closing strictly before the crash, the post-crash minimum,
	// and the final bin.
	var before, minAfter, last int
	for _, b := range res.Bins {
		if b.Counts == nil {
			continue
		}
		total := 0
		for _, n := range b.Counts {
			total += n
		}
		if b.T1 <= 300-cfg.BinWidth {
			before = total
		}
		if b.T0 >= 300-cfg.BinWidth && (minAfter == 0 || total < minAfter) {
			minAfter = total
		}
		last = total
	}
	if before == 0 || minAfter >= before {
		t.Errorf("replica count did not drop across the mass crash: %d → %d", before, minAfter)
	}
	if last <= minAfter {
		t.Errorf("QCR did not regrow replicas after the crash: %d at trough, %d at end", minAfter, last)
	}
}

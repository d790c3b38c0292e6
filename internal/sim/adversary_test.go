package sim

import (
	"bytes"
	"encoding/gob"
	"testing"

	"impatience/internal/adversary"
	"impatience/internal/core"
	"impatience/internal/demand"
)

// adversarialConfig builds a run with every misbehavior class active.
// Policies are stateful, so each call constructs fresh ones.
func adversarialConfig(t *testing.T, seed uint64) Config {
	t.Helper()
	tr := smallTrace(t, 20, 0.05, 600, 11)
	cfg := baseConfig(t, tr, &core.QCR{
		Reaction:       core.PathReplication(0.5),
		MandateRouting: true,
		StrictSource:   true,
		MaxMandates:    5,
		Seed:           seed * 31,
	})
	cfg.Seed = seed
	pop := cfg.Pop
	cfg.Adversary = &adversary.Config{
		DishonestFrac: 0.2,
		Mult:          25,
		FreeRiderFrac: 0.2,
		Schedule: demand.Schedule{
			{T: 200, Pop: demand.Uniform(pop.Items(), pop.Total())},
			{T: 400, Pop: pop},
		},
		Seed: seed ^ 0xadbad,
	}
	return cfg
}

// TestAdversaryNilAndZeroConfigAgree checks the strict no-op contract: a
// nil Adversary field and a zero (all classes disabled) config take the
// same code paths and yield identical results, with no tally attached.
func TestAdversaryNilAndZeroConfigAgree(t *testing.T) {
	play := func(ac *adversary.Config) *Result {
		tr := smallTrace(t, 15, 0.05, 500, 4)
		cfg := baseConfig(t, tr, &core.QCR{
			Reaction:       core.PathReplication(0.5),
			MandateRouting: true,
			Seed:           9,
		})
		cfg.Adversary = ac
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		return res
	}
	a := play(nil)
	b := play(&adversary.Config{Seed: 123}) // enabled-off despite the seed
	if a.Adversary != nil || b.Adversary != nil {
		t.Fatal("disabled adversary layer attached a tally")
	}
	if a.Digest() != b.Digest() {
		t.Fatal("nil and zero adversary configs diverged")
	}
}

// TestDeterminismWithAdversaries: two runs with the same Seed — all
// misbehavior classes enabled — produce byte-identical Results.
func TestDeterminismWithAdversaries(t *testing.T) {
	encode := func() []byte {
		res, err := Run(adversarialConfig(t, 5))
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
		t.Fatal("two identically-seeded adversarial runs produced different Results")
	}
}

// TestAdversaryTallyPopulated: an adversarial run reports its roles and
// every misbehavior class it injected.
func TestAdversaryTallyPopulated(t *testing.T) {
	res, err := Run(adversarialConfig(t, 7))
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	ta := res.Adversary
	if ta == nil {
		t.Fatal("no adversary tally on an adversarial run")
	}
	if ta.DishonestNodes != 4 || ta.FreeRiders != 4 {
		t.Errorf("roles = %d dishonest, %d free-riders; want 4, 4", ta.DishonestNodes, ta.FreeRiders)
	}
	if ta.InflatedReports == 0 {
		t.Error("no inflated reports despite dishonest nodes")
	}
	if ta.RefusedServes == 0 {
		t.Error("no refused serves despite free-riders")
	}
	if ta.SuppressedReactions == 0 {
		t.Error("no suppressed reactions despite free-riders")
	}
	if ta.DemandShifts != 2 {
		t.Errorf("demand shifts = %d, want 2", ta.DemandShifts)
	}
}

// TestFreeRidersNeverServeOrStore: with the whole population free-riding,
// no meeting fulfillment, policy write, or replication reaction happens —
// only immediate local hits on the initial allocation remain.
func TestFreeRidersNeverServeOrStore(t *testing.T) {
	tr := smallTrace(t, 15, 0.05, 500, 4)
	cfg := baseConfig(t, tr, &core.QCR{
		Reaction:       core.PathReplication(1),
		MandateRouting: true,
		Seed:           9,
	})
	cfg.Adversary = &adversary.Config{FreeRiderFrac: 1, Seed: 3}
	res, err := Run(cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Fulfillments != res.Immediate {
		t.Errorf("%d fulfillments vs %d immediate: a free-rider served content",
			res.Fulfillments, res.Immediate)
	}
	if res.ReplicasMade != 0 {
		t.Errorf("ReplicasMade = %d, want 0 (every write refused)", res.ReplicasMade)
	}
	ta := res.Adversary
	if ta == nil || ta.FreeRiders != 15 {
		t.Fatalf("tally = %+v, want 15 free-riders", ta)
	}
	if ta.RefusedServes == 0 {
		t.Error("no refused serves recorded")
	}
}

// TestDishonestInflationAmplifiesReplication: counter inflation makes
// vanilla QCR mint measurably more replicas than the honest run — the
// attack the hardened reaction exists to blunt.
func TestDishonestInflationAmplifiesReplication(t *testing.T) {
	play := func(ac *adversary.Config) *Result {
		tr := smallTrace(t, 20, 0.05, 600, 11)
		cfg := baseConfig(t, tr, &core.QCR{
			Reaction:       core.PathReplication(0.5),
			MandateRouting: true,
			StrictSource:   true,
			MaxMandates:    5,
			Seed:           17,
		})
		cfg.Seed = 6
		cfg.Adversary = ac
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		return res
	}
	honest := play(nil)
	attacked := play(&adversary.Config{DishonestFrac: 0.3, Mult: 50, Seed: 21})
	if attacked.ReplicasMade <= honest.ReplicasMade {
		t.Errorf("inflation did not amplify replication: %d attacked vs %d honest",
			attacked.ReplicasMade, honest.ReplicasMade)
	}
	if attacked.Adversary.InflatedReports == 0 {
		t.Error("no inflated reports recorded")
	}
}

// TestHardenedQCRTamesInflation: the same attack against the hardened
// reaction mints far fewer replicas, and the interventions land in the
// run's tally.
func TestHardenedQCRTamesInflation(t *testing.T) {
	play := func(h *core.Hardening) *Result {
		tr := smallTrace(t, 20, 0.05, 600, 11)
		cfg := baseConfig(t, tr, &core.QCR{
			Reaction:       core.PathReplication(0.5),
			MandateRouting: true,
			StrictSource:   true,
			MaxMandates:    5,
			Seed:           17,
			Hardening:      h,
		})
		cfg.Seed = 6
		cfg.Adversary = &adversary.Config{DishonestFrac: 0.3, Mult: 50, Seed: 21}
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		return res
	}
	vanilla := play(nil)
	hardened := play(&core.Hardening{CounterCap: 60, SmoothAlpha: 0.25, ReplicaClamp: 15})
	if hardened.ReplicasMade >= vanilla.ReplicasMade {
		t.Errorf("hardening did not reduce attack replication: %d hardened vs %d vanilla",
			hardened.ReplicasMade, vanilla.ReplicasMade)
	}
	if hardened.Adversary.CountersCapped == 0 {
		t.Error("no capped counters recorded under a ×50 attack")
	}
}

// TestRunBatchMatchesSequentialWithAdversaries: the misbehavior layer —
// counter inflation, free-riders, and the popularity-churn schedule —
// behaves bit-identically when its runner steps in lockstep next to
// other adversarial runners and when it runs alone.
func TestRunBatchMatchesSequentialWithAdversaries(t *testing.T) {
	tr := smallTrace(t, 20, 0.05, 600, 11)
	mk := func(seed uint64) Config {
		cfg := adversarialConfig(t, seed)
		cfg.Contacts = nil // the batch executor supplies the shared stream
		return cfg
	}
	seqCfg := mk(13)
	seqCfg.Contacts = tr.Source()
	seq, err := Run(seqCfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	batch, err := RunBatch([]Config{mk(14), mk(13), mk(15)}, tr.Source())
	if err != nil {
		t.Fatalf("RunBatch: %v", err)
	}
	if seq.Digest() != batch[1].Digest() {
		t.Fatal("adversarial batch run diverged from the single run")
	}
	if batch[1].Adversary == nil || batch[1].Adversary.DemandShifts != 2 {
		t.Fatalf("batch tally = %+v, want 2 demand shifts", batch[1].Adversary)
	}
}

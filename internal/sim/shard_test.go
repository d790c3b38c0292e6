package sim

import (
	"runtime"
	"testing"

	"impatience/internal/adversary"
	"impatience/internal/core"
	"impatience/internal/demand"
	"impatience/internal/faults"
	"impatience/internal/parallel"
	"impatience/internal/rates"
	"impatience/internal/trace"
)

// shardScenario builds the structured-rates community scenario the
// sharding suite runs on: a 48-node 4-community model driven through the
// group-decomposed (Partitionable) sampler, and the full config battery
// — static, live QCR, fault-ridden QCR, and an adversarial QCR (churn,
// lossy meetings, dishonest nodes, demand shift) — so the invariance
// claim covers every stateful subsystem at once.
func shardScenario(t *testing.T, seed uint64) ([]Config, *rates.ShardedSource) {
	t.Helper()
	m, err := rates.NewCommunity(rates.CommunityConfig{Nodes: 48, Communities: 4, In: 0.3, Out: 0.02})
	if err != nil {
		t.Fatal(err)
	}
	src, err := rates.NewSharded(m, 500, seed, 0)
	if err != nil {
		t.Fatal(err)
	}

	cfgs := batchSchemes(t)
	adv := baseConfig(t, nil, &core.QCR{
		Reaction:       core.PathReplication(0.5),
		MandateRouting: true,
		StrictSource:   true,
		MaxMandates:    5,
		Seed:           77,
	})
	adv.Seed = 24
	adv.BinWidth = 100
	adv.RecordDelays = true
	adv.Faults = &faults.Config{
		ChurnRate:    0.001,
		MeanDowntime: 25,
		PLoss:        0.1,
		Seed:         24 ^ 0xbad,
	}
	pop := adv.Pop
	adv.Adversary = &adversary.Config{
		DishonestFrac: 0.2,
		Mult:          25,
		FreeRiderFrac: 0.2,
		Schedule: demand.Schedule{
			{T: 150, Pop: demand.Uniform(pop.Items(), pop.Total())},
			{T: 350, Pop: pop},
		},
		Seed: 24 ^ 0xadbad,
	}
	cfgs = append(cfgs, adv)
	return cfgs, src
}

// reopenFresh hands back an unstarted copy of the sharded source.
func reopenFresh(t *testing.T, src *rates.ShardedSource) trace.Source {
	t.Helper()
	re, err := src.Reopen()
	if err != nil {
		t.Fatalf("Reopen: %v", err)
	}
	return re
}

// TestRunBatchShardedInvariance is the executor-level determinism gate:
// result digests must be identical across shard counts {1, 2, 3, 4,
// NumCPU} — shards ≤ 1 being RunBatch itself — on the community scenario
// with faults and adversary enabled. Run under -race in CI, which also
// makes this the concurrency-safety proof of the producer/worker split.
func TestRunBatchShardedInvariance(t *testing.T) {
	cfgs, src := shardScenario(t, 41)
	want, err := RunBatch(cfgs, reopenFresh(t, src))
	if err != nil {
		t.Fatalf("RunBatch: %v", err)
	}
	for _, shards := range []int{1, 2, 3, 4, runtime.NumCPU()} {
		cfgs, src := shardScenario(t, 41)
		got, err := RunBatchSharded(cfgs, reopenFresh(t, src), shards)
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		if len(got) != len(want) {
			t.Fatalf("shards=%d: %d results, want %d", shards, len(got), len(want))
		}
		for i := range got {
			if got[i].Digest() != want[i].Digest() {
				t.Errorf("shards=%d scheme %d: digest %#x != serial %#x",
					shards, i, got[i].Digest(), want[i].Digest())
			}
		}
	}
}

// TestRunBatchShardedMatchesSequential anchors the sharded executor to
// the per-config Run loop: materialize the structured contact stream
// once, replay it through individual single Runs, and require
// digest equality with the sharded batch over the streaming source.
func TestRunBatchShardedMatchesSequential(t *testing.T) {
	cfgs, src := shardScenario(t, 43)
	tr, err := trace.Collect(reopenFresh(t, src))
	if err != nil {
		t.Fatalf("Collect: %v", err)
	}
	want := make([]uint64, len(cfgs))
	seqCfgs, _ := shardScenario(t, 43)
	for i, cfg := range seqCfgs {
		cfg.Contacts = tr.Source()
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("sequential Run %d: %v", i, err)
		}
		want[i] = res.Digest()
	}
	got, err := RunBatchSharded(cfgs, reopenFresh(t, src), 4)
	if err != nil {
		t.Fatalf("RunBatchSharded: %v", err)
	}
	for i, res := range got {
		if res.Digest() != want[i] {
			t.Errorf("scheme %d: sharded digest %#x != sequential %#x", i, res.Digest(), want[i])
		}
	}
}

// TestRunBatchShardedGolden pins the structured-rate executor path
// bit-for-bit: a fixed scenario's result digests, mixed into one family
// value, must never drift. Regenerate with -run TestRunBatchShardedGolden
// -v when an intentional stream or scoring change lands.
func TestRunBatchShardedGolden(t *testing.T) {
	const golden = uint64(0x5f8bc07aba957725)
	cfgs, src := shardScenario(t, 47)
	results, err := RunBatchSharded(cfgs, reopenFresh(t, src), 2)
	if err != nil {
		t.Fatal(err)
	}
	acc := uint64(0x9e3779b97f4a7c15)
	for _, r := range results {
		acc = parallel.SplitMix64(acc ^ r.Digest())
	}
	t.Logf("digest family: %#016x", acc)
	if acc != golden {
		t.Errorf("digest family %#016x, golden %#016x", acc, golden)
	}
}

// TestRunBatchShardedErrors: the sharded entry point reproduces the
// serial executor's validation failures and its deterministic
// first-error selection on a contract-violating stream.
func TestRunBatchShardedErrors(t *testing.T) {
	cfgs, src := shardScenario(t, 5)
	if _, err := RunBatchSharded(nil, reopenFresh(t, src), 4); err == nil {
		t.Error("empty batch accepted")
	}
	if _, err := RunBatchSharded(cfgs, nil, 4); err == nil {
		t.Error("nil source accepted")
	}
	withContacts, src2 := shardScenario(t, 5)
	withContacts[1].Contacts = smallTrace(t, 14, 0.05, 200, 3).Source()
	if _, err := RunBatchSharded(withContacts, reopenFresh(t, src2), 4); err == nil {
		t.Error("batch config with Contacts set accepted")
	}

	disordered := func() trace.Source {
		return (&trace.Trace{Nodes: 48, Duration: 100, Contacts: []trace.Contact{
			{T: 50, A: 0, B: 1}, {T: 10, A: 1, B: 2},
		}}).Source()
	}
	serialCfgs, _ := shardScenario(t, 5)
	_, serialErr := RunBatch(serialCfgs, disordered())
	if serialErr == nil {
		t.Fatal("serial executor accepted out-of-order stream")
	}
	shardCfgs, _ := shardScenario(t, 5)
	_, shardErr := RunBatchSharded(shardCfgs, disordered(), 4)
	if shardErr == nil {
		t.Fatal("sharded executor accepted out-of-order stream")
	}
	if shardErr.Error() != serialErr.Error() {
		t.Errorf("error mismatch:\n  sharded: %v\n  serial:  %v", shardErr, serialErr)
	}
}

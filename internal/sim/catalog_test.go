package sim

import (
	"testing"

	"impatience/internal/adversary"
	"impatience/internal/core"
	"impatience/internal/demand"
	"impatience/internal/faults"
	"impatience/internal/utility"
)

// catalogScenarios builds short runs over an items-wide catalog with rho
// slots per cache that reach every request-matching path of the kernel:
// QCR with mandate routing and UNI, both under churn, truncated meetings,
// dropped mandates and free-riding and dishonest nodes, plus a
// dedicated-server QCR run whose clients cache nothing. Sticky replicas
// are kept whenever the caches can hold one per item. Policies are
// stateful, so each call constructs fresh ones.
func catalogScenarios(t *testing.T, items, rho int) []Config {
	t.Helper()
	const nodes, servers = 30, 10
	tr := smallTrace(t, nodes, 0.05, 600, 41)
	pop := demand.Pareto(items, 0.8, 1.5)
	fc := func(seed uint64) *faults.Config {
		return &faults.Config{
			ChurnRate:     0.002,
			MeanDowntime:  30,
			PLoss:         0.2,
			PDrop:         0.1,
			MassCrashTime: 300,
			MassCrashFrac: 0.3,
			MassDowntime:  40,
			Seed:          seed ^ 0xbad,
		}
	}
	ac := func(seed uint64) *adversary.Config {
		return &adversary.Config{
			DishonestFrac: 0.2,
			Mult:          25,
			FreeRiderFrac: 0.15,
			Schedule: demand.Schedule{
				{T: 250, Pop: demand.Uniform(items, pop.Total())},
				{T: 450, Pop: pop},
			},
			Seed: seed ^ 0xadbad,
		}
	}
	qcr := func(seed uint64) *core.QCR {
		return &core.QCR{
			Reaction:       core.PathReplication(0.5),
			MandateRouting: true,
			StrictSource:   true,
			MaxMandates:    5,
			MandateTTL:     80,
			MaxAttempts:    4,
			Seed:           seed * 31,
		}
	}
	base := func(pol core.Policy, seed uint64) Config {
		return Config{
			Rho:          rho,
			Utility:      utility.Step{Tau: 10},
			Pop:          pop,
			Contacts:     tr.Source(),
			Policy:       pol,
			Seed:         seed,
			NoSticky:     items > nodes*rho,
			BinWidth:     100,
			RecordCounts: true,
			Faults:       fc(seed),
			Adversary:    ac(seed),
		}
	}
	dedicated := base(qcr(53), 53)
	dedicated.ServerCount = servers
	dedicated.NoSticky = items > servers*rho
	dedicated.Adversary = nil
	return []Config{base(qcr(51), 51), base(core.Static{Label: "uni"}, 52), dedicated}
}

// catalogDigests pins TestCatalogWidthsPinned's runs: per catalog size
// and cache size, the QCR, UNI and dedicated-server digests of
// catalogScenarios. They were computed while the kernel still kept one
// byte per (node, item) for its caches and matched requests by binary
// search, and must survive any change to how meetings find their hits
// bit for bit.
var catalogDigests = []struct {
	items, rho int
	want       [3]uint64
}{
	{4, 3, [3]uint64{0x5ce2338854a56b4b, 0x3d00eac12880161b, 0x64298e34e70bc5a3}},
	{64, 3, [3]uint64{0x9d831e3c652bdc2e, 0xa3c5fea8dd009af5, 0xf595cbf4c7525fcf}},
	{65, 3, [3]uint64{0x8e64791374f23982, 0xd9ff167667b08b7f, 0xd6b5072276729bc8}},
	{130, 3, [3]uint64{0x2399b7c05638ce95, 0x1805439589f363cf, 0xbb4ceaece21cfb73}},
	{130, 5, [3]uint64{0x141a1103b5d51f7d, 0xc2f8d3db6ff89e91, 0xde8d697a90bf434b}},
	{4000, 3, [3]uint64{0x57a83d4c6245d209, 0x827096f1bd7ef248, 0xc100a7f128b2e569}},
}

// TestCatalogWidthsPinned pins whole runs at catalog sizes the golden
// digests do not reach: a catalog within one machine word, exactly one,
// just past one, several, and one whose rows span 64 words.
func TestCatalogWidthsPinned(t *testing.T) {
	for _, tc := range catalogDigests {
		for k, cfg := range catalogScenarios(t, tc.items, tc.rho) {
			res, err := Run(cfg)
			if err != nil {
				t.Fatalf("I=%d ρ=%d scenario %d: %v", tc.items, tc.rho, k, err)
			}
			if res.Fulfillments == 0 {
				t.Errorf("I=%d ρ=%d scenario %d: no fulfillments", tc.items, tc.rho, k)
			}
			if got := res.Digest(); got != tc.want[k] {
				t.Errorf("I=%d ρ=%d scenario %d: digest %#016x, pinned %#016x", tc.items, tc.rho, k, got, tc.want[k])
			}
		}
	}
}

package sim

import (
	"slices"
	"testing"

	"impatience/internal/alloc"
	"impatience/internal/contact"
	"impatience/internal/core"
	"impatience/internal/demand"
	"impatience/internal/trace"
	"impatience/internal/utility"
)

// TestTimeRescalingBitExact checks a relation any correct simulator of
// the model satisfies, whatever its code path: doubling every rate and
// halving every time — step (µ, T, τ, d) → (2µ, T/2, τ/2, 2d), and
// exponential (µ, T, ν, d) → (2µ, T/2, 2ν, 2d) — replays the same run on
// a clock that ticks twice as fast. Halving and doubling are exact in
// IEEE arithmetic and the contact samplers normalize the rates away, so
// the counts and gains must be bit-identical and the gain rate exactly
// doubled, for both contact generators, both utilities, a static and a
// replicating policy, and every entry point. The pair rates are
// heterogeneous (µ/2, µ and 2µ), so the replay and alias samplers draw
// different contacts.
func TestTimeRescalingBitExact(t *testing.T) {
	const (
		nodes, items, rho = 12, 10, 2
		mu, dur, tau, d   = 0.05, 2000.0, 10.0, 2.0
	)
	// Each utility at time scale s (the rates are s× faster). The step
	// cases keep their unprefixed subtest names.
	utils := []struct {
		prefix string
		at     func(s float64) utility.Function
	}{
		{"", func(s float64) utility.Function { return utility.Step{Tau: tau / s} }},
		{"exp/", func(s float64) utility.Function { return utility.Exponential{Nu: s / tau} }},
	}
	gens := []struct {
		name string
		src  func(t *testing.T, mu, dur float64) trace.Source
	}{
		{"replay", func(t *testing.T, mu, dur float64) trace.Source {
			src, err := contact.NewReplayStream(tieredRates(nodes, mu), dur, 5, 6)
			if err != nil {
				t.Fatal(err)
			}
			return src
		}},
		{"alias", func(t *testing.T, mu, dur float64) trace.Source {
			src, err := contact.NewStream(tieredRates(nodes, mu), dur, newRNG(5))
			if err != nil {
				t.Fatal(err)
			}
			return src
		}},
	}
	policies := []struct {
		name string
		cfg  func(mu float64, u utility.Function, d float64) Config
	}{
		{"uni", func(mu float64, u utility.Function, d float64) Config {
			return Config{
				Rho: rho, Utility: u, Pop: demand.Pareto(items, 1, d),
				Policy: core.Static{Label: "uni"}, Initial: alloc.Uniform(items, nodes, rho),
				NoSticky: true, Seed: 3,
			}
		}},
		{"qcr", func(mu float64, u utility.Function, d float64) Config {
			return Config{
				Rho: rho, Utility: u, Pop: demand.Pareto(items, 1, d),
				Policy: &core.QCR{
					Reaction:       core.TunedReaction(u, mu, nodes, 1),
					MandateRouting: true,
					StrictSource:   true,
					Seed:           7,
				},
				Seed: 3,
			}
		}},
	}
	entries := []struct {
		name string
		run  func(cfg Config, src trace.Source) (*Result, error)
	}{
		{"Run", func(cfg Config, src trace.Source) (*Result, error) {
			cfg.Contacts = src
			return Run(cfg)
		}},
		{"RunBatch", func(cfg Config, src trace.Source) (*Result, error) {
			res, err := RunBatch([]Config{cfg}, src)
			if err != nil {
				return nil, err
			}
			return res[0], nil
		}},
		{"RunBatchSharded", func(cfg Config, src trace.Source) (*Result, error) {
			res, err := RunBatchSharded([]Config{cfg}, src, 2)
			if err != nil {
				return nil, err
			}
			return res[0], nil
		}},
	}
	for _, g := range gens {
		for _, u := range utils {
			for _, pc := range policies {
				for _, e := range entries {
					t.Run(u.prefix+g.name+"/"+pc.name+"/"+e.name, func(t *testing.T) {
						base, err := e.run(pc.cfg(mu, u.at(1), d), g.src(t, mu, dur))
						if err != nil {
							t.Fatal(err)
						}
						fast, err := e.run(pc.cfg(2*mu, u.at(2), 2*d), g.src(t, 2*mu, dur/2))
						if err != nil {
							t.Fatal(err)
						}
						if base.Fulfillments == 0 || base.Meetings == 0 {
							t.Fatalf("degenerate run: %d fulfillments, %d meetings", base.Fulfillments, base.Meetings)
						}
						if err := rescaledMismatch(base, fast); err != "" {
							t.Error(err)
						}
					})
				}
			}
		}
	}
}

// tieredRates gives pair (a, b) the rate µ/2, µ or 2µ by (a+b) mod 3.
func tieredRates(nodes int, mu float64) *trace.RateMatrix {
	rm := trace.NewRateMatrix(nodes)
	for a := 0; a < nodes; a++ {
		for b := a + 1; b < nodes; b++ {
			rm.Set(a, b, mu*[]float64{0.5, 1, 2}[(a+b)%3])
		}
	}
	return rm
}

// rescaledMismatch names the first field where the time-rescaled run
// fast departs from base, or returns "".
func rescaledMismatch(base, fast *Result) string {
	switch {
	case fast.Fulfillments != base.Fulfillments || fast.Immediate != base.Immediate:
		return "fulfillments differ"
	case fast.Meetings != base.Meetings:
		return "meetings differ"
	case fast.TotalGain != base.TotalGain:
		return "total gain differs"
	case fast.ReplicasMade != base.ReplicasMade:
		return "replicas made differ"
	case fast.Outstanding != base.Outstanding:
		return "outstanding requests differ"
	case !slices.Equal(fast.FinalCounts, base.FinalCounts):
		return "final counts differ"
	case fast.AvgUtilityRate != 2*base.AvgUtilityRate:
		return "gain rate not exactly doubled"
	}
	return ""
}

package sim

import (
	"testing"

	"impatience/internal/contact"
	"impatience/internal/core"
	"impatience/internal/demand"
	"impatience/internal/utility"
	"impatience/internal/welfare"
)

func TestQCRScaleDiagnostics(t *testing.T) {
	const (
		nodes = 50
		items = 50
		mu    = 0.05
		rho   = 5
	)
	f := utility.Power{Alpha: 0}
	pop := demand.Pareto(items, 1, 2)
	h := welfare.Homogeneous{Utility: f, Pop: pop, Mu: mu, Servers: nodes, Clients: nodes, PureP2P: true}
	opt, _ := h.GreedyOptimal(rho)
	tr, _ := contact.GenerateHomogeneous(nodes, mu, 5000, newRNG(1))
	t.Logf("OPT counts[:10]=%v U_opt=%.3f", opt[:10], h.WelfareCounts(opt))
	for _, scale := range []float64{1, 0.3, 0.1, 0.03} {
		q := &core.QCR{Reaction: core.TunedReaction(f, mu, nodes, scale), MandateRouting: true, Seed: 2}
		cfg := Config{
			Rho: rho, Utility: f, Pop: pop, Contacts: tr.Source(), Policy: q, Seed: 3,
			BinWidth: 250, RecordCounts: true, WarmupFrac: 0.3,
		}
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("scale=%4.2f avg rate=%.3f, replicas made=%d", scale, res.AvgUtilityRate, res.ReplicasMade)
		b := res.Bins[len(res.Bins)-1]
		t.Logf("  final counts[:10]=%v U(x)=%.3f mandates=%d", b.Counts[:10], h.WelfareCounts(b.Counts), b.Mandates)
	}
	// Static OPT for comparison.
	cfgO := Config{
		Rho: rho, Utility: f, Pop: pop, Contacts: tr.Source(), Seed: 3, WarmupFrac: 0.3,
		Policy: core.Static{Label: "opt"}, Initial: opt, NoSticky: true,
	}
	resO, err := Run(cfgO)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("OPT observed rate=%.3f fulfillments=%d outstanding=%d", resO.AvgUtilityRate, resO.Fulfillments, resO.Outstanding)
}

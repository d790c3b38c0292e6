package main

import (
	"fmt"
	"testing"

	"impatience/internal/adversary"
	"impatience/internal/experiment"
	"impatience/internal/trace"
	"impatience/internal/utility"
)

// pathResult is one benchmarked cell's per-op stats.
type pathResult struct {
	Iterations  int   `json:"iterations"`
	NsPerOp     int64 `json:"ns_per_op"`
	AllocsPerOp int64 `json:"allocs_per_op"`
	BytesPerOp  int64 `json:"bytes_per_op"`
}

// measurePath benchmarks one cell and reports its per-op stats.
func measurePath(run func() error) (pathResult, error) {
	var benchErr error
	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := run(); err != nil {
				benchErr = err
				b.FailNow()
			}
		}
	})
	if benchErr != nil {
		return pathResult{}, benchErr
	}
	if r.N == 0 {
		return pathResult{}, fmt.Errorf("benchmark did not run")
	}
	return pathResult{
		Iterations:  r.N,
		NsPerOp:     r.NsPerOp(),
		AllocsPerOp: r.AllocsPerOp(),
		BytesPerOp:  r.AllocedBytesPerOp(),
	}, nil
}

// adversaryEntry measures one (scheme, workload) cell of the adversary
// ladder: a full single-trial simulation over a fixed contact sequence
// (its empirical-rate pass included), normalized to the cost per contact
// so the hardened reaction's overhead is comparable across scenario
// scales.
type adversaryEntry struct {
	Scheme    string     `json:"scheme"`
	Adversary bool       `json:"adversary"`
	Result    pathResult `json:"result"`
	// NsPerContact is NsPerOp over the trace's contact count.
	NsPerContact float64 `json:"ns_per_contact"`
	// OverheadVsVanilla is this cell's ns/contact over the vanilla-QCR,
	// adversaries-off baseline: the price of the defense (and of the
	// attack) in relative per-contact cost.
	OverheadVsVanilla float64 `json:"overhead_vs_vanilla"`
}

type adversaryReport struct {
	Benchmark string `json:"benchmark"`
	provenance
	scenarioParams
	Contacts int `json:"contacts"`
	// AdversaryConfig records the headline attack the "adversary" cells
	// ran under.
	DishonestFrac float64          `json:"dishonest_frac"`
	Mult          float64          `json:"mult"`
	FreeRiderFrac float64          `json:"freerider_frac"`
	Results       []adversaryEntry `json:"results"`
}

// runAdversary runs the hardened-vs-vanilla QCR ladder and writes
// BENCH_adversary.json: vanilla QCR with no adversaries is the baseline,
// then both reactions pay for the headline adversarial workload
// (dishonest counter inflation plus free-riders). The interesting ratios
// are QCRH-off vs QCR-off (what the defense costs when nothing attacks)
// and QCRH-on vs QCR-on (what it costs while actually defending).
func runAdversary(short bool, out string) error {
	sc := scenario(short)
	u := utility.Power{Alpha: 0}
	ac := adversary.Config{
		DishonestFrac: 0.2,
		Mult:          25,
		FreeRiderFrac: 0.2,
		Seed:          sc.Seed * 50021,
	}

	src, err := sc.HomogeneousSources()(sc.Seed)
	if err != nil {
		return err
	}
	tr, err := trace.Collect(src)
	if err != nil {
		return err
	}
	if len(tr.Contacts) == 0 {
		return fmt.Errorf("adversary benchmark trace has no contacts")
	}

	schemes := []string{experiment.SchemeQCR, experiment.SchemeQCRH}
	report := adversaryReport{
		Benchmark:      "AdversaryOverhead/RunSchemesBatch",
		provenance:     stamp(short),
		scenarioParams: paramsOf(sc, schemes),
		Contacts:       len(tr.Contacts),
		DishonestFrac:  ac.DishonestFrac,
		Mult:           ac.Mult,
		FreeRiderFrac:  ac.FreeRiderFrac,
	}

	var baseline float64
	for _, scheme := range schemes {
		for _, adv := range []bool{false, true} {
			var plan *experiment.FaultPlan
			if adv {
				cfg := ac
				plan = &experiment.FaultPlan{Adversary: &cfg}
			}
			res, err := measurePath(func() error {
				_, err := sc.RunSchemesBatch([]string{scheme}, u, tr.Source(), 0, 0, false, plan)
				return err
			})
			if err != nil {
				return err
			}
			e := adversaryEntry{
				Scheme:       scheme,
				Adversary:    adv,
				Result:       res,
				NsPerContact: float64(res.NsPerOp) / float64(len(tr.Contacts)),
			}
			if scheme == experiment.SchemeQCR && !adv {
				baseline = e.NsPerContact
			}
			if baseline > 0 {
				e.OverheadVsVanilla = e.NsPerContact / baseline
			}
			report.Results = append(report.Results, e)
			fmt.Printf("adversary  %-5s adversaries=%-5v  %8.1f ns/contact  %10d B/op  (%.2fx vs vanilla baseline)\n",
				scheme, adv, e.NsPerContact, res.BytesPerOp, e.OverheadVsVanilla)
		}
	}

	return writeJSON(out, report)
}

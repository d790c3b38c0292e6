// Command agetrace generates and inspects contact traces: the synthetic
// conference (Infocom'06-like) and vehicular (Cabspotting-like) data-set
// substitutes, homogeneous Poisson traces, and memoryless counterparts of
// existing trace files.
//
// Usage examples:
//
//	agetrace -kind conference -out conf.txt
//	agetrace -kind vehicular -nodes 50 -out cabs.txt
//	agetrace -kind structured -rates community:n=200,c=8,in=0.5,out=0.01 -duration 1000 -stats
//	agetrace -kind memoryless -in conf.txt -out conf-ml.txt
//	agetrace -stats -in conf.txt
package main

import (
	"flag"
	"fmt"
	"math/rand/v2"
	"os"

	"impatience/internal/contact"
	"impatience/internal/rates"
	"impatience/internal/stats"
	"impatience/internal/synth"
	"impatience/internal/trace"
)

func main() {
	var (
		kind     = flag.String("kind", "conference", "generator: conference, vehicular, homogeneous, structured, memoryless")
		nodes    = flag.Int("nodes", 50, "number of nodes")
		mu       = flag.Float64("mu", 0.05, "pair rate for -kind homogeneous")
		ratesStr = flag.String("rates", "", "structured rate model spec for -kind structured (community:n=...,c=...,in=...,out=... | hubspoke:... | distance:...)")
		duration = flag.Float64("duration", 5000, "minutes for -kind homogeneous or structured")
		days     = flag.Int("days", 3, "days for -kind conference")
		seed     = flag.Uint64("seed", 1, "random seed")
		in       = flag.String("in", "", "input trace (for -kind memoryless or -stats)")
		out      = flag.String("out", "", "output path ('-' or empty prints stats only)")
		show     = flag.Bool("stats", false, "print trace statistics")
	)
	flag.Parse()
	if err := run(*kind, *nodes, *mu, *ratesStr, *duration, *days, *seed, *in, *out, *show); err != nil {
		fmt.Fprintln(os.Stderr, "agetrace:", err)
		os.Exit(1)
	}
}

func run(kind string, nodes int, mu float64, ratesStr string, duration float64, days int, seed uint64, in, out string, show bool) error {
	rng := rand.New(rand.NewPCG(seed, seed*2654435761))
	var tr *trace.Trace
	var err error
	switch {
	case show && in != "" && kind != "memoryless":
		tr, err = trace.Load(in)
	case kind == "conference":
		cfg := synth.DefaultConference()
		cfg.Nodes = nodes
		cfg.Days = days
		tr, err = synth.Conference(cfg, rng)
	case kind == "vehicular":
		cfg := synth.DefaultVehicular()
		cfg.Cabs = nodes
		tr, err = synth.Vehicular(cfg, rng)
	case kind == "homogeneous":
		tr, err = contact.GenerateHomogeneous(nodes, mu, duration, rng)
	case kind == "structured":
		tr, err = structuredTrace(ratesStr, duration, seed)
	case kind == "memoryless":
		if in == "" {
			return fmt.Errorf("-kind memoryless requires -in")
		}
		var base *trace.Trace
		base, err = trace.Load(in)
		if err == nil {
			tr, err = synth.Memoryless(base, rng)
		}
	default:
		return fmt.Errorf("unknown kind %q", kind)
	}
	if err != nil {
		return err
	}
	printStats(tr)
	if out != "" && out != "-" {
		if err := trace.Save(out, tr); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", out)
	}
	return nil
}

// maxStructuredNodes bounds -kind structured: this command materializes
// the trace and printStats builds the O(N²) empirical rate matrix, so it
// is an inspection tool for moderate populations. The million-node scale
// path never materializes — see agesim -rates and the community-1m
// workload of the benchmark harness in bench/.
const maxStructuredNodes = 20000

// structuredTrace materializes one realization of a structured
// heterogeneous rate model (internal/rates) for inspection or saving.
func structuredTrace(spec string, duration float64, seed uint64) (*trace.Trace, error) {
	if spec == "" {
		return nil, fmt.Errorf("-kind structured requires -rates")
	}
	m, err := rates.ParseRates(spec)
	if err != nil {
		return nil, err
	}
	if m.Nodes() > maxStructuredNodes {
		return nil, fmt.Errorf("materializing %d nodes here would build O(N²) stats; cap is %d (use agesim -rates for the streaming path)",
			m.Nodes(), maxStructuredNodes)
	}
	src, err := rates.NewSharded(m, duration, seed, 0)
	if err != nil {
		return nil, err
	}
	return trace.Collect(src)
}

func printStats(tr *trace.Trace) {
	rm := trace.EmpiricalRates(tr)
	gaps := trace.InterContactTimes(tr)
	fmt.Printf("nodes            %d\n", tr.Nodes)
	fmt.Printf("duration         %.0f min (%.1f days)\n", tr.Duration, tr.Duration/1440)
	fmt.Printf("contacts         %d (%.3f per node-pair-hour)\n",
		len(tr.Contacts), float64(len(tr.Contacts))/float64(trace.NumPairs(tr.Nodes))/tr.Duration*60)
	fmt.Printf("mean pair rate   %.6f /min\n", rm.Mean())
	if len(gaps) > 1 {
		sum := stats.Summarize(gaps)
		fmt.Printf("inter-contact    mean %.1f min, p5 %.2f, p95 %.1f, CV %.2f%s\n",
			sum.Mean, sum.P5, sum.P95, trace.CoefficientOfVariation(gaps), burstLabel(trace.CoefficientOfVariation(gaps)))
	}
	counts := trace.ContactCounts(tr)
	cs := make([]float64, len(counts))
	for i, c := range counts {
		cs[i] = float64(c)
	}
	sum := stats.Summarize(cs)
	fmt.Printf("node coverage    min %.0f, median %.0f, max %.0f contacts\n", sum.Min, sum.P50, sum.Max)
}

func burstLabel(cv float64) string {
	switch {
	case cv > 1.3:
		return " (bursty)"
	case cv > 0.85:
		return " (≈memoryless)"
	default:
		return " (regular)"
	}
}

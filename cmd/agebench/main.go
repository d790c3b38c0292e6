// Command agebench measures the parallel trial engine, the contact
// pipeline, the adversary layer, the structured-rates scale ladder, the
// hybrid engine and the serving stack, recording each as a
// machine-readable regression artifact.
//
// The trial-engine benchmark runs the scheme-comparison pipeline (trace
// generation, QCR/OPT/UNI simulation, trial-order aggregation) at a
// ladder of worker counts via testing.Benchmark and writes
// BENCH_trials.json with ns/op, allocs/op and the speedup relative to
// the serial (1-worker) run.
//
// The contact-pipeline benchmark compares materialized trace generation
// (searchCDF pair sampling) with the streaming alias-method generator at
// N ∈ {100, 1000, 5000}, runs the fused N = 5000 scale demo through the
// simulator, and writes BENCH_contacts.json with ns/contact,
// bytes/contact and the demo's peak heap versus the materialized floor.
//
// The adversary benchmark measures the per-contact cost of the
// misbehavior layer and the hardened QCR reaction: vanilla and hardened
// QCR each run with adversaries off and under the headline attack
// (dishonest counter inflation plus free-riders), and BENCH_adversary.json
// records ns/contact with each cell's overhead relative to the vanilla
// adversaries-off baseline.
//
// The scale benchmark (-scale-only) climbs the structured-rates ladder —
// community models at N = 10⁴, 10⁵ and (full mode) 10⁶ through the
// hierarchical sampler and the sharded lockstep executor at shard counts
// {1, 2, 4, NumCPU} — and writes BENCH_scale.json with per-rung wall
// time, contacts/sec, speedup versus one shard, a digest-invariance
// verdict per cell, and the setup bytes-per-node that pins the O(N + C²)
// state bound.
//
// CI uploads all of these files so regressions — in throughput, scaling,
// or memory — are visible across commits.
//
// Every report carries the emitting commit (git rev-parse HEAD) and the
// scenario parameters, so artifacts from different commits or workloads
// are never compared blind.
//
// Determinism note: every worker count computes bit-identical results
// (see internal/parallel), so the ladders measure scheduling overhead
// and parallel speedup only, never different work.
//
// Usage:
//
//	agebench                 # full-scale measurement
//	agebench -short          # reduced scale for CI smoke runs
//	agebench -workers 4      # measure a single worker count on every ladder
//	agebench -out bench.json # choose the trial-engine output path
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"testing"
	"time"

	"impatience/internal/experiment"
	"impatience/internal/utility"
)

// workerLadder is the set of pool sizes measured, smallest first; the
// first entry must be 1 because it is the speedup baseline.
var workerLadder = []int{1, 2, 4, 8}

// provenance stamps a report with the commit and runtime that produced
// it.
type provenance struct {
	GitCommit  string `json:"git_commit"`
	UnixTime   int64  `json:"unix_time"`
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
	Short      bool   `json:"short"`
}

// scenarioParams records the workload a report measured.
type scenarioParams struct {
	Trials   int      `json:"trials"`
	Nodes    int      `json:"nodes"`
	Items    int      `json:"items"`
	Rho      int      `json:"rho"`
	Mu       float64  `json:"mu"`
	Duration float64  `json:"duration_min"`
	Seed     uint64   `json:"seed"`
	Schemes  []string `json:"schemes,omitempty"`
}

// gitCommit returns the HEAD commit hash, or "unknown" outside a git
// checkout (e.g. an extracted release tarball).
func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

func stamp(short bool) provenance {
	return provenance{
		GitCommit:  gitCommit(),
		UnixTime:   time.Now().Unix(),
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		Short:      short,
	}
}

func paramsOf(sc experiment.Scenario, schemes []string) scenarioParams {
	return scenarioParams{
		Trials:   sc.Trials,
		Nodes:    sc.Nodes,
		Items:    sc.Items,
		Rho:      sc.Rho,
		Mu:       sc.Mu,
		Duration: sc.Duration,
		Seed:     sc.Seed,
		Schemes:  schemes,
	}
}

// ladder returns the worker counts to measure: the full ladder, or the
// single count selected with -workers.
func ladder(workers int) []int {
	if workers > 0 {
		return []int{workers}
	}
	return workerLadder
}

// writeJSON writes a report with stable indentation.
func writeJSON(out string, report any) error {
	f, err := os.Create(out)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(report); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", out)
	return nil
}

type benchResult struct {
	Workers         int     `json:"workers"`
	Iterations      int     `json:"iterations"`
	NsPerOp         int64   `json:"ns_per_op"`
	AllocsPerOp     int64   `json:"allocs_per_op"`
	BytesPerOp      int64   `json:"bytes_per_op"`
	SpeedupVsSerial float64 `json:"speedup_vs_serial"`
}

type benchReport struct {
	Benchmark string `json:"benchmark"`
	provenance
	scenarioParams
	Results []benchResult `json:"results"`
}

func main() {
	short := flag.Bool("short", false, "reduced scale (CI smoke run)")
	workers := flag.Int("workers", 0, "measure only this worker count on every ladder (0 = full ladder)")
	out := flag.String("out", "BENCH_trials.json", "output path for the trial-engine JSON report")
	contactsOut := flag.String("contacts-out", "BENCH_contacts.json", "output path for the contact-pipeline JSON report (empty = skip)")
	adversaryOut := flag.String("adversary-out", "BENCH_adversary.json", "output path for the hardened-vs-vanilla QCR JSON report (empty = skip)")
	scaleOut := flag.String("scale-out", "BENCH_scale.json", "output path for the million-node scale-ladder JSON report (empty = skip)")
	hybridOut := flag.String("hybrid-out", "BENCH_hybrid.json", "output path for the hybrid-vs-event-sim JSON report (empty = skip)")
	serveOut := flag.String("serve-out", "BENCH_serve.json", "output path for the serving-stack JSON report (empty = skip)")
	trialsOnly := flag.Bool("trials-only", false, "run only the trial-engine benchmark")
	contactsOnly := flag.Bool("contacts-only", false, "run only the contact-pipeline benchmark")
	adversaryOnly := flag.Bool("adversary-only", false, "run only the adversary-overhead benchmark")
	scaleOnly := flag.Bool("scale-only", false, "run only the structured-rates scale ladder")
	hybridOnly := flag.Bool("hybrid-only", false, "run only the hybrid-vs-event-sim benchmark")
	serveOnly := flag.Bool("serve-only", false, "run only the serving-stack benchmark")
	flag.Parse()

	only := *trialsOnly || *contactsOnly || *adversaryOnly || *scaleOnly || *hybridOnly || *serveOnly
	if !only || *trialsOnly {
		if err := run(*short, *workers, *out); err != nil {
			fmt.Fprintln(os.Stderr, "agebench:", err)
			os.Exit(1)
		}
	}
	if (!only || *contactsOnly) && *contactsOut != "" {
		if err := runContacts(*short, *contactsOut); err != nil {
			fmt.Fprintln(os.Stderr, "agebench:", err)
			os.Exit(1)
		}
	}
	if (!only || *adversaryOnly) && *adversaryOut != "" {
		if err := runAdversary(*short, *adversaryOut); err != nil {
			fmt.Fprintln(os.Stderr, "agebench:", err)
			os.Exit(1)
		}
	}
	if (!only || *scaleOnly) && *scaleOut != "" {
		if err := runScale(*short, *scaleOut); err != nil {
			fmt.Fprintln(os.Stderr, "agebench:", err)
			os.Exit(1)
		}
	}
	if (!only || *hybridOnly) && *hybridOut != "" {
		if err := runHybrid(*short, *hybridOut); err != nil {
			fmt.Fprintln(os.Stderr, "agebench:", err)
			os.Exit(1)
		}
	}
	if (!only || *serveOnly) && *serveOut != "" {
		if err := runServe(*short, *serveOut); err != nil {
			fmt.Fprintln(os.Stderr, "agebench:", err)
			os.Exit(1)
		}
	}
}

// scenario returns the measured workload: the paper's population shape
// with few trials and a shortened run, mirroring the repo's
// BenchmarkTrialEngine*Workers benchmarks.
func scenario(short bool) experiment.Scenario {
	sc := experiment.Default()
	sc.Trials = 8
	sc.Duration = 1000
	if short {
		sc.Trials = 4
		sc.Duration = 400
	}
	return sc
}

func run(short bool, workers int, out string) error {
	sc := scenario(short)
	schemes := []string{experiment.SchemeQCR, experiment.SchemeOPT, experiment.SchemeUNI}
	report := benchReport{
		Benchmark:      "TrialEngine/RunComparison",
		provenance:     stamp(short),
		scenarioParams: paramsOf(sc, schemes),
	}

	var serialNs int64
	for _, w := range ladder(workers) {
		scw := sc
		scw.Workers = w
		var benchErr error
		r := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := scw.RunComparison(utility.Step{Tau: 10}, scw.HomogeneousSources(), schemes); err != nil {
					benchErr = err
					b.FailNow()
				}
			}
		})
		if benchErr != nil {
			return benchErr
		}
		if r.N == 0 {
			return fmt.Errorf("benchmark at %d workers did not run", w)
		}
		ns := r.NsPerOp()
		if w == 1 {
			serialNs = ns
		}
		res := benchResult{
			Workers:     w,
			Iterations:  r.N,
			NsPerOp:     ns,
			AllocsPerOp: r.AllocsPerOp(),
			BytesPerOp:  r.AllocedBytesPerOp(),
		}
		if serialNs > 0 && ns > 0 {
			res.SpeedupVsSerial = float64(serialNs) / float64(ns)
		}
		report.Results = append(report.Results, res)
		fmt.Printf("workers=%d  %12d ns/op  %10d allocs/op  speedup %.2fx\n",
			w, ns, res.AllocsPerOp, res.SpeedupVsSerial)
	}

	return writeJSON(out, report)
}

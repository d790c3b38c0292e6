// Command bench is the repository's benchmark: five workloads over the
// paper's figure, a million-node run, the hybrid fluid engine and the
// aged allocation daemon, each checked for correctness, with a traced
// mode that attributes time to layers. See README.md.
//
// Usage (from this directory):
//
//	go run . -seed 1                        # all workloads, one child process each
//	go run . -workload fig4-step -seed 3    # one workload in this process
//	go run . -trace 1 -seed 1               # traced runs: per-layer metrics and span files
//	go run . -repeat 5 -o runs.json         # five seeds per workload; medians and quartiles
//	go run . -compare parent.json change.json
//
// A single-workload run prints a human-readable report and, as its last
// line, one JSON object with the run's declared metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
)

func main() {
	workload := flag.String("workload", "", "run only this workload, in this process (empty: every workload, each in a child process)")
	seed := flag.Uint64("seed", 1, "seed the workload inputs derive from")
	seconds := flag.Float64("seconds", 20, "how long each run measures, in seconds")
	traced := flag.Int("trace", 0, "1: traced run (per-layer metrics, span file); 0: end-to-end metrics")
	repeat := flag.Int("repeat", 1, "runs per workload, on seeds seed, seed+1, …")
	compare := flag.Bool("compare", false, "compare two -repeat outputs given as arguments: parent.json change.json")
	out := flag.String("o", "", "write the full result JSON here")
	outdir := flag.String("outdir", "out", "directory for span files and run outputs")
	flag.Parse()

	var err error
	switch {
	case *compare:
		if flag.NArg() != 2 {
			err = fmt.Errorf("-compare takes two files: parent.json change.json")
			break
		}
		var regressed bool
		regressed, err = compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err == nil && regressed {
			os.Exit(1)
		}
	case *traced != 0 && *traced != 1:
		err = fmt.Errorf("-trace %d: want 0 or 1", *traced)
	case *seconds <= 0:
		err = fmt.Errorf("-seconds %g: want > 0", *seconds)
	case *workload != "":
		s := spec{seed: *seed, seconds: *seconds}
		var ok bool
		ok, err = runOne(*workload, s, *traced == 1, *out, *outdir)
		if err == nil && !ok {
			os.Exit(1)
		}
	default:
		err = runAll(*seed, *seconds, *traced == 1, *repeat, *out, *outdir)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// runOne runs one workload in this process, prints its report and, last,
// its summary line. It returns whether the run was correct.
func runOne(name string, s spec, traced bool, out, outdir string) (bool, error) {
	w, ok := findWorkload(name)
	if !ok {
		return false, fmt.Errorf("unknown workload %q", name)
	}
	r, err := execute(w, s, traced, outdir)
	if err != nil {
		return false, err
	}
	printResult(os.Stdout, r)
	if out != "" {
		if err := writeJSONFile(out, r); err != nil {
			return false, err
		}
	}
	line, err := r.summaryLine()
	if err != nil {
		return false, err
	}
	fmt.Println(string(line))
	return r.Correct, nil
}

// execute runs one workload, traced or not, and settles its correctness.
func execute(w workload, s spec, traced bool, outdir string) (*Result, error) {
	r := newResult(w.name, s.seed, s.seconds, traced)
	if traced {
		if err := os.MkdirAll(outdir, 0o755); err != nil {
			return nil, err
		}
		if err := runTraced(w, s, r, filepath.Join(outdir, "trace-"+w.name+".json")); err != nil {
			return nil, fmt.Errorf("%s: %w", w.name, err)
		}
	} else if err := w.run(s, r); err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	r.finish()
	return r, nil
}

// traceFile is the span file a traced run writes.
type traceFile struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	Spans    []Span `json:"spans"`
}

// runTraced replays the workload's inputs as traced layer calls, then
// runs the layer probes, and writes every span to path.
func runTraced(w workload, s spec, r *Result, path string) error {
	t := newTracer()
	before := snapRuntime()
	rp, err := w.replay(s, t, r)
	if err != nil {
		return err
	}
	before.record(snapRuntime(), r)
	if err := runProbes(s, t, r); err != nil {
		return err
	}
	spans := t.Spans()
	if err := writeJSONFile(path, traceFile{Workload: w.name, Seed: s.seed, Spans: spans}); err != nil {
		return err
	}

	// Layer self times below the replay root, against the same inputs
	// run with tracing off. Layer calls are the leaf spans; the spans
	// above them group calls by trial or window, and their self time is
	// the harness's own.
	sub := subtree(spans, rp.root)
	parents := map[int]bool{}
	var traced, layers int64
	for _, sp := range sub {
		parents[sp.Parent] = true
		if sp.ID == rp.root {
			traced = sp.End - sp.Start
		}
	}
	for _, sp := range sub {
		if !parents[sp.ID] {
			layers += sp.End - sp.Start
		}
	}
	fmt.Printf("%s layers (replay of the workload's inputs, %d spans, written to %s)\n", w.name, len(sub), path)
	fmt.Printf("  %-28s %7s %12s %12s\n", "span", "calls", "self_ms", "total_ms")
	for _, lt := range layerTotals(sub) {
		fmt.Printf("  %-28s %7d %12.3f %12.3f\n", lt.Name, lt.Calls, float64(lt.Self)/1e6, float64(lt.Total)/1e6)
	}
	untraced := rp.untraced.Nanoseconds()
	r.extra("replay_traced_ms", float64(traced)/1e6, "ms", 0)
	r.extra("replay_untraced_ms", float64(untraced)/1e6, "ms", 0)
	r.extra("layer_sum_ms", float64(layers)/1e6, "ms", 0)
	r.extra("layer_gap_ms", float64(untraced-layers)/1e6, "ms", 0)
	r.extra("tracing_overhead_ms", float64(traced-untraced)/1e6, "ms", 0)
	fmt.Printf("  layer sum %.3f ms, untraced end-to-end %.3f ms, gap %.3f ms; traced %.3f ms, tracing overhead %.3f ms\n",
		float64(layers)/1e6, float64(untraced)/1e6, float64(untraced-layers)/1e6, float64(traced)/1e6, float64(traced-untraced)/1e6)
	return nil
}

// subtree returns the span with id root and all its descendants.
func subtree(spans []Span, root int) []Span {
	in := map[int]bool{root: true}
	var out []Span
	for _, s := range spans { // parents are recorded before their children
		if in[s.ID] || in[s.Parent] {
			in[s.ID] = true
			out = append(out, s)
		}
	}
	return out
}

func printResult(w *os.File, r *Result) {
	mode := "end-to-end"
	if r.Trace {
		mode = "traced"
	}
	fmt.Fprintf(w, "%s (%s) seed=%d seconds=%g correct=%v attempted=%d failed=%d\n",
		r.Workload, mode, r.Seed, r.Seconds, r.Correct, r.Attempted, r.Failed)
	p := r.Provenance
	fmt.Fprintf(w, "  provenance: commit=%s go=%s nproc=%d GOMAXPROCS=%d\n", p.Commit, p.GoVersion, p.NumCPU, p.GOMAXPROCS)
	for _, g := range r.Gates {
		fmt.Fprintf(w, "  gate %-44s %-4s %s\n", g.Name, map[bool]string{true: "ok", false: "FAIL"}[g.OK], g.Detail)
	}
	printMetrics(w, "metric", r.Metrics)
	printMetrics(w, "extra", r.Extra)
	for _, n := range r.Notes {
		fmt.Fprintf(w, "  note   %s\n", n)
	}
}

func printMetrics(w *os.File, kind string, ms map[string]Metric) {
	names := make([]string, 0, len(ms))
	for k := range ms {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		m := ms[k]
		n := ""
		if m.N > 0 {
			n = "n=" + strconv.Itoa(m.N)
		}
		fmt.Fprintf(w, "  %-6s %-38s %14.6g %-6s %s\n", kind, k, m.Value, m.Unit, n)
	}
}

// runsFile is what -repeat writes and -compare reads.
type runsFile struct {
	Provenance Provenance                          `json:"provenance"`
	Seconds    float64                             `json:"seconds"`
	Trace      bool                                `json:"trace"`
	Runs       map[string][]*Result                `json:"runs"`
	Summary    map[string]map[string]metricSummary `json:"summary"`
}

// metricSummary is a metric's median and quartiles over repeated runs;
// Spread is the interquartile range as a share of the median.
type metricSummary struct {
	Unit   string  `json:"unit"`
	N      int     `json:"n"`
	Q1     float64 `json:"q1"`
	Median float64 `json:"median"`
	Q3     float64 `json:"q3"`
	Spread float64 `json:"spread"`
}

func summarize(runs []*Result) map[string]metricSummary {
	vals := map[string][]float64{}
	units := map[string]string{}
	for _, r := range runs {
		for k, m := range r.Metrics {
			vals[k] = append(vals[k], m.Value)
			units[k] = m.Unit
		}
	}
	out := make(map[string]metricSummary, len(vals))
	for k, v := range vals {
		q1, q2, q3 := quartiles(v)
		spread := 0.0
		if q2 != 0 {
			spread = (q3 - q1) / math.Abs(q2)
		}
		out[k] = metricSummary{Unit: units[k], N: len(v), Q1: q1, Median: q2, Q3: q3, Spread: spread}
	}
	return out
}

// runAll runs every workload repeat times, each run in a fresh child
// process so no run inherits another's heap or caches.
func runAll(seed uint64, seconds float64, traced bool, repeat int, out, outdir string) error {
	if repeat < 1 {
		return fmt.Errorf("-repeat %d: want ≥ 1", repeat)
	}
	if err := os.MkdirAll(outdir, 0o755); err != nil {
		return err
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	tr := "0"
	if traced {
		tr = "1"
	}
	rf := runsFile{Provenance: provenance(), Seconds: seconds, Trace: traced, Runs: map[string][]*Result{}}
	failed := 0
	for k := 0; k < repeat; k++ {
		for _, w := range workloads {
			sd := strconv.FormatUint(seed+uint64(k), 10)
			path := filepath.Join(outdir, fmt.Sprintf("%s-%s-trace%s.json", w.name, sd, tr))
			args := []string{"-workload", w.name, "-seed", sd, "-seconds", strconv.FormatFloat(seconds, 'g', -1, 64),
				"-trace", tr, "-o", path, "-outdir", outdir}
			// A child that fails before writing must not leave an earlier
			// run's result to be read in its place.
			if err := os.Remove(path); err != nil && !errors.Is(err, fs.ErrNotExist) {
				return err
			}
			cmd := exec.Command(self, args...)
			cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
			if err := cmd.Run(); err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s seed %s: %v\n", w.name, sd, err)
				failed++
			}
			data, err := os.ReadFile(path)
			if err != nil {
				continue
			}
			var r Result
			if err := json.Unmarshal(data, &r); err != nil {
				return fmt.Errorf("%s: %w", path, err)
			}
			rf.Runs[w.name] = append(rf.Runs[w.name], &r)
		}
	}
	rf.Summary = map[string]map[string]metricSummary{}
	for name, runs := range rf.Runs {
		rf.Summary[name] = summarize(runs)
	}
	printSummary(rf)
	if out == "" {
		out = filepath.Join(outdir, "runs.json")
	}
	if err := writeJSONFile(out, rf); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", out)
	if failed > 0 {
		return fmt.Errorf("%d of %d runs failed", failed, repeat*len(workloads))
	}
	return nil
}

func printSummary(rf runsFile) {
	fmt.Printf("\nsummary over %d seed(s): median [q1, q3] and spread (IQR / median)\n", len(rf.Runs[workloads[0].name]))
	for _, w := range workloads {
		sum, ok := rf.Summary[w.name]
		if !ok {
			continue
		}
		names := make([]string, 0, len(sum))
		for k := range sum {
			names = append(names, k)
		}
		sort.Strings(names)
		fmt.Printf("%s\n", w.name)
		for _, k := range names {
			m := sum[k]
			fmt.Printf("  %-38s %12.6g %-6s [%.6g, %.6g] spread %.1f%% n=%d\n", k, m.Median, m.Unit, m.Q1, m.Q3, 100*m.Spread, m.N)
		}
	}
}

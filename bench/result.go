package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"regexp"
	"runtime"
	"runtime/debug"
	"sort"
	"time"
)

// metricDef declares one metric the benchmark reports under its fixed
// name. The tables below are the harness's copy of BENCHMARK.json; a test
// keeps the two in step.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: tolerated worsening, as a share of the parent's median
	// Floor is an absolute tolerance in the metric's unit: a worsening no
	// larger than it is never a regression, however small the median.
	Floor float64
}

// endToEnd is every metric a run with tracing off reports, on every
// workload. An "op" is the workload's unit of result: one figure
// regeneration, one million-node run or one hybrid figure for the batch
// workloads, one /v1/observe window for aged-*.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25, 0.05},
	{"op_p50_ms", "ms", "lower", 0.25, 0},
	{"work_per_s", "1/s", "higher", 0.25, 0},
	{"peak_rss_mb", "MB", "lower", 0.15, 0},
}

// perLayer is every metric a traced run reports. They have no bound.
var perLayer = []metricDef{
	{"contact.replay_ns_per_contact", "ns", "lower", 0, 0},
	{"contact.alias_ns_per_contact", "ns", "lower", 0, 0},
	{"trace.empirical_rates_ns_per_contact", "ns", "lower", 0, 0},
	{"welfare.opt_greedy_ms", "ms", "lower", 0, 0},
	{"rates.sharded_ns_per_contact", "ns", "lower", 0, 0},
	{"rates.setup_bytes_per_node", "B", "lower", 0, 0},
	{"sim.setup_ns_per_node", "ns", "lower", 0, 0},
	{"sim.setup_bytes_per_node", "B", "lower", 0, 0},
	{"sim.kernel.meet_ns_per_contact", "ns", "lower", 0, 0},
	{"sim.kernel.fulfill_ns_per_contact", "ns", "lower", 0, 0},
	{"sim.kernel.policy_ns_per_contact", "ns", "lower", 0, 0},
	{"sim.kernel.allocs_per_contact", "count", "lower", 0, 0},
	{"sim.shard_speedup", "x", "higher", 0, 0},
	{"sim.batch_ns_per_runner_contact", "ns", "lower", 0, 0},
	{"meanfield.rk45_ms_per_window", "ms", "lower", 0, 0},
	{"meanfield.evals_per_window", "count", "lower", 0, 0},
	{"meanfield.ns_per_eval", "ns", "lower", 0, 0},
	{"meanfield.accepted_frac", "ratio", "higher", 0, 0},
	{"numeric.waterfill_warm_ms", "ms", "lower", 0, 0},
	{"numeric.waterfill_cold_ms", "ms", "lower", 0, 0},
	{"serve.warm_certified_frac", "ratio", "higher", 0, 0},
	{"serve.decode_us", "us", "lower", 0, 0},
	{"serve.fold_us", "us", "lower", 0, 0},
	{"serve.drift_us", "us", "lower", 0, 0},
	{"serve.encode_us", "us", "lower", 0, 0},
	{"serve.http_gap_us", "us", "lower", 0, 0},
	{"runtime.cpu_s", "s", "lower", 0, 0},
	{"runtime.gc_cycles", "count", "lower", 0, 0},
	{"runtime.gc_pause_ms", "ms", "lower", 0, 0},
	{"runtime.alloc_mb", "MB", "lower", 0, 0},
}

// metricName is the shape every metric name must have.
var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// Metric is one measured value.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// N is the sample count behind a percentile or median (0 when the
	// value is not a statistic over samples).
	N int `json:"n,omitempty"`
}

// Gate is one correctness check of a run.
type Gate struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail"`
}

// Provenance stamps a result with what produced it.
type Provenance struct {
	Commit     string `json:"commit"`
	GoVersion  string `json:"go_version"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	UnixTime   int64  `json:"unix_time"`
}

func provenance() Provenance {
	p := Provenance{
		Commit:     "unknown",
		GoVersion:  runtime.Version(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		UnixTime:   time.Now().Unix(),
	}
	if info, ok := debug.ReadBuildInfo(); ok {
		var rev, modified string
		for _, s := range info.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				modified = s.Value
			}
		}
		if rev != "" {
			p.Commit = rev
			if modified == "true" {
				p.Commit += "+dirty"
			}
		}
	}
	return p
}

// Result is everything one workload run produced. Metrics holds the
// declared metrics (endToEnd, or perLayer when traced); Extra holds the
// workload-specific numbers that are printed and recorded but not
// compared across workloads.
type Result struct {
	Workload   string            `json:"workload"`
	Seed       uint64            `json:"seed"`
	Seconds    float64           `json:"seconds"`
	Trace      bool              `json:"trace"`
	Provenance Provenance        `json:"provenance"`
	Correct    bool              `json:"correct"`
	Attempted  int               `json:"attempted"`
	Failed     int               `json:"failed"`
	Gates      []Gate            `json:"gates"`
	Metrics    map[string]Metric `json:"metrics"`
	Extra      map[string]Metric `json:"extra,omitempty"`
	Notes      []string          `json:"notes,omitempty"`
}

func newResult(w string, seed uint64, seconds float64, traced bool) *Result {
	return &Result{
		Workload:   w,
		Seed:       seed,
		Seconds:    seconds,
		Trace:      traced,
		Provenance: provenance(),
		Metrics:    map[string]Metric{},
		Extra:      map[string]Metric{},
	}
}

// gate records a correctness check.
func (r *Result) gate(name string, ok bool, format string, args ...any) {
	r.Gates = append(r.Gates, Gate{Name: name, OK: ok, Detail: fmt.Sprintf(format, args...)})
}

func (r *Result) set(name string, v float64, unit string, n int) {
	r.Metrics[name] = Metric{Value: v, Unit: unit, N: n}
}

func (r *Result) extra(name string, v float64, unit string, n int) {
	r.Extra[name] = Metric{Value: v, Unit: unit, N: n}
}

// finish settles Correct: every gate passed, no operation failed, and
// every declared metric is present and finite.
func (r *Result) finish() {
	defs := endToEnd
	if r.Trace {
		defs = perLayer
	}
	for _, d := range defs {
		m, ok := r.Metrics[d.Name]
		if ok && (math.IsNaN(m.Value) || math.IsInf(m.Value, 0)) {
			delete(r.Metrics, d.Name) // JSON cannot carry it
			ok = false
		}
		if !ok {
			r.gate("metric "+d.Name, false, "missing or not finite: %v", m.Value)
		}
	}
	r.Correct = r.Attempted > 0 && r.Failed == 0
	for _, g := range r.Gates {
		r.Correct = r.Correct && g.OK
	}
}

// summaryLine is the one-line JSON object a run prints last.
func (r *Result) summaryLine() ([]byte, error) {
	type val struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := make(map[string]val, len(r.Metrics))
	for k, m := range r.Metrics {
		ms[k] = val{m.Value, m.Unit}
	}
	return json.Marshal(struct {
		Correct   bool           `json:"correct"`
		Attempted int            `json:"attempted"`
		Failed    int            `json:"failed"`
		Metrics   map[string]val `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, ms})
}

func writeJSONFile(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// tailMin is how many samples a reported percentile must leave beyond it.
const tailMin = 10

// beyond is the number of samples above the p-quantile of n samples.
func beyond(n int, p float64) int {
	return n - int(math.Ceil(p*float64(n)-1e-9))
}

// percentile returns the p-quantile of xs (linear interpolation between
// order statistics) and whether at least tailMin samples lie beyond it.
// p = 0.5 is always reportable once there is a sample.
func percentile(xs []float64, p float64) (float64, bool) {
	if len(xs) == 0 {
		return math.NaN(), false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p * float64(len(s)-1)
	lo, hi := int(math.Floor(pos)), int(math.Ceil(pos))
	v := s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
	return v, p == 0.5 || beyond(len(s), p) >= tailMin
}

func median(xs []float64) float64 {
	v, _ := percentile(xs, 0.5)
	return v
}

// quartiles returns the first quartile, median and third quartile with
// the "exclusive" method of Python's statistics.quantiles(n=4), the rule
// the spread check uses.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return s[0], s[0], s[0]
	}
	at := func(i int) float64 {
		// Python's integer arithmetic, including its clamp of j to
		// [1, n-1], which extrapolates for very small samples.
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(2), at(3)
}

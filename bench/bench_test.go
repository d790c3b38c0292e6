package main

import (
	"encoding/json"
	"math"
	"os"
	"regexp"
	"slices"
	"strings"
	"testing"
	"time"
)

func TestPercentileLeavesTenSamplesBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i)
		}
		return xs
	}
	cases := []struct {
		n  int
		p  float64
		ok bool
	}{
		{200, 0.95, true},
		{199, 0.95, false},
		{1000, 0.99, true},
		{999, 0.99, false},
		{150, 0.95, false},
		{20, 0.5, true},
		{1, 0.5, true},
		{0, 0.5, false},
	}
	for _, c := range cases {
		if _, ok := percentile(seq(c.n), c.p); ok != c.ok {
			t.Errorf("n=%d p=%g: reportable %v, want %v", c.n, c.p, ok, c.ok)
		}
	}
	if v, _ := percentile(seq(101), 0.5); v != 50 {
		t.Errorf("median of 0..100 = %g", v)
	}
}

func TestQuartilesMatchPythonExclusiveMethod(t *testing.T) {
	// statistics.quantiles(data, n=4) for these inputs.
	cases := []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{5, 1, 4, 2, 3}, [3]float64{1.5, 3, 4.5}},
	}
	for _, c := range cases {
		q1, q2, q3 := quartiles(c.xs)
		got := [3]float64{q1, q2, q3}
		for i := range got {
			if math.Abs(got[i]-c.want[i]) > 1e-12 {
				t.Errorf("quartiles(%v) = %v, want %v", c.xs, got, c.want)
				break
			}
		}
	}
}

func TestOpenLoopTimesFromDueTime(t *testing.T) {
	const hz = 100 // one request due every 10 ms
	const stall = 60 * time.Millisecond
	start := time.Now().Add(5 * time.Millisecond)
	end := start.Add(120 * time.Millisecond)
	lat, late, failed := openLoop(start, end, hz, func(j int) error {
		if j == 2 {
			time.Sleep(stall)
		}
		return nil
	})
	if failed != 0 || len(lat) != 12 {
		t.Fatalf("%d latencies, %d failed; want 12, 0", len(lat), failed)
	}
	// Request 2 stalls until ~80 ms; request 3, due at 30 ms, is sent
	// only then, so its latency counts the 50 ms it waited.
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	if lat[2] < ms(stall) {
		t.Errorf("stalled request latency %.1f ms, want ≥ %.0f", lat[2], ms(stall))
	}
	if lat[3] < ms(stall)-15 || lat[4] < ms(stall)-25 {
		t.Errorf("requests queued behind the stall: %.1f, %.1f ms; the wait is missing", lat[3], lat[4])
	}
	if late < stall-15*time.Millisecond {
		t.Errorf("generator lateness %v, want ≥ %v", late, stall-15*time.Millisecond)
	}
	if lat[len(lat)-1] > 20 {
		t.Errorf("last request %.1f ms late after the backlog cleared", lat[len(lat)-1])
	}
}

func TestSelfTimeSubtractsUnionOfChildren(t *testing.T) {
	spans := []Span{
		{ID: 1, Parent: 0, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "b", Start: 20, End: 50},  // overlaps a: run in parallel
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 120}, // overruns the parent
		{ID: 5, Parent: 2, Name: "d", Start: 12, End: 18},
	}
	self := selfTimes(spans)
	want := map[int]int64{1: 100 - 40 - 10, 2: 20 - 6, 3: 30, 4: 30, 5: 6}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self(%d) = %d, want %d", id, self[id], w)
		}
	}
	totals := layerTotals(append(spans, Span{ID: 6, Parent: 1, Name: "a", Start: 60, End: 65}))
	for _, lt := range totals {
		if lt.Name == "a" && (lt.Calls != 2 || lt.Self != 14+5 || lt.Total != 25) {
			t.Errorf("layer a: %+v", lt)
		}
	}
	if got := len(subtree(spans, 2)); got != 2 {
		t.Errorf("subtree of 2 has %d spans, want 2", got)
	}
}

func TestTracerNestsSpans(t *testing.T) {
	tr := newTracer()
	err := tr.span("outer", 0, -1, func(p int) error {
		return tr.span("inner", p, 7, func(int) error { return nil })
	})
	if err != nil {
		t.Fatal(err)
	}
	s := tr.Spans()
	if len(s) != 2 || s[1].Parent != s[0].ID || s[1].Trial != 7 || s[0].End < s[1].End {
		t.Fatalf("spans %+v", s)
	}
}

// benchmarkJSON is the part of BENCHMARK.json the harness must agree with.
type benchmarkJSON struct {
	Command   []string `json:"command"`
	Paths     []string `json:"paths"`
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func TestMetricNamesAndBenchmarkFileAgree(t *testing.T) {
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !metricName.MatchString(d.Name) || seen[d.Name] {
			t.Errorf("metric name %q invalid or repeated", d.Name)
		}
		seen[d.Name] = true
		if !unit.MatchString(d.Unit) || (d.Better != "lower" && d.Better != "higher") {
			t.Errorf("metric %q: unit %q, better %q", d.Name, d.Unit, d.Better)
		}
	}
	for _, bad := range []string{"", "a b", "x/y", "-lead", "ünï"} {
		if metricName.MatchString(bad) {
			t.Errorf("name %q accepted", bad)
		}
	}

	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("BENCHMARK.json not found: %v", err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, harness %d", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: %q vs %q", i, w.Name, workloads[i].name)
		}
		if w.Why == "" || len(w.Why) > 200 || strings.ContainsAny(w.Why, "\n\r") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	if !slices.Equal(b.Paths, []string{"bench"}) || !slices.Equal(b.Command, []string{"bash", "bench/run.sh"}) {
		t.Errorf("paths %v, command %v", b.Paths, b.Command)
	}
	if len(b.EndToEnd) != len(endToEnd) || len(b.PerLayer) != len(perLayer) {
		t.Fatalf("metric counts differ from BENCHMARK.json")
	}
	for i, m := range b.EndToEnd {
		d := endToEnd[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better || m.Bound != d.Bound {
			t.Errorf("end-to-end %d: %+v vs %+v", i, m, d)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	for i, m := range b.PerLayer {
		d := perLayer[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("per-layer %d: %+v vs %+v", i, m, d)
		}
	}
}

func TestJudge(t *testing.T) {
	lower := metricDef{Name: "op_p50_ms", Unit: "ms", Better: "lower", Bound: 0.10}
	ramp := func(base, step float64, n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = base + step*float64(i%5)
		}
		return xs
	}
	parent := ramp(100, 1, 10) // IQR ≈ 2.5, spread 2.5 %
	cases := []struct {
		name   string
		change []float64
		want   string
	}{
		{"clear gain", ramp(80, 1, 10), verdictGain},
		{"same", ramp(101, 1, 10), verdictSame},
		{"regression", ramp(120, 1, 10), verdictRegression},
		{"too few pairs for a gain", ramp(80, 1, 9), verdictSame},
	}
	for _, c := range cases {
		if v, _, _ := judge(lower, parent, c.change); v != c.want {
			t.Errorf("%s: %s, want %s", c.name, v, c.want)
		}
	}
	noisy := []float64{60, 140, 70, 130, 80, 120, 90, 110, 100, 100}
	if v, _, _ := judge(lower, noisy, ramp(101, 1, 10)); v != verdictUnresolved {
		t.Errorf("noisy parent: %s, want %s", v, verdictUnresolved)
	}
	setup := metricDef{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25, Floor: 0.05}
	if v, _, _ := judge(setup, ramp(0.07, 0.001, 10), ramp(0.11, 0.001, 10)); v != verdictSame {
		t.Errorf("setup 40 ms slower, under the 50 ms floor: %s, want %s", v, verdictSame)
	}
	if v, _, _ := judge(setup, ramp(0.40, 0.001, 10), ramp(0.60, 0.001, 10)); v != verdictRegression {
		t.Errorf("setup 200 ms slower: %s, want %s", v, verdictRegression)
	}
	higher := metricDef{Name: "work_per_s", Unit: "1/s", Better: "higher", Bound: 0.10}
	if v, _, _ := judge(higher, parent, ramp(80, 1, 10)); v != verdictRegression {
		t.Errorf("throughput drop: %s, want %s", v, verdictRegression)
	}
}

// TestMiniatureRuns runs every workload end to end and traced, at
// miniature sizes, through the same entry point the command uses.
func TestMiniatureRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	dir := t.TempDir()
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			r, err := execute(w, spec{seed: 3, seconds: 0.2, mini: true}, traced, dir)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if !r.Correct {
				t.Errorf("%s traced=%v: not correct: %+v", w.name, traced, r.Gates)
			}
			want := endToEnd
			if traced {
				want = perLayer
			}
			if len(r.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, want %d", w.name, traced, len(r.Metrics), len(want))
			}
			line, err := r.summaryLine()
			if err != nil {
				t.Fatal(err)
			}
			var sum map[string]json.RawMessage
			if err := json.Unmarshal(line, &sum); err != nil || len(sum) != 4 {
				t.Errorf("summary line %s", line)
			}
		}
		if _, err := os.Stat(dir + "/trace-" + w.name + ".json"); err != nil {
			t.Errorf("no span file: %v", err)
		}
	}
}

package demand

import (
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"
)

func newRNG(seed uint64) *rand.Rand { return rand.New(rand.NewPCG(seed, seed^0x9e3779b97f4a7c15)) }

func TestParetoShape(t *testing.T) {
	p := Pareto(50, 1, 10)
	if p.Items() != 50 {
		t.Fatalf("items=%d, want 50", p.Items())
	}
	if math.Abs(p.Total()-10) > 1e-9 {
		t.Errorf("total=%g, want 10", p.Total())
	}
	// d_i ∝ 1/(i+1): ratios must match exactly.
	if r := p.Rates[0] / p.Rates[1]; math.Abs(r-2) > 1e-9 {
		t.Errorf("d_0/d_1=%g, want 2", r)
	}
	if r := p.Rates[0] / p.Rates[9]; math.Abs(r-10) > 1e-9 {
		t.Errorf("d_0/d_9=%g, want 10", r)
	}
	for i := 1; i < p.Items(); i++ {
		if p.Rates[i] > p.Rates[i-1] {
			t.Fatalf("rates not non-increasing at %d", i)
		}
	}
}

func TestParetoOmegaZeroIsUniform(t *testing.T) {
	p := Pareto(10, 0, 5)
	for i, d := range p.Rates {
		if math.Abs(d-0.5) > 1e-12 {
			t.Errorf("rate[%d]=%g, want 0.5", i, d)
		}
	}
}

func TestUniformAndGeometric(t *testing.T) {
	u := Uniform(4, 8)
	for _, d := range u.Rates {
		if math.Abs(d-2) > 1e-12 {
			t.Errorf("uniform rate %g, want 2", d)
		}
	}
	g := Geometric(3, 0.5, 7)
	if math.Abs(g.Rates[0]/g.Rates[1]-2) > 1e-9 || math.Abs(g.Rates[1]/g.Rates[2]-2) > 1e-9 {
		t.Errorf("geometric ratios wrong: %v", g.Rates)
	}
	if math.Abs(g.Total()-7) > 1e-9 {
		t.Errorf("geometric total %g, want 7", g.Total())
	}
}

func TestNormalizedZeroTotal(t *testing.T) {
	p := Popularity{Rates: []float64{0, 0}}
	out := p.Normalized(5)
	if out.Total() != 0 {
		t.Errorf("normalizing zero demand should stay zero, got %v", out.Rates)
	}
}

func TestValidate(t *testing.T) {
	if err := (Popularity{Rates: []float64{1, -1}}).Validate(); err == nil {
		t.Error("negative rate accepted")
	}
	if err := (Popularity{Rates: []float64{math.NaN()}}).Validate(); err == nil {
		t.Error("NaN rate accepted")
	}
	if err := (Popularity{Rates: []float64{1, 2}}).Validate(); err != nil {
		t.Errorf("valid rates rejected: %v", err)
	}
}

func TestUniformProfile(t *testing.T) {
	p := UniformProfile(3, 4)
	if err := p.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	for i := range p.P {
		for n := range p.P[i] {
			if math.Abs(p.P[i][n]-0.25) > 1e-12 {
				t.Errorf("π[%d][%d]=%g, want 0.25", i, n, p.P[i][n])
			}
		}
	}
}

func TestProfileValidateRejectsBadRows(t *testing.T) {
	bad := Profile{P: [][]float64{{0.5, 0.4}}} // sums to 0.9
	if err := bad.Validate(); err == nil {
		t.Error("row not summing to 1 accepted")
	}
	bad = Profile{P: [][]float64{{1.5, -0.5}}}
	if err := bad.Validate(); err == nil {
		t.Error("out-of-range probabilities accepted")
	}
}

func TestProcessInterArrivalTimes(t *testing.T) {
	pop := Uniform(5, 2) // aggregate rate 2
	proc, err := NewProcess(pop, UniformProfile(5, 10), newRNG(1))
	if err != nil {
		t.Fatalf("NewProcess: %v", err)
	}
	const n = 20000
	var last, sum float64
	for k := 0; k < n; k++ {
		r, ok := proc.Next()
		if !ok {
			t.Fatal("process stopped unexpectedly")
		}
		if r.T <= last {
			t.Fatalf("time not strictly increasing: %g after %g", r.T, last)
		}
		sum += r.T - last
		last = r.T
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.02 {
		t.Errorf("mean inter-arrival %g, want 0.5 (rate 2)", mean)
	}
}

func TestProcessItemFrequencies(t *testing.T) {
	pop := Pareto(10, 1, 1)
	proc, err := NewProcess(pop, UniformProfile(10, 5), newRNG(7))
	if err != nil {
		t.Fatalf("NewProcess: %v", err)
	}
	counts := make([]float64, 10)
	const n = 100000
	for k := 0; k < n; k++ {
		r, _ := proc.Next()
		if r.Item < 0 || r.Item >= 10 || r.Node < 0 || r.Node >= 5 {
			t.Fatalf("out-of-range request %+v", r)
		}
		counts[r.Item]++
	}
	for i := range counts {
		want := pop.Rates[i] / pop.Total()
		got := counts[i] / n
		if math.Abs(got-want) > 0.01 {
			t.Errorf("item %d frequency %g, want %g", i, got, want)
		}
	}
}

func TestProcessZeroDemand(t *testing.T) {
	proc, err := NewProcess(Popularity{Rates: []float64{0, 0}}, UniformProfile(2, 2), newRNG(3))
	if err != nil {
		t.Fatalf("NewProcess: %v", err)
	}
	if _, ok := proc.Next(); ok {
		t.Error("zero-demand process produced an event")
	}
}

func TestProcessRejectsMismatchedProfile(t *testing.T) {
	if _, err := NewProcess(Uniform(3, 1), UniformProfile(2, 2), newRNG(1)); err == nil {
		t.Error("mismatched profile accepted")
	}
}

func TestSetPopularityMidRun(t *testing.T) {
	proc, err := NewProcess(Pareto(4, 1, 1), UniformProfile(4, 2), newRNG(11))
	if err != nil {
		t.Fatalf("NewProcess: %v", err)
	}
	r1, _ := proc.Next()
	// Flip all demand to item 3.
	if err := proc.SetPopularity(Popularity{Rates: []float64{0, 0, 0, 5}}); err != nil {
		t.Fatalf("SetPopularity: %v", err)
	}
	for k := 0; k < 100; k++ {
		r, ok := proc.Next()
		if !ok {
			t.Fatal("process stopped")
		}
		if r.T <= r1.T {
			t.Fatal("clock went backwards after popularity change")
		}
		if r.Item != 3 {
			t.Fatalf("got item %d after flip, want 3", r.Item)
		}
	}
	if err := proc.SetPopularity(Uniform(7, 1)); err == nil {
		t.Error("popularity with wrong catalog size accepted")
	}
}

// Property: sampled node frequencies follow a skewed profile row.
func TestProcessProfileProperty(t *testing.T) {
	prop := func(seed uint64) bool {
		profile := Profile{P: [][]float64{{0.7, 0.2, 0.1}}}
		proc, err := NewProcess(Popularity{Rates: []float64{1}}, profile, newRNG(seed))
		if err != nil {
			return false
		}
		counts := make([]float64, 3)
		const n = 30000
		for k := 0; k < n; k++ {
			r, _ := proc.Next()
			counts[r.Node]++
		}
		return math.Abs(counts[0]/n-0.7) < 0.02 &&
			math.Abs(counts[1]/n-0.2) < 0.02 &&
			math.Abs(counts[2]/n-0.1) < 0.02
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 5}); err != nil {
		t.Error(err)
	}
}

func TestCloneIndependence(t *testing.T) {
	p := Pareto(5, 1, 1)
	c := p.Clone()
	c.Rates[0] = 99
	if p.Rates[0] == 99 {
		t.Error("Clone shares backing storage")
	}
}

// TestProcessSharesRowCDFs checks that items given the same profile row
// share one node CDF, and that sharing leaves the drawn requests exactly
// as they are with one copy of the row per item.
func TestProcessSharesRowCDFs(t *testing.T) {
	const items, clients = 5, 40
	pop := Pareto(items, 1, 3)
	row := make([]float64, clients)
	for n := range row {
		row[n] = float64(n+1) / float64(clients*(clients+1)/2)
	}
	shared := Profile{P: make([][]float64, items)}
	copied := Profile{P: make([][]float64, items)}
	for i := range shared.P {
		shared.P[i] = row
		copied.P[i] = append([]float64(nil), row...)
	}
	ps, err := NewProcess(pop, shared, newRNG(4))
	if err != nil {
		t.Fatal(err)
	}
	pc, err := NewProcess(pop, copied, newRNG(4))
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < items; i++ {
		if &ps.nodeCDF[i][0] != &ps.nodeCDF[0][0] {
			t.Fatalf("item %d has its own CDF for a shared row", i)
		}
		if &pc.nodeCDF[i][0] == &pc.nodeCDF[0][0] {
			t.Fatalf("item %d shares a CDF across distinct rows", i)
		}
	}
	for k := 0; k < 1000; k++ {
		a, _ := ps.Next()
		b, _ := pc.Next()
		if a != b {
			t.Fatalf("request %d: shared rows drew %+v, copied rows %+v", k, a, b)
		}
	}
}

// TestProcessEqualRowsDrawAsBinarySearch checks that the rows of equal
// weights, and only those, get the index's array-free arm, and that the
// process draws exactly the requests a binary search over its own CDFs
// draws from the same RNG, on every row.
func TestProcessEqualRowsDrawAsBinarySearch(t *testing.T) {
	const items, clients = 4, 1000
	pop := Pareto(items, 1, 3)
	prof := UniformProfile(items, clients)
	skew := make([]float64, clients)
	for n := range skew {
		skew[n] = float64(n+1) / float64(clients*(clients+1)/2)
	}
	prof.P[2] = skew
	p, err := NewProcess(pop, prof, newRNG(8))
	if err != nil {
		t.Fatal(err)
	}
	for i := range p.nodeIndex {
		if b, equal := p.nodeIndex[i].Bytes(), i != 2; (b == 0) != equal {
			t.Fatalf("row %d: index holds %d guide bytes; equal weights %v", i, b, equal)
		}
	}
	rng := newRNG(8)
	now := 0.0
	for k := 0; k < 20000; k++ {
		got, _ := p.Next()
		now += rng.ExpFloat64() / p.total
		item := binarySearch(p.itemCDF, rng.Float64())
		want := Request{T: now, Node: binarySearch(p.nodeCDF[item], rng.Float64()), Item: item}
		if got != want {
			t.Fatalf("request %d: index draw %+v, binary search %+v", k, got, want)
		}
	}
}

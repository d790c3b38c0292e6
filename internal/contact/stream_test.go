package contact

import (
	"math"
	"sort"
	"testing"

	"impatience/internal/trace"
)

// heteroRates builds a deterministic heterogeneous matrix with zero rates
// mixed in, shared by the equivalence tests.
func heteroRates(nodes int) *trace.RateMatrix {
	rm := trace.NewRateMatrix(nodes)
	for a := 0; a < nodes; a++ {
		for b := a + 1; b < nodes; b++ {
			switch (a + b) % 3 {
			case 0:
				rm.Set(a, b, 0) // every third pair never meets
			case 1:
				rm.Set(a, b, 0.02*float64(a+1))
			default:
				rm.Set(a, b, 0.005*float64(b))
			}
		}
	}
	return rm
}

// TestStreamMatchesGenerateFrequencies is the statistical-equivalence
// certificate for the alias sampler: the legacy searchCDF path and the
// streaming alias path draw pair assignments from the same distribution.
// A two-sample chi-square over per-pair contact counts checks this
// directly; the threshold is the 99.9% critical value for the cell count
// so the fixed-seed test sits far from its rejection boundary.
func TestStreamMatchesGenerateFrequencies(t *testing.T) {
	const nodes, duration = 10, 10000.0
	rm := heteroRates(nodes)

	legacy, err := Generate(rm, duration, newRNG(21))
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	src, err := NewStream(rm, duration, newRNG(22))
	if err != nil {
		t.Fatalf("NewStream: %v", err)
	}
	streamed, err := trace.Collect(src)
	if err != nil {
		t.Fatalf("Collect: %v", err)
	}

	pairs := trace.NumPairs(nodes)
	x := make([]float64, pairs) // legacy counts
	y := make([]float64, pairs) // alias counts
	for _, c := range legacy.Contacts {
		x[trace.PairIndex(nodes, c.A, c.B)]++
	}
	for _, c := range streamed.Contacts {
		y[trace.PairIndex(nodes, c.A, c.B)]++
	}
	var sumX, sumY float64
	for i := range x {
		sumX += x[i]
		sumY += y[i]
	}
	if sumX < 10000 || sumY < 10000 {
		t.Fatalf("too few contacts for the test: %g legacy, %g streamed", sumX, sumY)
	}
	k1, k2 := math.Sqrt(sumY/sumX), math.Sqrt(sumX/sumY)
	var chi2 float64
	cells := 0
	for i := range x {
		if rm.Rates()[i] == 0 {
			if x[i] != 0 || y[i] != 0 {
				t.Fatalf("zero-rate pair %d met (%g legacy, %g streamed)", i, x[i], y[i])
			}
			continue
		}
		if x[i]+y[i] == 0 {
			continue
		}
		d := k1*x[i] - k2*y[i]
		chi2 += d * d / (x[i] + y[i])
		cells++
	}
	// 99.9% chi-square critical value for df = cells-1 (≤ 29 here) is
	// 58.3; use a round bound above it.
	if chi2 > 60 {
		t.Errorf("two-sample chi-square %.2f over %d cells: alias and searchCDF pair frequencies differ", chi2, cells)
	}
}

// ksExponential returns the Kolmogorov-Smirnov statistic of gaps against
// the Exp(mu) distribution, scaled by sqrt(n).
func ksExponential(gaps []float64, mu float64) float64 {
	sorted := append([]float64(nil), gaps...)
	sort.Float64s(sorted)
	n := float64(len(sorted))
	var d float64
	for i, g := range sorted {
		f := 1 - math.Exp(-mu*g)
		if hi := float64(i+1)/n - f; hi > d {
			d = hi
		}
		if lo := f - float64(i)/n; lo > d {
			d = lo
		}
	}
	return d * math.Sqrt(n)
}

// TestStreamInterContactExponential checks the other half of equivalence:
// inter-contact gaps on both paths are Exp(µ) per the KS test at the
// 99.9% level (critical value 1.95).
func TestStreamInterContactExponential(t *testing.T) {
	const mu, duration = 0.1, 100000.0
	rm := trace.NewRateMatrix(2)
	rm.Set(0, 1, mu)

	legacy, err := Generate(rm, duration, newRNG(23))
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	src, err := NewStream(rm, duration, newRNG(24))
	if err != nil {
		t.Fatalf("NewStream: %v", err)
	}
	streamed, err := trace.Collect(src)
	if err != nil {
		t.Fatalf("Collect: %v", err)
	}
	for _, tc := range []struct {
		name string
		tr   *trace.Trace
	}{{"searchCDF", legacy}, {"alias", streamed}} {
		gaps := trace.InterContactTimes(tc.tr)
		if len(gaps) < 5000 {
			t.Fatalf("%s: only %d gaps", tc.name, len(gaps))
		}
		if ks := ksExponential(gaps, mu); ks > 1.95 {
			t.Errorf("%s: KS statistic %.3f exceeds 99.9%% critical value 1.95", tc.name, ks)
		}
	}
}

// TestStreamEmpiricalRates pins per-pair rate recovery on the streaming
// path, including exact zeros for zero-rate pairs.
func TestStreamEmpiricalRates(t *testing.T) {
	rm := trace.NewRateMatrix(4)
	rm.Set(0, 1, 0.2)
	rm.Set(2, 3, 0.05)
	src, err := NewStream(rm, 5000, newRNG(25))
	if err != nil {
		t.Fatalf("NewStream: %v", err)
	}
	tr, err := trace.Collect(src)
	if err != nil {
		t.Fatalf("Collect: %v", err)
	}
	emp := trace.EmpiricalRates(tr)
	if got := emp.At(0, 1); math.Abs(got-0.2) > 0.02 {
		t.Errorf("µ(0,1)=%g, want 0.2", got)
	}
	if got := emp.At(2, 3); math.Abs(got-0.05) > 0.01 {
		t.Errorf("µ(2,3)=%g, want 0.05", got)
	}
	if got := emp.At(0, 2); got != 0 {
		t.Errorf("µ(0,2)=%g, want exactly 0", got)
	}
}

// TestStreamDeterministicWithSeed: a stream is a pure function of
// (matrix, duration, seed).
func TestStreamDeterministicWithSeed(t *testing.T) {
	build := func() *trace.Trace {
		src, err := NewHomogeneousStream(8, 0.05, 800, newRNG(42))
		if err != nil {
			t.Fatalf("NewHomogeneousStream: %v", err)
		}
		tr, err := trace.Collect(src)
		if err != nil {
			t.Fatalf("Collect: %v", err)
		}
		return tr
	}
	a, b := build(), build()
	if len(a.Contacts) != len(b.Contacts) {
		t.Fatalf("lengths differ: %d vs %d", len(a.Contacts), len(b.Contacts))
	}
	for i := range a.Contacts {
		if a.Contacts[i] != b.Contacts[i] {
			t.Fatalf("contact %d differs", i)
		}
	}
}

// TestDiscreteStreamBitIdentical: the discrete stream consumes randomness
// in GenerateDiscrete's exact order, so same seed → same contacts.
func TestDiscreteStreamBitIdentical(t *testing.T) {
	rm := heteroRates(6)
	want, err := GenerateDiscrete(rm, 500, 0.5, newRNG(31))
	if err != nil {
		t.Fatalf("GenerateDiscrete: %v", err)
	}
	src, err := NewDiscreteStream(rm, 500, 0.5, newRNG(31))
	if err != nil {
		t.Fatalf("NewDiscreteStream: %v", err)
	}
	got, err := trace.Collect(src)
	if err != nil {
		t.Fatalf("Collect: %v", err)
	}
	if len(got.Contacts) != len(want.Contacts) {
		t.Fatalf("stream %d contacts, materialized %d", len(got.Contacts), len(want.Contacts))
	}
	for i := range want.Contacts {
		if got.Contacts[i] != want.Contacts[i] {
			t.Fatalf("contact %d: stream %+v != materialized %+v", i, got.Contacts[i], want.Contacts[i])
		}
	}
}

// TestStreamZeroRate: the empty process, streamed.
func TestStreamZeroRate(t *testing.T) {
	src, err := NewStream(trace.NewRateMatrix(5), 100, newRNG(33))
	if err != nil {
		t.Fatalf("NewStream: %v", err)
	}
	if _, ok := src.Next(); ok {
		t.Error("zero-rate stream produced a contact")
	}
	dsrc, err := NewDiscreteStream(trace.NewRateMatrix(5), 100, 1, newRNG(33))
	if err != nil {
		t.Fatalf("NewDiscreteStream: %v", err)
	}
	if _, ok := dsrc.Next(); ok {
		t.Error("zero-rate discrete stream produced a contact")
	}
}

// BenchmarkSearchCDFSample / BenchmarkStreamNext compare the two pair
// samplers at N=1000 (≈ 500k pairs): binary search over the CDF vs one
// alias draw. The benchmark harness in bench/ prices the two end to end
// as its contact.replay_ns_per_contact and contact.alias_ns_per_contact
// layer rows.
func BenchmarkSearchCDFSample(b *testing.B) {
	const nodes = 1000
	rm := trace.UniformRates(nodes, 0.05)
	rates := rm.Rates()
	cum := make([]float64, len(rates))
	run, total := 0.0, rm.TotalRate()
	for i, r := range rates {
		run += r
		cum[i] = run / total
	}
	cum[len(cum)-1] = 1
	rng := newRNG(1)
	b.ReportAllocs()
	b.ResetTimer()
	var sink int
	for i := 0; i < b.N; i++ {
		sink += searchCDF(cum, rng.Float64())
	}
	_ = sink
}

func BenchmarkStreamNext(b *testing.B) {
	const nodes = 1000
	// Duration far beyond what b.N can drain, so Next never exhausts.
	src, err := NewHomogeneousStream(nodes, 0.05, 1e18, newRNG(1))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := src.Next(); !ok {
			b.Fatal("stream exhausted")
		}
	}
}

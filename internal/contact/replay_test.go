package contact

import (
	"math/rand/v2"
	"reflect"
	"testing"

	"impatience/internal/trace"
)

// drain collects a source's whole stream (test-scale only).
func drain(t *testing.T, src trace.Source) []trace.Contact {
	t.Helper()
	var out []trace.Contact
	for {
		c, ok := src.Next()
		if !ok {
			return out
		}
		out = append(out, c)
	}
}

// TestReplayStreamMatchesGenerate is the bit-identity anchor of the
// batch executor's contact path: for the same PCG seeds, the replay
// stream must yield exactly the contact sequence the materialized
// generator appends — same times, same pairs, same count. Checked on
// homogeneous and heterogeneous (sparse) matrices.
func TestReplayStreamMatchesGenerate(t *testing.T) {
	het := trace.NewRateMatrix(9)
	het.Set(0, 1, 0.2)
	het.Set(2, 3, 0.05)
	het.Set(4, 8, 0.8)
	for _, tc := range []struct {
		name string
		rm   *trace.RateMatrix
	}{
		{"homogeneous", trace.UniformRates(17, 0.05)},
		{"heterogeneous", het},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const duration = 700.0
			const s1, s2 = uint64(42), uint64(42 ^ 0xabcdef)
			tr, err := Generate(tc.rm, duration, rand.New(rand.NewPCG(s1, s2)))
			if err != nil {
				t.Fatalf("Generate: %v", err)
			}
			src, err := NewReplayStream(tc.rm, duration, s1, s2)
			if err != nil {
				t.Fatalf("NewReplayStream: %v", err)
			}
			if src.Nodes() != tc.rm.Nodes || src.Duration() != duration {
				t.Fatalf("dims %d/%g, want %d/%g", src.Nodes(), src.Duration(), tc.rm.Nodes, duration)
			}
			got := drain(t, src)
			if len(got) == 0 && tc.name == "homogeneous" {
				t.Fatal("empty replay stream")
			}
			if !reflect.DeepEqual(got, tr.Contacts) {
				t.Fatalf("replay stream diverges from Generate: %d streamed vs %d materialized", len(got), len(tr.Contacts))
			}
			// Drained stays drained.
			if _, ok := src.Next(); ok {
				t.Error("drained stream yielded another contact")
			}
		})
	}
}

// TestReplayStreamReopen: reopening must restart the identical sequence,
// from any drain depth, without disturbing the original.
func TestReplayStreamReopen(t *testing.T) {
	src, err := NewHomogeneousReplayStream(11, 0.05, 500, 7, 7^0xabcdef)
	if err != nil {
		t.Fatalf("NewHomogeneousReplayStream: %v", err)
	}
	first := drain(t, src)
	re, err := src.Reopen()
	if err != nil {
		t.Fatalf("Reopen: %v", err)
	}
	if !reflect.DeepEqual(drain(t, re), first) {
		t.Fatal("reopened stream diverges from the original")
	}
	// Reopen mid-drain: the copy restarts from zero.
	re2, err := src.Reopen()
	if err != nil {
		t.Fatalf("second Reopen: %v", err)
	}
	c, ok := re2.Next()
	if !ok || !reflect.DeepEqual(c, first[0]) {
		t.Fatalf("reopened stream starts at %+v, want %+v", c, first[0])
	}
}

// TestReplayStreamZeroAndInvalidRates: the empty process streams nothing
// (and reopens as nothing); invalid rates are rejected like every other
// generator.
func TestReplayStreamZeroAndInvalidRates(t *testing.T) {
	empty, err := NewReplayStream(trace.NewRateMatrix(5), 100, 1, 2)
	if err != nil {
		t.Fatalf("zero-rate NewReplayStream: %v", err)
	}
	if _, ok := empty.Next(); ok {
		t.Error("zero-rate stream yielded a contact")
	}
	re, err := empty.Reopen()
	if err != nil {
		t.Fatalf("Reopen: %v", err)
	}
	if _, ok := re.Next(); ok {
		t.Error("reopened zero-rate stream yielded a contact")
	}

	bad := trace.NewRateMatrix(4)
	bad.Set(0, 1, -1)
	if _, err := NewReplayStream(bad, 100, 1, 2); err == nil {
		t.Error("negative rate accepted")
	}
	if _, err := NewReplayStream(trace.UniformRates(4, 0.1), 0, 1, 2); err == nil {
		t.Error("zero duration accepted")
	}
}

// binarySearchCDF is the pair lookup ReplayStream made before its guide
// table: the smallest index i with cdf[i] ≥ u, by bisection.
func binarySearchCDF(cdf []float64, u float64) int {
	lo, hi := 0, len(cdf)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// TestReplayStreamMatchesBinarySearch anchors the guide-table lookup to
// the bisection it replaced: the same PCG, drawn gap then uniform and
// located by binary search over the stream's own CDF, reproduces the
// stream's (T, A, B) sequence contact for contact — on a uniform matrix
// (the index's array-free arm) and on a heterogeneous one whose zero-rate
// pairs put flat runs in the CDF.
func TestReplayStreamMatchesBinarySearch(t *testing.T) {
	for _, tc := range []struct {
		name string
		rm   *trace.RateMatrix
	}{
		{"uniform", trace.UniformRates(50, 0.05)},
		{"heterogeneous", heteroRates(23)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const duration = 400.0
			const s1, s2 = uint64(9), uint64(9 ^ 0xabcdef)
			src, err := NewReplayStream(tc.rm, duration, s1, s2)
			if err != nil {
				t.Fatalf("NewReplayStream: %v", err)
			}
			got := drain(t, src)
			rng := rand.New(rand.NewPCG(s1, s2))
			total := tc.rm.TotalRate()
			tt := 0.0
			for i := 0; ; i++ {
				tt += rng.ExpFloat64() / total
				if tt > duration {
					if i != len(got) {
						t.Fatalf("stream drew %d contacts, binary search %d", len(got), i)
					}
					break
				}
				idx := binarySearchCDF(src.cum, rng.Float64())
				a, b := trace.PairFromIndex(tc.rm.Nodes, idx)
				want := trace.Contact{T: tt, A: a, B: b}
				if i >= len(got) || got[i] != want {
					t.Fatalf("contact %d: stream %+v, binary search %+v", i, got[min(i, len(got)-1)], want)
				}
			}
			if len(got) < 1000 {
				t.Fatalf("only %d contacts; the anchor needs a long sequence", len(got))
			}
		})
	}
}

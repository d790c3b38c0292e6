package demand

import (
	"math"
	"strings"
	"testing"
)

// FuzzParseSchedule holds the churn-schedule parser to the same contract
// as faults.ParseTimeline: arbitrary input yields a valid schedule or an
// error — no panics, no partial results — and every accepted schedule
// passes Validate against the base catalog.
func FuzzParseSchedule(f *testing.F) {
	f.Add("# flash crowd\n10 rotate 1\n20 rotate 1\n")
	f.Add("")
	f.Add("5 swap 0 3\n10 zipf 0.5\n15 uniform\n")
	f.Add("1e9 rotate -7\n")
	f.Add("nan rotate 1\n")
	f.Add("10 rotate\n")
	f.Add("10 swap 0 99\n")
	f.Add("-5 uniform\n")
	f.Add("10 zipf inf\n")
	f.Add("3 rotate 1\n2 rotate 1\n")
	f.Fuzz(func(t *testing.T, input string) {
		base := Pareto(4, 1, 2)
		s, err := ParseSchedule(strings.NewReader(input), base)
		if err != nil {
			return
		}
		if err := s.Validate(base.Items()); err != nil {
			t.Fatalf("accepted schedule fails Validate: %v\ninput: %q", err, input)
		}
	})
}

// FuzzSampleCDFEqualWeights holds the O(1) equal-weight draw to the
// binary search: for a CDF of n ≤ 2²⁰ equal weights w, sampleEqual must
// return sampleCDF's index at the fuzzed u, at u = 0, at the largest u
// below 1, and at and next to the exact CDF value c[k].
func FuzzSampleCDFEqualWeights(f *testing.F) {
	f.Add(uint32(1), 1.0, 0.5, uint32(0))
	f.Add(uint32(3), 1.0/3, 0.999999, uint32(1))
	f.Add(uint32(1000), 1e-3, 0.3, uint32(299))
	f.Add(uint32(1_000_000), 1e-6, 0.123456789, uint32(123456))
	f.Add(uint32(1<<20), 7.5, 0.75, uint32(1<<20-1))
	f.Fuzz(func(t *testing.T, n32 uint32, w, u float64, k32 uint32) {
		n := 1 + int(n32%(1<<20))
		if !(w > 0) || math.IsInf(w*float64(n), 0) {
			w = 1 / float64(n)
		}
		row := make([]float64, n)
		for i := range row {
			row[i] = w
		}
		c := cdf(row)
		k := int(k32) % n
		us := []float64{0, math.Nextafter(1, 0), c[k], math.Nextafter(c[k], 0)}
		if up := math.Nextafter(c[k], 2); up < 1 {
			us = append(us, up)
		}
		if u = math.Abs(u); u < math.Inf(1) {
			us = append(us, u-math.Floor(u))
		}
		for _, u := range us {
			if got, want := sampleEqual(c, u), sampleCDF(c, u); got != want {
				t.Fatalf("n=%d w=%g u=%v: equal-weight draw %d, binary search %d", n, w, u, got, want)
			}
		}
	})
}

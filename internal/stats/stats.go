// Package stats provides the aggregation used by the evaluation harness:
// multi-trial summaries with the paper's 5th/95th-percentile confidence
// bands, and time-binned series averaging across trials.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Summary condenses repeated measurements of one scalar quantity.
type Summary struct {
	N            int
	Mean, Stddev float64
	Min, Max     float64
	P5, P50, P95 float64
}

// Summarize computes a Summary; it returns a zero value for empty input.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	s := Summary{N: len(xs), Min: math.Inf(1), Max: math.Inf(-1)}
	for _, x := range xs {
		if x < s.Min {
			s.Min = x
		}
		if x > s.Max {
			s.Max = x
		}
	}
	s.Mean, s.Stddev = moments(xs)
	s.P5 = Percentile(xs, 0.05)
	s.P50 = Percentile(xs, 0.50)
	s.P95 = Percentile(xs, 0.95)
	return s
}

// moments returns the mean and the sample standard deviation (0 below
// two observations) of a non-empty sample, without allocating.
func moments(xs []float64) (mean, stddev float64) {
	var sum float64
	for _, x := range xs {
		sum += x
	}
	mean = sum / float64(len(xs))
	var ss float64
	for _, x := range xs {
		d := x - mean
		ss += d * d
	}
	if len(xs) > 1 {
		stddev = math.Sqrt(ss / float64(len(xs)-1))
	}
	return mean, stddev
}

// Percentile returns the p-quantile (0 ≤ p ≤ 1) with linear interpolation
// between order statistics, matching the paper's 5%/95% trial bands.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	if p <= 0 {
		return sorted[0]
	}
	if p >= 1 {
		return sorted[len(sorted)-1]
	}
	pos := p * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Percentiles returns the quantiles at each p in ps with the same linear
// interpolation as Percentile, sorting the sample once. Latency reports
// that need p50 and p99 from the same large sample use this instead of
// two Percentile calls (each of which copies and re-sorts).
func Percentiles(xs []float64, ps ...float64) []float64 {
	out := make([]float64, len(ps))
	if len(xs) == 0 {
		for i := range out {
			out[i] = math.NaN()
		}
		return out
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	for k, p := range ps {
		switch {
		case p <= 0:
			out[k] = sorted[0]
		case p >= 1:
			out[k] = sorted[len(sorted)-1]
		default:
			pos := p * float64(len(sorted)-1)
			lo := int(math.Floor(pos))
			hi := int(math.Ceil(pos))
			if lo == hi {
				out[k] = sorted[lo]
			} else {
				frac := pos - float64(lo)
				out[k] = sorted[lo]*(1-frac) + sorted[hi]*frac
			}
		}
	}
	return out
}

// String renders a Summary compactly.
func (s Summary) String() string {
	return fmt.Sprintf("n=%d mean=%.4g ± %.2g [p5=%.4g p95=%.4g]", s.N, s.Mean, s.Stddev, s.P5, s.P95)
}

// Series is a binned time series: Mean[i] is the average of trial values
// for bin i, with the trial percentile band around it.
type Series struct {
	T       []float64 // bin start times
	Mean    []float64
	P5, P95 []float64
}

// MergeTrials averages per-trial binned series (each trials[k] must have
// equal length). It returns an error on ragged input.
func MergeTrials(t []float64, trials [][]float64) (*Series, error) {
	for k, tr := range trials {
		if len(tr) != len(t) {
			return nil, fmt.Errorf("stats: trial %d has %d bins, want %d", k, len(tr), len(t))
		}
	}
	s := &Series{
		T:    append([]float64(nil), t...),
		Mean: make([]float64, len(t)),
		P5:   make([]float64, len(t)),
		P95:  make([]float64, len(t)),
	}
	col := make([]float64, len(trials))
	for i := range t {
		for k := range trials {
			col[k] = trials[k][i]
		}
		sum := Summarize(col)
		s.Mean[i] = sum.Mean
		s.P5[i] = sum.P5
		s.P95[i] = sum.P95
	}
	return s, nil
}

// NormalizedLoss is the paper's comparison metric for Figures 4–6:
// 100·(U − U_opt)/|U_opt|, in percent; ≤ 0 whenever the scheme does not
// beat OPT. Returns NaN for U_opt = 0.
func NormalizedLoss(u, uOpt float64) float64 {
	if uOpt == 0 {
		return math.NaN()
	}
	return 100 * (u - uOpt) / math.Abs(uOpt)
}

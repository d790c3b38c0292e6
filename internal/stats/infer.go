package stats

// Statistical inference for the conformance harness (internal/oracle):
// one-sample t-intervals on trial means, Welch two-sample intervals, and
// Kolmogorov-Smirnov goodness-of-fit against the exponential meeting
// model. Everything here is closed-form or classic rational
// approximation — no external dependencies — and accurate far beyond the
// needs of pass/fail gates at the α levels the oracle uses (≥ 1e-4).

import (
	"fmt"
	"math"
	"sort"
)

// NormalQuantile returns Φ⁻¹(p), the standard normal quantile, using
// Acklam's rational approximation (relative error < 1.15e-9 over (0,1)).
// It returns ±Inf at p = 0, 1 and NaN outside [0, 1].
func NormalQuantile(p float64) float64 {
	switch {
	case math.IsNaN(p) || p < 0 || p > 1:
		return math.NaN()
	case p == 0:
		return math.Inf(-1)
	case p == 1:
		return math.Inf(1)
	}
	// Coefficients of Acklam's approximation.
	a := [6]float64{-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
		1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00}
	b := [5]float64{-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
		6.680131188771972e+01, -1.328068155288572e+01}
	c := [6]float64{-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
		-2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00}
	d := [4]float64{7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
		3.754408661907416e+00}
	const plow, phigh = 0.02425, 1 - 0.02425
	var x float64
	switch {
	case p < plow:
		q := math.Sqrt(-2 * math.Log(p))
		x = (((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	case p > phigh:
		q := math.Sqrt(-2 * math.Log(1-p))
		x = -(((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	default:
		q := p - 0.5
		r := q * q
		x = (((((a[0]*r+a[1])*r+a[2])*r+a[3])*r+a[4])*r + a[5]) * q /
			(((((b[0]*r+b[1])*r+b[2])*r+b[3])*r+b[4])*r + 1)
	}
	return x
}

// TQuantile returns the p-quantile of Student's t distribution with df
// degrees of freedom, via the Cornish-Fisher expansion around the normal
// quantile (Abramowitz & Stegun 26.7.5). For the df ≥ 2 and the central
// p used by confidence intervals the error is well under 1e-3, which is
// negligible against the oracle's safety margins.
func TQuantile(p, df float64) float64 {
	if df <= 0 {
		return math.NaN()
	}
	if p <= 0 || p >= 1 {
		return NormalQuantile(p) // ±Inf / NaN, same shape as the normal
	}
	// Exact closed forms where the expansion is weakest.
	if df == 1 {
		return math.Tan(math.Pi * (p - 0.5))
	}
	if df == 2 {
		a := 4 * p * (1 - p)
		return (2*p - 1) * math.Sqrt(2/a)
	}
	z := NormalQuantile(p)
	if math.IsInf(z, 0) || math.IsNaN(z) {
		return z
	}
	z2 := z * z
	g1 := (z2 + 1) * z / 4
	g2 := ((5*z2+16)*z2 + 3) * z / 96
	g3 := (((3*z2+19)*z2+17)*z2 - 15) * z / 384
	g4 := ((((79*z2+776)*z2+1482)*z2-1920)*z2 - 945) * z / 92160
	return z + g1/df + g2/(df*df) + g3/(df*df*df) + g4/(df*df*df*df)
}

// Interval is a two-sided confidence interval around a point estimate.
type Interval struct {
	Center    float64 // point estimate (mean or mean difference)
	Halfwidth float64 // half the interval width; Lo = Center-Halfwidth
	Conf      float64 // confidence level, e.g. 0.99
	DF        float64 // t degrees of freedom used
}

// Lo and Hi are the interval bounds.
func (iv Interval) Lo() float64 { return iv.Center - iv.Halfwidth }
func (iv Interval) Hi() float64 { return iv.Center + iv.Halfwidth }

// Contains reports whether v lies inside the interval.
func (iv Interval) Contains(v float64) bool {
	return v >= iv.Lo() && v <= iv.Hi()
}

// String renders the interval compactly.
func (iv Interval) String() string {
	return fmt.Sprintf("%.6g ± %.3g (%.0f%%)", iv.Center, iv.Halfwidth, 100*iv.Conf)
}

// MeanCI computes the one-sample t confidence interval on the mean of xs
// at the given confidence level (e.g. 0.99). It needs at least two
// observations; with fewer it returns an infinite-halfwidth interval, so
// callers treating "inside the interval" as a pass never pass on starved
// data by accident — they fail the shrinkage gate instead.
func MeanCI(xs []float64, conf float64) Interval {
	n := len(xs)
	iv := Interval{Conf: conf, Halfwidth: math.Inf(1), DF: float64(n - 1)}
	if n == 0 {
		return iv
	}
	var sd float64
	iv.Center, sd = moments(xs)
	if n < 2 {
		return iv
	}
	t := TQuantile(0.5+conf/2, iv.DF)
	iv.Halfwidth = t * sd / math.Sqrt(float64(n))
	return iv
}

// WelchCI computes the Welch two-sample t confidence interval on
// mean(a) − mean(b) at the given confidence level, with the
// Welch–Satterthwaite degrees of freedom. Like MeanCI it returns an
// infinite halfwidth when either sample has fewer than two observations.
func WelchCI(a, b []float64, conf float64) Interval {
	sa, sb := Summarize(a), Summarize(b)
	iv := Interval{Center: sa.Mean - sb.Mean, Conf: conf, Halfwidth: math.Inf(1), DF: 1}
	if sa.N < 2 || sb.N < 2 {
		return iv
	}
	va := sa.Stddev * sa.Stddev / float64(sa.N)
	vb := sb.Stddev * sb.Stddev / float64(sb.N)
	se2 := va + vb
	if se2 == 0 {
		iv.Halfwidth = 0
		iv.DF = float64(sa.N + sb.N - 2)
		return iv
	}
	iv.DF = se2 * se2 / (va*va/float64(sa.N-1) + vb*vb/float64(sb.N-1))
	iv.Halfwidth = TQuantile(0.5+conf/2, iv.DF) * math.Sqrt(se2)
	return iv
}

// KSStatistic returns the one-sample Kolmogorov-Smirnov statistic
// D_n = sup_x |F_n(x) − F(x)| of the samples against the continuous CDF
// F. It returns NaN for empty input.
func KSStatistic(samples []float64, cdf func(float64) float64) float64 {
	n := len(samples)
	if n == 0 {
		return math.NaN()
	}
	sorted := append([]float64(nil), samples...)
	sort.Float64s(sorted)
	var d float64
	for i, x := range sorted {
		f := cdf(x)
		if hi := float64(i+1)/float64(n) - f; hi > d {
			d = hi
		}
		if lo := f - float64(i)/float64(n); lo > d {
			d = lo
		}
	}
	return d
}

// KSExponential is KSStatistic against the Exp(rate) CDF — the paper's
// memoryless meeting model, under which the fulfillment delay of an item
// held by x servers is Exp(µx).
func KSExponential(samples []float64, rate float64) float64 {
	return KSStatistic(samples, func(t float64) float64 {
		if t <= 0 {
			return 0
		}
		return -math.Expm1(-rate * t)
	})
}

// KSCritical returns the critical value for the one-sample KS statistic
// at significance level alpha and sample size n, using the asymptotic
// Kolmogorov quantile c(α) = sqrt(−ln(α/2)/2) with Stephens' finite-n
// correction: D_crit = c(α)/(√n + 0.12 + 0.11/√n). A fully specified
// (simple) null hypothesis is assumed — exactly the oracle's situation,
// where the exponential rate comes from the theory, not the sample.
func KSCritical(alpha float64, n int) float64 {
	if n <= 0 || alpha <= 0 || alpha >= 1 {
		return math.NaN()
	}
	c := math.Sqrt(-math.Log(alpha/2) / 2)
	sn := math.Sqrt(float64(n))
	return c / (sn + 0.12 + 0.11/sn)
}

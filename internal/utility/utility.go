// Package utility implements the delay-utility theory at the heart of
// "The Age of Impatience" (Reich & Chaintreau, CoNEXT 2009).
//
// A delay-utility function h(t) maps the fulfillment delay of a request to
// the gain it produces for the network; it is monotonically non-increasing
// (waiting longer never makes a user happier). The paper's analysis rests
// on three derived objects, provided here, with the inverse of the third,
// in closed form for the five families of Table 1 (step, exponential
// decay, inverse power, negative power and negative logarithm) and
// numerically for arbitrary functions:
//
//   - the differential delay-utility c, with c(t) = -h'(t) (a density plus
//     possibly atoms where h jumps, e.g. the step function's Dirac at τ);
//   - the expected gain E[h(Y)] of a request whose fulfillment delay Y is
//     exponential with a given rate — the building block of the social
//     welfare U(x) (Eqs. 2–5 and Lemma 1);
//   - the transform ϕ(x) = ∫ µ t e^{-µtx} c(t) dt of Property 1, whose
//     balance condition d_i·ϕ(x_i) = const characterizes the optimal cache
//     allocation, and the associated reaction function ψ of Property 2,
//     ψ(y) ∝ (S/y)·ϕ(S/y), which tunes Query Counting Replication;
//   - the inverse ϕ⁻¹ (PhiInv), which turns the balance condition into
//     the allocation x_i = ϕ⁻¹(λ/d_i) directly, so the serving solver's
//     warm re-solve needs no per-item root search.
package utility

import (
	"fmt"
	"math"

	"impatience/internal/numeric"
)

// EulerGamma is the Euler–Mascheroni constant, which appears in the
// expected gain of the negative-logarithm utility: E[-ln Y] = γ + ln λ for
// Y ~ Exp(λ).
const EulerGamma = 0.57721566490153286060651209008240243104215933593992

// Atom is a point mass of the differential delay-utility measure c. The
// step function h(t) = 1{t ≤ τ} has a single atom of mass 1 at t = τ (its
// derivative in the distributional sense is a negative Dirac there).
type Atom struct {
	T    float64 // location of the jump of h
	Mass float64 // size of the downward jump, h(T⁻) − h(T⁺) > 0
}

// Function is a delay-utility function together with the closed-form
// quantities the theory derives from it. Implementations must satisfy:
// H is non-increasing, Density(t) ≥ 0, and H, Density and Atoms are
// mutually consistent (h(t) = h(s) − ∫_s^t c for s < t).
type Function interface {
	// Name identifies the family and its parameters, e.g. "step(τ=10)".
	Name() string

	// H evaluates h(t) for t > 0.
	H(t float64) float64

	// H0 is h(0⁺); math.Inf(1) for utilities with unbounded reward at
	// zero delay (inverse power with α > 1, negative logarithm), which
	// the paper restricts to the dedicated-node case.
	H0() float64

	// ExpectedGain is E[h(Y)] for a fulfillment delay Y exponentially
	// distributed with the given rate ≥ 0. rate = 0 means the request is
	// never fulfilled and yields lim_{t→∞} h(t) (which may be -Inf for
	// cost-type utilities).
	ExpectedGain(rate float64) float64

	// Phi is the Property-1 transform ϕ(x) = ∫_0^∞ µ t e^{-µtx} c(t) dt
	// for pairwise contact rate µ and (real-valued) replica count x > 0.
	// Phi is positive and strictly decreasing in x.
	Phi(mu, x float64) float64

	// PhiInv is ϕ⁻¹: the replica count x > 0 with Phi(mu, x) = t, for
	// t > 0 in the range of ϕ. Outside that range the result is
	// whatever the closed form gives (possibly negative or infinite);
	// NaN reports a failed numeric inversion.
	PhiInv(mu, t float64) float64

	// Density is the absolutely continuous part of c(t) = -h'(t).
	Density(t float64) float64

	// Atoms lists the point masses of c (empty for differentiable h).
	Atoms() []Atom
}

// Psi is the reaction function of Property 2: the number of replicas QCR
// should create for a fulfilled request whose query counter reads y, given
// contact rate mu and |S| = servers. Up to the caller's choice of scale,
// ψ(y) = (servers/y)·ϕ(servers/y); this package fixes the proportionality
// constant to exactly that product, matching Table 1 with its leading
// constants kept.
func Psi(f Function, mu float64, servers float64, y float64) float64 {
	if y <= 0 || servers <= 0 {
		return 0
	}
	x := servers / y
	return x * f.Phi(mu, x)
}

// SupportsPureP2P reports whether f may be used in the pure peer-to-peer
// setting, which requires a finite h(0⁺) (Section 3.2).
func SupportsPureP2P(f Function) bool {
	return !math.IsInf(f.H0(), 1)
}

// ---------------------------------------------------------------------------
// Step function: h(t) = 1{t ≤ τ}.

// Step is the step delay-utility h(t) = 1 for t ≤ τ and 0 afterwards: all
// users abandon the content after waiting exactly τ (advertising-revenue
// model with a hard deadline).
type Step struct {
	Tau float64 // abandonment deadline, > 0
}

// Name implements Function.
func (s Step) Name() string { return fmt.Sprintf("step(τ=%g)", s.Tau) }

// H implements Function.
func (s Step) H(t float64) float64 {
	if t <= s.Tau {
		return 1
	}
	return 0
}

// H0 implements Function.
func (s Step) H0() float64 { return 1 }

// ExpectedGain implements Function: P(Y ≤ τ) = 1 − e^{−λτ}.
func (s Step) ExpectedGain(rate float64) float64 {
	if rate <= 0 {
		return 0
	}
	return -math.Expm1(-rate * s.Tau)
}

// Phi implements Function: ϕ(x) = µτ·e^{−µτx} (Table 1).
func (s Step) Phi(mu, x float64) float64 {
	return mu * s.Tau * math.Exp(-mu*s.Tau*x)
}

// PhiInv implements Function: x = (ln(µτ) − ln t)/(µτ). The logarithms
// are taken separately because µτ/t overflows for tiny t.
func (s Step) PhiInv(mu, t float64) float64 {
	k := mu * s.Tau
	return (math.Log(k) - math.Log(t)) / k
}

// Density implements Function: the continuous part of c is zero.
func (s Step) Density(t float64) float64 { return 0 }

// Atoms implements Function: a unit Dirac at τ.
func (s Step) Atoms() []Atom { return []Atom{{T: s.Tau, Mass: 1}} }

// ---------------------------------------------------------------------------
// Exponential decay: h(t) = e^{-νt}.

// Exponential is the exponential-decay delay-utility h(t) = e^{−νt}: at
// any time a constant fraction of still-waiting users loses interest
// (advertising-revenue model with a mixed population).
type Exponential struct {
	Nu float64 // decay rate, > 0
}

// Name implements Function.
func (e Exponential) Name() string { return fmt.Sprintf("exp(ν=%g)", e.Nu) }

// H implements Function.
func (e Exponential) H(t float64) float64 { return math.Exp(-e.Nu * t) }

// H0 implements Function.
func (e Exponential) H0() float64 { return 1 }

// ExpectedGain implements Function: E[e^{−νY}] = λ/(λ+ν), the Laplace
// transform of Exp(λ) at ν. Table 1 writes it as 1 − 1/(1 + (µ/ν)x).
func (e Exponential) ExpectedGain(rate float64) float64 {
	if rate <= 0 {
		return 0
	}
	return rate / (rate + e.Nu)
}

// Phi implements Function: ϕ(x) = µν/(µx+ν)², i.e. Table 1's
// (µ/ν)(1+(µ/ν)x)^{−2}.
func (e Exponential) Phi(mu, x float64) float64 {
	d := mu*x + e.Nu
	return mu * e.Nu / (d * d)
}

// PhiInv implements Function: x = (√(µν/t) − ν)/µ.
func (e Exponential) PhiInv(mu, t float64) float64 {
	return (math.Sqrt(mu*e.Nu/t) - e.Nu) / mu
}

// Density implements Function: c(t) = ν e^{−νt}.
func (e Exponential) Density(t float64) float64 { return e.Nu * math.Exp(-e.Nu*t) }

// Atoms implements Function.
func (e Exponential) Atoms() []Atom { return nil }

// ---------------------------------------------------------------------------
// Power family: h(t) = t^{1-α}/(α-1), α < 2, α ≠ 1.

// Power is the power-law delay-utility h(t) = t^{1−α}/(α−1). For
// 1 < α < 2 it is the paper's "inverse power" (time-critical information:
// huge reward for prompt delivery, h(0⁺) = ∞, dedicated-node case only).
// For α < 1 it is the "negative power" (waiting cost growing without
// bound, h(0⁺) = 0). α = 1 is excluded; use NegLog, its limit.
type Power struct {
	Alpha float64 // exponent, α < 2 and α ≠ 1
}

// Name implements Function.
func (p Power) Name() string { return fmt.Sprintf("power(α=%g)", p.Alpha) }

// Validate reports whether the exponent is in the admissible range.
func (p Power) Validate() error {
	if p.Alpha >= 2 || p.Alpha == 1 {
		return fmt.Errorf("utility: power exponent α=%g outside (−∞,1)∪(1,2)", p.Alpha)
	}
	return nil
}

// H implements Function.
func (p Power) H(t float64) float64 {
	return math.Pow(t, 1-p.Alpha) / (p.Alpha - 1)
}

// H0 implements Function.
func (p Power) H0() float64 {
	if p.Alpha > 1 {
		return math.Inf(1)
	}
	return 0
}

// ExpectedGain implements Function: Γ(2−α)/(α−1)·λ^{α−1} (Table 1).
func (p Power) ExpectedGain(rate float64) float64 {
	if rate <= 0 {
		if p.Alpha > 1 {
			return 0 // h(t) → 0 as t → ∞
		}
		return math.Inf(-1) // unbounded waiting cost
	}
	return math.Gamma(2-p.Alpha) / (p.Alpha - 1) * math.Pow(rate, p.Alpha-1)
}

// Phi implements Function: ϕ(x) = µ^{α−1}·Γ(2−α)·x^{α−2} (Table 1).
func (p Power) Phi(mu, x float64) float64 {
	return math.Pow(mu, p.Alpha-1) * math.Gamma(2-p.Alpha) * math.Pow(x, p.Alpha-2)
}

// PhiInv implements Function: x = (t/(µ^{α−1}Γ(2−α)))^{1/(α−2)}.
func (p Power) PhiInv(mu, t float64) float64 {
	return math.Pow(t/(math.Pow(mu, p.Alpha-1)*math.Gamma(2-p.Alpha)), 1/(p.Alpha-2))
}

// Density implements Function: c(t) = t^{−α}.
func (p Power) Density(t float64) float64 { return math.Pow(t, -p.Alpha) }

// Atoms implements Function.
func (p Power) Atoms() []Atom { return nil }

// OptimalExponent is the exponent of the relaxed optimal allocation for
// the power family: x̃_i ∝ d_i^{1/(2−α)} (Figure 2). It is exported so the
// Figure-2 harness and the allocation tests share a single definition.
func (p Power) OptimalExponent() float64 { return 1 / (2 - p.Alpha) }

// ---------------------------------------------------------------------------
// Negative logarithm: h(t) = -ln t (the α → 1 limit of the power family).

// NegLog is the negative-logarithm delay-utility h(t) = −ln t: large
// reward for fast fulfillment and unbounded cost for slow fulfillment.
// h(0⁺) = ∞, so it is restricted to the dedicated-node case. Its optimal
// allocation is exactly proportional to demand and its reaction function
// is constant (path replication's fixed-point regime).
type NegLog struct{}

// Name implements Function.
func (NegLog) Name() string { return "neglog" }

// H implements Function.
func (NegLog) H(t float64) float64 { return -math.Log(t) }

// H0 implements Function.
func (NegLog) H0() float64 { return math.Inf(1) }

// ExpectedGain implements Function: E[−ln Y] = γ + ln λ for Y ~ Exp(λ).
func (NegLog) ExpectedGain(rate float64) float64 {
	if rate <= 0 {
		return math.Inf(-1)
	}
	return EulerGamma + math.Log(rate)
}

// Phi implements Function: ϕ(x) = 1/x, independent of µ (Table 1).
func (NegLog) Phi(mu, x float64) float64 { return 1 / x }

// PhiInv implements Function: x = 1/t.
func (NegLog) PhiInv(mu, t float64) float64 { return 1 / t }

// Density implements Function: c(t) = 1/t.
func (NegLog) Density(t float64) float64 { return 1 / t }

// Atoms implements Function.
func (NegLog) Atoms() []Atom { return nil }

// ---------------------------------------------------------------------------
// Numeric reference implementations (used by tests and by user-supplied h).

// NumericExpectedGain computes E[h(Y)], Y ~ Exp(rate), from the density
// and atoms of c via the integration-by-parts identity of Lemma 1:
//
//	E[h(Y)] = h(0⁺) − ∫_0^∞ e^{-rate·t} c(t) dt.
//
// It is the reference against which the closed-form ExpectedGain methods
// are validated, and the fallback for Generic functions.
func NumericExpectedGain(f Function, rate float64) (float64, error) {
	if rate <= 0 {
		return f.ExpectedGain(0), nil
	}
	loss, err := numeric.IntegrateSingular(func(t float64) float64 {
		return math.Exp(-rate*t) * f.Density(t)
	}, 1/rate, 1e-12)
	if err != nil && err != numeric.ErrMaxDepth {
		return 0, err
	}
	for _, a := range f.Atoms() {
		loss += a.Mass * math.Exp(-rate*a.T)
	}
	return f.H0() - loss, nil
}

// NumericPhi computes ϕ(x) = ∫ µ t e^{-µtx} c(t) dt by direct quadrature
// over the density plus the atom contributions. Reference for Phi.
func NumericPhi(f Function, mu, x float64) (float64, error) {
	v, err := numeric.IntegrateSingular(func(t float64) float64 {
		return mu * t * math.Exp(-mu*t*x) * f.Density(t)
	}, 1/(mu*x), 1e-12)
	if err != nil && err != numeric.ErrMaxDepth {
		return 0, err
	}
	for _, a := range f.Atoms() {
		v += a.Mass * mu * a.T * math.Exp(-mu*a.T*x)
	}
	return v, nil
}

// Generic adapts an arbitrary monotone non-increasing h with a known
// density c into a Function using numeric quadrature for the derived
// quantities. H0 must be finite for meaningful pure-P2P use; CDensity may
// be nil, in which case it is approximated by a symmetric finite
// difference of HFunc.
type Generic struct {
	Label    string
	HFunc    func(t float64) float64
	CDensity func(t float64) float64
	H0Value  float64
	AtomList []Atom
}

// Name implements Function.
func (g Generic) Name() string { return g.Label }

// H implements Function.
func (g Generic) H(t float64) float64 { return g.HFunc(t) }

// H0 implements Function.
func (g Generic) H0() float64 { return g.H0Value }

// Density implements Function.
func (g Generic) Density(t float64) float64 {
	if g.CDensity != nil {
		return g.CDensity(t)
	}
	eps := 1e-6 * math.Max(t, 1)
	lo := t - eps
	if lo <= 0 {
		lo = t / 2
	}
	return -(g.HFunc(t+eps) - g.HFunc(lo)) / (t + eps - lo)
}

// Atoms implements Function.
func (g Generic) Atoms() []Atom { return g.AtomList }

// ExpectedGain implements Function by quadrature.
func (g Generic) ExpectedGain(rate float64) float64 {
	v, err := NumericExpectedGain(g, rate)
	if err != nil {
		return math.NaN()
	}
	return v
}

// Phi implements Function by quadrature.
func (g Generic) Phi(mu, x float64) float64 {
	v, err := NumericPhi(g, mu, x)
	if err != nil {
		return math.NaN()
	}
	return v
}

// PhiInv implements Function by inverting the quadrature Phi numerically;
// NaN when the inversion fails.
func (g Generic) PhiInv(mu, t float64) float64 {
	v, err := numeric.InvertDecreasing(func(x float64) float64 { return g.Phi(mu, x) }, t, 1)
	if err != nil {
		return math.NaN()
	}
	return v
}

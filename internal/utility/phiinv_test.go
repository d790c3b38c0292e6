package utility

import (
	"math"
	"testing"
)

// unitFloat maps a fuzzed word onto [0, 1) with 53 bits of resolution.
func unitFloat(u uint64) float64 { return float64(u>>11) * 0x1p-53 }

// logUniform maps a fuzzed word log-uniformly onto [lo, hi).
func logUniform(u uint64, lo, hi float64) float64 {
	return math.Exp(math.Log(lo) + unitFloat(u)*(math.Log(hi)-math.Log(lo)))
}

// phiInvFamily decodes one Table 1 family from fuzz input: step or
// exponential with τ, ν ∈ [1e-3, 1e3), power with α ∈ (−6, 2) \ {1}, or
// the negative logarithm.
func phiInvFamily(family uint8, param uint64) (Function, bool) {
	switch family % 4 {
	case 0:
		return Step{Tau: logUniform(param, 1e-3, 1e3)}, true
	case 1:
		return Exponential{Nu: logUniform(param, 1e-3, 1e3)}, true
	case 2:
		alpha := 2 - 8*unitFloat(param)
		return Power{Alpha: alpha}, alpha != 1 && alpha < 2
	default:
		return NegLog{}, true
	}
}

// phiInvTol is the round-trip bound on |ϕ(ϕ⁻¹(t)) − t|/t: 64 ulps, scaled
// by 1 + |ln t|. The scale is needed because step's ϕ⁻¹ is a logarithm
// and its ϕ an exponential: the exponential turns ln t's absolute rounding
// into a relative error of ϕ that grows with |ln t| (over 500 ulps near
// the bottom of the normal range).
func phiInvTol(t float64) float64 {
	return 64 * 0x1p-52 * (1 + math.Abs(math.Log(t)))
}

// FuzzPhiInverse checks that PhiInv inverts Phi for the four Table 1
// families wherever ϕ(x) is a normal float, with µ ∈ [1e-3, 1e3) and
// x ∈ [1e-9, 1e9). It tests the residual in t, not x: where µx ≪ ν the
// exponential family's x is ill-conditioned, but ϕ at the returned x is
// not.
func FuzzPhiInverse(f *testing.F) {
	f.Add(uint8(0), uint64(0x8000000000000000), uint64(0x4000000000000000), uint64(0x9000000000000000))
	// µτ ≈ 1e6 and ϕ(x) ≈ 1e-305: µτ/t overflows, ln µτ − ln t does not.
	f.Add(uint8(0), uint64(0xffffffffffffffff), uint64(0xffffffffffffffff), uint64(0x53451677fc419000))
	f.Add(uint8(1), uint64(0x2000000000000000), uint64(0xe000000000000000), uint64(0x1000000000000000))
	f.Add(uint8(1), uint64(0xf000000000000000), uint64(0x1000000000000000), uint64(0x0400000000000000))
	f.Add(uint8(2), uint64(0x7000000000000000), uint64(0x5000000000000000), uint64(0xa000000000000000))
	f.Add(uint8(2), uint64(0x0100000000000000), uint64(0xf000000000000000), uint64(0x0800000000000000))
	f.Add(uint8(3), uint64(0), uint64(0x3000000000000000), uint64(0xff00000000000000))
	f.Fuzz(func(t *testing.T, family uint8, param, muBits, xBits uint64) {
		fn, ok := phiInvFamily(family, param)
		if !ok {
			return
		}
		mu := logUniform(muBits, 1e-3, 1e3)
		x := logUniform(xBits, 1e-9, 1e9)
		v := fn.Phi(mu, x)
		if !(v >= 0x1p-1022) || math.IsInf(v, 1) {
			return // not a normal float
		}
		xi := fn.PhiInv(mu, v)
		if rel := math.Abs(fn.Phi(mu, xi)-v) / v; !(rel <= phiInvTol(v)) {
			t.Fatalf("%s µ=%g x=%g: ϕ=%g, ϕ⁻¹=%g, ϕ(ϕ⁻¹)=%g (%.1f ulps·(1+|ln t|))",
				fn.Name(), mu, x, v, xi, fn.Phi(mu, xi), rel/(0x1p-52*(1+math.Abs(math.Log(v)))))
		}
	})
}

// TestGenericPhiInv checks Generic's numeric ϕ⁻¹ against its own
// quadrature ϕ to 1e-9, on the grid where TestPhiClosedFormVsNumeric
// checks that quadrature against the closed forms. It is a grid rather
// than part of FuzzPhiInverse because each inversion runs dozens of
// quadratures, and far from this grid a single quadrature can take
// seconds.
func TestGenericPhiInv(t *testing.T) {
	for _, fn := range allFamilies() {
		g := Generic{Label: "generic " + fn.Name(), HFunc: fn.H, CDensity: fn.Density, H0Value: fn.H0(), AtomList: fn.Atoms()}
		for _, mu := range []float64{0.05, 1} {
			for _, x := range []float64{0.5, 1, 3, 10, 40} {
				v := g.Phi(mu, x)
				if !(v >= 0x1p-1022) {
					continue // quadrature ϕ underflowed: nothing to invert
				}
				xi := g.PhiInv(mu, v)
				if rel := math.Abs(g.Phi(mu, xi)-v) / v; !(rel <= 1e-9) {
					t.Errorf("%s µ=%g x=%g: ϕ=%g, ϕ⁻¹=%g, ϕ(ϕ⁻¹)=%g (rel %g)", g.Name(), mu, x, v, xi, g.Phi(mu, xi), rel)
				}
			}
		}
	}
	if v := (Generic{Label: "flat", HFunc: func(float64) float64 { return 1 }, CDensity: func(float64) float64 { return 0 }}).PhiInv(1, 0.5); !math.IsNaN(v) {
		t.Errorf("ϕ ≡ 0 inverted to %g, want NaN", v)
	}
}

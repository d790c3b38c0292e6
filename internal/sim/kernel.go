// Monomorphic delay-utility kernels: the devirtualized fast path for the
// per-fulfillment h(age) and h(0⁺) evaluations inside the contact loop.
//
// After the structural optimizations (dense request layout, fused
// streaming, lockstep batching), profiles of the fused per-contact kernel
// show the remaining cost is dispatch: one utility.Function interface
// call per fulfillment (and per immediate local hit), plus the virtual
// policy hooks. buildRunner therefore resolves each item's delay-utility
// once into a flat utilKernel — the family tag plus its constants — and
// the hot path evaluates h through a tag switch on a struct it already
// has in cache, instead of an itab load and an indirect call per event.
//
// Bit-identity: each fast-path arm computes the *same float expression in
// the same operation order* as the corresponding utility method (the
// expressions are copied verbatim), so results are byte-identical and
// every golden digest family is preserved. Utilities outside the four
// closed-form families keep the interface call via the ukGeneric
// fallback arm.
package sim

import (
	"math"

	"impatience/internal/utility"
)

// utilKind tags the resolved delay-utility family of one item.
type utilKind uint8

const (
	// ukGeneric evaluates through the utility.Function interface: every
	// utility outside the four closed-form families.
	ukGeneric utilKind = iota
	ukStep             // utility.Step: a is τ
	ukExp              // utility.Exponential: a is ν
	ukPower            // utility.Power: a is α
	ukNegLog           // utility.NegLog
)

// utilKernel is one item's monomorphic delay-utility: family tag, the
// family's constant, the (constant) h(0⁺), and the resolved Function the
// generic arm falls back to.
type utilKernel struct {
	kind utilKind
	a    float64          // family constant (τ, ν or α)
	h0   float64          // h(0⁺); only read on non-generic arms
	fn   utility.Function // resolved function; fallback and provenance
}

// kernelFor resolves f into its fast path.
func kernelFor(f utility.Function) utilKernel {
	k := utilKernel{kind: ukGeneric, fn: f}
	switch u := f.(type) {
	case utility.Step:
		k.kind, k.a, k.h0 = ukStep, u.Tau, 1
	case utility.Exponential:
		k.kind, k.a, k.h0 = ukExp, u.Nu, 1
	case utility.Power:
		k.kind, k.a, k.h0 = ukPower, u.Alpha, u.H0()
	case utility.NegLog:
		k.kind, k.h0 = ukNegLog, math.Inf(1)
	}
	return k
}

// H evaluates h(t). Every arm is the verbatim float expression of the
// matching utility method — same operations, same order, bit-identical
// results; the default arm is the interface call the switch replaces.
func (k *utilKernel) H(t float64) float64 {
	switch k.kind {
	case ukStep:
		if t <= k.a {
			return 1
		}
		return 0
	case ukExp:
		return math.Exp(-k.a * t)
	case ukPower:
		return math.Pow(t, 1-k.a) / (k.a - 1)
	case ukNegLog:
		return -math.Log(t)
	}
	return k.fn.H(t)
}

// H0 evaluates h(0⁺), a per-item constant for the closed-form families —
// one float load instead of an interface call on the immediate-fulfillment
// path. The generic arm keeps the call so arbitrary Functions behave
// exactly as before.
func (k *utilKernel) H0() float64 {
	if k.kind == ukGeneric {
		return k.fn.H0()
	}
	return k.h0
}

package meanfield

import (
	"math"
	"testing"

	"impatience/internal/utility"
)

// The cell-by-cell block drift and welfare the row kernel replaced,
// kept as the reference the kernel must match bit for bit: every
// (k, i) cell recomputes M_k, reads the state at stride Items() and
// divides by M_k once per landing community.

// refMeetRate returns M_k, the total meeting rate of one community-k
// node.
func refMeetRate(b BlockSystem, k int) float64 {
	var m float64
	for l, n := range b.Sizes {
		peers := float64(n)
		if l == k {
			peers--
		}
		m += b.Block[k][l] * peers
	}
	return m
}

// refHoldRate returns λ_ki: the rate at which one community-k node meets
// holders of item i under state x.
func refHoldRate(b BlockSystem, x []float64, k, i int) float64 {
	var lam float64
	items := b.Items()
	for l := range b.Sizes {
		lam += b.Block[k][l] * math.Max(x[l*items+i], minReplicas)
	}
	return lam
}

// refDerivs evaluates the drift cell by cell.
func refDerivs(b BlockSystem, x, dst []float64) {
	c := len(b.Sizes)
	items := b.Items()
	nTot := float64(b.Nodes())
	scale := b.psiScale()
	writes := make([]float64, len(dst)) // creation flux landing in community l
	for k := 0; k < c; k++ {
		mk := refMeetRate(b, k)
		if mk <= 0 {
			continue
		}
		muEff := mk / nTot
		for i := 0; i < items; i++ {
			d := b.Demand[k][i]
			if d == 0 {
				continue
			}
			xhat := refHoldRate(b, x, k, i) / muEff
			burst := d * scale * utility.Psi(b.Utility, muEff, nTot, nTot/math.Max(xhat, minReplicas))
			if burst <= 0 {
				continue
			}
			for l := 0; l < c; l++ {
				peers := float64(b.Sizes[l])
				if l == k {
					peers--
				}
				w := b.Block[k][l] * peers / mk
				if w > 0 {
					writes[l*items+i] += burst * w
				}
			}
		}
	}
	for l := 0; l < c; l++ {
		capL := float64(b.Rho * b.Sizes[l])
		var total float64
		for i := 0; i < items; i++ {
			total += writes[l*items+i]
		}
		for i := 0; i < items; i++ {
			xi := math.Max(x[l*items+i], minReplicas)
			dst[l*items+i] = writes[l*items+i] - xi/capL*total
		}
	}
}

// refWelfareOf evaluates community k's welfare rate cell by cell.
func refWelfareOf(b BlockSystem, x []float64, k int) float64 {
	items := b.Items()
	nk := float64(b.Sizes[k])
	var u float64
	for i := 0; i < items; i++ {
		d := b.Demand[k][i]
		if d == 0 {
			continue
		}
		frac := math.Min(math.Max(x[k*items+i], 0)/nk, 1)
		g := b.Utility.ExpectedGain(refHoldRate(b, x, k, i))
		u += d * (frac*b.Utility.H0() + (1-frac)*g)
	}
	return u
}

// refWelfare evaluates Σ_k U_k(x).
func refWelfare(b BlockSystem, x []float64) float64 {
	var u float64
	for k := range b.Sizes {
		u += refWelfareOf(b, x, k)
	}
	return u
}

// sameBits reports bit equality, counting any two NaNs as equal.
func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
}

// byteSource hands out fuzz bytes, then zeros once they run out.
type byteSource []byte

func (s *byteSource) next() byte {
	if len(*s) == 0 {
		return 0
	}
	b := (*s)[0]
	*s = (*s)[1:]
	return b
}

// fuzzBlock decodes a block system and two states from fuzz input:
// 1–5 communities of 1–40 nodes, 1–8 items, a step, exponential or
// power utility, block rates spanning four decades with a zero for
// every byte ≡ 0 (mod 4) and one optional all-zero row (M_k = 0),
// demand with a zero for every byte ≡ 0 (mod 3), and states whose
// bytes ≡ 0 (mod 4) fall below the sticky-replica floor.
func fuzzBlock(data []byte) (b BlockSystem, x1, x2 []float64) {
	src := byteSource(data)
	c := 1 + int(src.next()%5)
	items := 1 + int(src.next()%8)
	switch src.next() % 3 {
	case 0:
		b.Utility = utility.Step{Tau: 0.5 + float64(src.next())/16}
	case 1:
		b.Utility = utility.Exponential{Nu: 0.01 + float64(src.next())/64}
	default:
		b.Utility = utility.Power{Alpha: -1 + float64(src.next())/160}
	}
	b.Rho = 1 + int(src.next()%4)
	b.PsiScale = float64(src.next()) / 32
	zeroRow := int(src.next()) - 256 + c // a row index only for the top c byte values
	b.Sizes = make([]int, c)
	for k := range b.Sizes {
		b.Sizes[k] = 1 + int(src.next()%40)
	}
	b.Block = make([][]float64, c)
	b.Demand = make([][]float64, c)
	for k := range b.Block {
		b.Block[k] = make([]float64, c)
		for l := range b.Block[k] {
			if v := src.next(); v%4 != 0 && k != zeroRow {
				b.Block[k][l] = 1e-4 * math.Pow(10, 4*float64(v)/255)
			}
		}
		b.Demand[k] = make([]float64, items)
		for i := range b.Demand[k] {
			if v := src.next(); v%3 != 0 {
				b.Demand[k][i] = float64(v) / 8
			}
		}
	}
	state := func() []float64 {
		x := make([]float64, c*items)
		for j := range x {
			v := src.next()
			if v%4 == 0 {
				x[j] = float64(v) / 256 * minReplicas
			} else {
				x[j] = float64(v) / 4
			}
		}
		return x
	}
	return b, state(), state()
}

// FuzzBlockKernelMatchesReference: the row kernel's drift and welfare
// are bit-equal to the cell-by-cell reference on random systems, also
// when one kernel evaluates several states in a row (stale scratch
// would show on the second).
func FuzzBlockKernelMatchesReference(f *testing.F) {
	// C = 1, one node: the community meets nobody (M_0 = 0).
	f.Add([]byte{0, 3, 0, 40, 1, 32, 0, 0, 200, 10, 20, 30, 40, 50, 60, 70, 80})
	// C = 1, with zero-demand cells and states below the floor.
	f.Add([]byte{0, 5, 1, 30, 2, 40, 0, 20, 201, 3, 7, 9, 12, 15, 0, 8, 4, 100, 13, 1, 2, 3})
	// C = 3 with an all-zero row (community 1).
	f.Add([]byte{2, 4, 2, 80, 0, 32, 254, 10, 12, 14, 5, 6, 7, 9, 10, 11, 13, 14, 15,
		17, 18, 19, 21, 22, 23, 25, 26, 27, 29, 30, 31, 33, 34, 35, 37, 38, 39, 41})
	// C = 5, 8 items, all draws nonzero.
	big := []byte{4, 7, 0, 99, 3, 48, 0, 25, 33, 17, 9, 38}
	for j := 0; j < 25+5*8+2*40; j++ {
		big = append(big, byte(1+(j*37)%254))
	}
	f.Add(big)
	f.Fuzz(func(t *testing.T, data []byte) {
		b, x1, x2 := fuzzBlock(data)
		if err := b.Validate(); err != nil {
			t.Fatalf("decoded an invalid system: %v", err)
		}
		kn := b.Kernel()
		got := make([]float64, len(x1))
		want := make([]float64, len(x1))
		for _, x := range [][]float64{x1, x2} {
			kn.Derivs(0, x, got)
			refDerivs(b, x, want)
			for j := range got {
				if !sameBits(got[j], want[j]) {
					t.Fatalf("drift[%d] = %v (%#x), reference %v (%#x)", j, got[j], math.Float64bits(got[j]), want[j], math.Float64bits(want[j]))
				}
			}
			if g, w := kn.Welfare(x), refWelfare(b, x); !sameBits(g, w) {
				t.Fatalf("welfare = %v (%#x), reference %v (%#x)", g, math.Float64bits(g), w, math.Float64bits(w))
			}
		}
	})
}

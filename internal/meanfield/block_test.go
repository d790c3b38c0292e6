package meanfield

import (
	"errors"
	"math"
	"testing"

	"impatience/internal/demand"
	"impatience/internal/utility"
)

// oneCommunity builds a single-block system equivalent to sys(f): 50
// nodes at pairwise rate 0.05.
func oneCommunity(f utility.Function) BlockSystem {
	pop := demand.Pareto(20, 1, 1)
	return BlockSystem{
		Utility: f,
		Sizes:   []int{50},
		Block:   [][]float64{{0.05}},
		Demand:  [][]float64{append([]float64(nil), pop.Rates...)},
		Rho:     5,
	}
}

// twoCommunities is an asymmetric intra/cross block model.
func twoCommunities(f utility.Function) BlockSystem {
	pop := demand.Pareto(16, 1, 1)
	dA := make([]float64, 16)
	dB := make([]float64, 16)
	for i, d := range pop.Rates {
		dA[i] = d * 40.0 / 64
		dB[i] = d * 24.0 / 64
	}
	return BlockSystem{
		Utility: f,
		Sizes:   []int{40, 24},
		Block:   [][]float64{{0.08, 0.01}, {0.01, 0.12}},
		Demand:  [][]float64{dA, dB},
		Rho:     3,
	}
}

// TestBlockMassConservation: each community's cache budget is invariant
// under the dynamics.
func TestBlockMassConservation(t *testing.T) {
	b := twoCommunities(utility.Step{Tau: 10})
	x := b.UniformStart()
	// Perturb within budget to leave the uniform fixed line.
	x[0] += 5
	x[1] -= 5
	dst := make([]float64, len(x))
	b.Kernel().Derivs(0, x, dst)
	items := b.Items()
	for k := range b.Sizes {
		var sum float64
		for i := 0; i < items; i++ {
			sum += dst[k*items+i]
		}
		if math.Abs(sum) > 1e-9 {
			t.Errorf("community %d: Σ dx/dt = %g, want 0", k, sum)
		}
	}
}

// TestBlockReducesToHomogeneous: with one community, the block fixed
// point must match System's Eq. 7 fixed point.
func TestBlockReducesToHomogeneous(t *testing.T) {
	f := utility.Step{Tau: 10}
	s := sys(f)
	want, ok, err := s.RunToSteadyState(s.UniformStart(), 200000, 2, 1e-8)
	if err != nil || !ok {
		t.Fatalf("homogeneous steady state: ok=%v err=%v", ok, err)
	}
	b := oneCommunity(f)
	got, err := b.Run(b.UniformStart(), 200000, 2)
	if err != nil {
		t.Fatalf("block run: %v", err)
	}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 0.05*math.Max(1, want[i]) {
			t.Errorf("item %d: block %g vs homogeneous %g", i, got[i], want[i])
		}
	}
}

// TestBlockCommunityCoupling: an isolated community with zero demand for
// an item keeps losing it, while cross-community contacts replicate it
// in the demanding community.
func TestBlockDynamicsMoveTowardDemand(t *testing.T) {
	b := twoCommunities(utility.Power{Alpha: 0})
	x0 := b.UniformStart()
	x, err := b.Run(x0, 50000, 1)
	if err != nil {
		t.Fatal(err)
	}
	items := b.Items()
	// Popular items (low index under Pareto) must end with more replicas
	// than the uniform start in both communities.
	for k := range b.Sizes {
		if x[k*items+0] <= x0[k*items+0] {
			t.Errorf("community %d: top item fell %g → %g under dynamics", k, x0[k*items+0], x[k*items+0])
		}
		if x[k*items+items-1] >= x0[k*items+items-1] {
			t.Errorf("community %d: tail item rose %g → %g", k, x0[k*items+items-1], x[k*items+items-1])
		}
	}
}

func TestBlockValidateTable(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*BlockSystem)
	}{
		{"nil-utility", func(b *BlockSystem) { b.Utility = nil }},
		{"no-communities", func(b *BlockSystem) { b.Sizes = nil }},
		{"zero-size", func(b *BlockSystem) { b.Sizes[0] = 0 }},
		{"zero-rho", func(b *BlockSystem) { b.Rho = 0 }},
		{"ragged-block", func(b *BlockSystem) { b.Block[1] = b.Block[1][:1] }},
		{"nan-block", func(b *BlockSystem) { b.Block[0][1] = math.NaN() }},
		{"negative-block", func(b *BlockSystem) { b.Block[1][0] = -1 }},
		{"inf-demand", func(b *BlockSystem) { b.Demand[0][2] = math.Inf(1) }},
		{"negative-demand", func(b *BlockSystem) { b.Demand[1][0] = -0.5 }},
		{"nan-psi", func(b *BlockSystem) { b.PsiScale = math.NaN() }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b := twoCommunities(utility.Step{Tau: 10})
			tc.mut(&b)
			err := b.Validate()
			if err == nil {
				t.Fatal("invalid block system accepted")
			}
			if !errors.Is(err, ErrSystem) {
				t.Errorf("error %v does not wrap ErrSystem", err)
			}
		})
	}
	b := twoCommunities(utility.Step{Tau: 10})
	if err := b.Validate(); err != nil {
		t.Fatalf("valid block system rejected: %v", err)
	}
	if _, err := b.Stepper(make([]float64, 3), 0, 0); !errors.Is(err, ErrSystem) {
		t.Errorf("short state accepted: %v", err)
	}
}

// TestBlockStepperAdvanceAllocs: once primed, advancing the block
// stepper allocates nothing — the drift kernel owns its scratch.
func TestBlockStepperAdvanceAllocs(t *testing.T) {
	b := twoCommunities(utility.Step{Tau: 10})
	st, err := b.Stepper(b.UniformStart(), 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	target := 0.0
	advance := func() {
		target += 5
		if err := st.AdvanceTo(target); err != nil {
			t.Fatal(err)
		}
	}
	advance()
	if avg := testing.AllocsPerRun(50, advance); avg != 0 {
		t.Errorf("AdvanceTo allocates %.2f objects per call, want 0", avg)
	}
	if st.Stats().Steps == 0 {
		t.Error("stepper took no steps")
	}
}

// BenchmarkBlockKernelDerivs times one drift evaluation at the hybrid
// benchmark's fluid shape: 64 communities × 32 items, power utility.
func BenchmarkBlockKernelDerivs(b *testing.B) {
	const c, items = 64, 32
	sys := BlockSystem{Utility: utility.Power{Alpha: 0}, Rho: 3}
	for k := 0; k < c; k++ {
		sys.Sizes = append(sys.Sizes, 1562)
		row := make([]float64, c)
		for l := range row {
			row[l] = 1e-5
		}
		row[k] = 1e-3
		sys.Block = append(sys.Block, row)
		d := make([]float64, items)
		for i := range d {
			d[i] = 10 / float64(i+1)
		}
		sys.Demand = append(sys.Demand, d)
	}
	x := sys.UniformStart()
	dst := make([]float64, len(x))
	kn := sys.Kernel()
	b.ReportAllocs()
	for b.Loop() {
		kn.Derivs(0, x, dst)
	}
}

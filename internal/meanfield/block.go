// The block (per-community) fluid limit: Eq. 7 lifted to the structured
// contact models of internal/rates. State is one replica count per
// (community, item); a requester in community k encounters holders of
// item i at rate λ_ki = Σ_l β_kl·x_il, and the Property-2 reaction is
// applied through the homogeneous-equivalent replica count x̂ = λ/µ_eff
// with µ_eff,k = M_k/N (M_k = total meeting rate of a k-node, N = total
// population): both the expected query counter N/x̂ and the fulfillment
// rate µ_eff·x̂ = λ then match the homogeneous model the reaction was
// tuned for. Replicas minted for a k-request land on the nodes k meets
// — community l in proportion β_kl·N_l/M_k — and random-replacement
// deletion keeps each community's cache budget ρN_l exactly conserved.
//
// With one community the dynamics reduce to System (Eq. 7) up to the
// (N−1)/N self-meeting correction.

package meanfield

import (
	"fmt"
	"math"

	"impatience/internal/numeric"
	"impatience/internal/utility"
)

// BlockSystem is the per-community fluid dynamics over a block contact
// model.
type BlockSystem struct {
	Utility utility.Function
	Sizes   []int       // community sizes N_k
	Block   [][]float64 // β_kl: pairwise contact rate between a k-node and an l-node
	Demand  [][]float64 // [community][item] aggregate request rate
	Rho     int         // cache slots per node
	// PsiScale multiplies the reaction, exactly as in System; it should
	// carry the simulator's tuned reaction scale so fluid and event
	// transients run on the same clock. 1 by default.
	PsiScale float64
}

// Communities returns the number of communities.
func (b BlockSystem) Communities() int { return len(b.Sizes) }

// Items returns the catalog size.
func (b BlockSystem) Items() int {
	if len(b.Demand) == 0 {
		return 0
	}
	return len(b.Demand[0])
}

// Nodes returns the total population.
func (b BlockSystem) Nodes() int {
	n := 0
	for _, s := range b.Sizes {
		n += s
	}
	return n
}

// Validate reports structural errors, rejecting non-finite or negative
// rates and demand in the style of rates.ErrModel.
func (b BlockSystem) Validate() error {
	c := len(b.Sizes)
	switch {
	case b.Utility == nil:
		return fmt.Errorf("%w: nil utility", ErrSystem)
	case c == 0:
		return fmt.Errorf("%w: no communities", ErrSystem)
	case b.Rho <= 0:
		return fmt.Errorf("%w: rho=%d", ErrSystem, b.Rho)
	case b.Items() == 0:
		return fmt.Errorf("%w: empty catalog", ErrSystem)
	case math.IsNaN(b.PsiScale) || math.IsInf(b.PsiScale, 0) || b.PsiScale < 0:
		return fmt.Errorf("%w: psi scale %g", ErrSystem, b.PsiScale)
	}
	for k, n := range b.Sizes {
		if n <= 0 {
			return fmt.Errorf("%w: community %d has %d nodes", ErrSystem, k, n)
		}
	}
	if len(b.Block) != c {
		return fmt.Errorf("%w: block matrix has %d rows, %d communities", ErrSystem, len(b.Block), c)
	}
	for k, row := range b.Block {
		if len(row) != c {
			return fmt.Errorf("%w: block row %d has %d entries, want %d", ErrSystem, k, len(row), c)
		}
		for l, v := range row {
			if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
				return fmt.Errorf("%w: block rate β[%d][%d]=%g", ErrSystem, k, l, v)
			}
		}
	}
	if len(b.Demand) != c {
		return fmt.Errorf("%w: demand has %d rows, %d communities", ErrSystem, len(b.Demand), c)
	}
	items := b.Items()
	for k, row := range b.Demand {
		if len(row) != items {
			return fmt.Errorf("%w: demand row %d has %d items, want %d", ErrSystem, k, len(row), items)
		}
		for i, v := range row {
			if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
				return fmt.Errorf("%w: demand d[%d][%d]=%g", ErrSystem, k, i, v)
			}
		}
	}
	return nil
}

func (b BlockSystem) psiScale() float64 {
	if b.PsiScale > 0 {
		return b.PsiScale
	}
	return 1
}

// BlockKernel evaluates a block system's drift and welfare. States are
// flat, x[k*Items()+i], and so is the kernel's scratch: one contiguous
// row of Items() entries per community. What depends only on the contact
// structure — M_k, µ_eff,k and the landing weights w_kl — is computed
// once; the demand rows are read live, so a caller may rewrite
// b.Demand in place between evaluations.
//
// Both matrix passes (λ_k· = Σ_l β_kl·holders_l· and the landing flux
// writes_l· = Σ_k w_kl·burst_k·) are row combinations: whole rows of
// Items() entries, several source rows per pass. Every floating-point
// sum runs in the order of the per-cell formulas — over l ascending for
// λ_ki, over k ascending for the landing flux, over i ascending for the
// totals — so the results are bit-identical to evaluating cell by cell.
// A kernel is not safe for concurrent use.
type BlockKernel struct {
	b     BlockSystem
	items int
	nTot  float64
	scale float64
	meet  []float64 // M_k: total meeting rate of one community-k node
	muEff []float64 // M_k/N
	capL  []float64 // ρ·N_l: community l's cache budget
	every []int     // 0, 1, …, C−1: every community is a λ source
	// landFrom[landOff[l]:landOff[l+1]] lists, ascending, the
	// communities k with w_kl = β_kl·peers_l/M_k > 0 (M_k > 0), and
	// landW the same span of weights.
	landOff  []int
	landFrom []int
	landW    []float64

	holders []float64 // max(x, minReplicas), row-major like x
	burst   []float64 // replica creation per requesting community, like x
	lam     []float64 // λ_k·: one community's hold-rate row
	writes  []float64 // creation flux landing in one community
}

// Kernel builds the evaluation kernel of b. The system should be valid
// (see Validate).
func (b BlockSystem) Kernel() *BlockKernel {
	c, items := len(b.Sizes), b.Items()
	kn := &BlockKernel{
		b:       b,
		items:   items,
		nTot:    float64(b.Nodes()),
		scale:   b.psiScale(),
		meet:    make([]float64, c),
		muEff:   make([]float64, c),
		capL:    make([]float64, c),
		every:   make([]int, c),
		landOff: make([]int, c+1),
		holders: make([]float64, c*items),
		burst:   make([]float64, c*items),
		lam:     make([]float64, items),
		writes:  make([]float64, items),
	}
	peers := func(k, l int) float64 {
		if l == k {
			return float64(b.Sizes[l] - 1)
		}
		return float64(b.Sizes[l])
	}
	for k := 0; k < c; k++ {
		var mk float64
		for l := 0; l < c; l++ {
			mk += b.Block[k][l] * peers(k, l)
		}
		kn.meet[k] = mk
		kn.muEff[k] = mk / kn.nTot
		kn.capL[k] = float64(b.Rho * b.Sizes[k])
		kn.every[k] = k
	}
	// Replicas minted for a k-request land where k's meetings land.
	kn.landFrom = make([]int, 0, c*c)
	kn.landW = make([]float64, 0, c*c)
	for l := 0; l < c; l++ {
		for k := 0; k < c; k++ {
			if kn.meet[k] <= 0 {
				continue
			}
			if w := b.Block[k][l] * peers(k, l) / kn.meet[k]; w > 0 {
				kn.landFrom = append(kn.landFrom, k)
				kn.landW = append(kn.landW, w)
			}
		}
		kn.landOff[l+1] = len(kn.landFrom)
	}
	return kn
}

// combineRows sets out = Σ_j coef[j]·src[idx[j]·n : (idx[j]+1)·n] with
// n = len(out), accumulating in j order from zero. Four source rows go
// per pass so each out[i] stays in a register; the sum per entry is the
// same sequence of additions as one row at a time.
func combineRows(out, src []float64, idx []int, coef []float64) {
	n := len(out)
	clear(out)
	j := 0
	for ; j+4 <= len(idx); j += 4 {
		c0, c1, c2, c3 := coef[j], coef[j+1], coef[j+2], coef[j+3]
		r0 := src[idx[j]*n:][:len(out)]
		r1 := src[idx[j+1]*n:][:len(out)]
		r2 := src[idx[j+2]*n:][:len(out)]
		r3 := src[idx[j+3]*n:][:len(out)]
		for i, s := range out {
			s += c0 * r0[i]
			s += c1 * r1[i]
			s += c2 * r2[i]
			s += c3 * r3[i]
			out[i] = s
		}
	}
	for ; j < len(idx); j++ {
		c, r := coef[j], src[idx[j]*n:][:len(out)]
		for i := range out {
			out[i] += c * r[i]
		}
	}
}

// clampHolders fills holders with max(x, minReplicas). The compare
// keeps math.Max's result for a positive floor, NaN included.
func (kn *BlockKernel) clampHolders(x []float64) {
	for i, v := range x[:len(kn.holders)] {
		if v < minReplicas {
			v = minReplicas
		}
		kn.holders[i] = v
	}
}

// holdRow fills lam with λ_k· = Σ_l β_kl·holders_l·.
func (kn *BlockKernel) holdRow(k int) []float64 {
	combineRows(kn.lam, kn.holders, kn.every, kn.b.Block[k])
	return kn.lam
}

// Derivs evaluates the drift into dst (numeric.Derivs).
func (kn *BlockKernel) Derivs(_ float64, x, dst []float64) {
	b, items, c := kn.b, kn.items, len(kn.meet)
	kn.clampHolders(x)
	for k := 0; k < c; k++ {
		if kn.meet[k] <= 0 {
			continue // k meets nobody: it lands no replicas
		}
		muEff := kn.muEff[k]
		lam := kn.holdRow(k)
		burst := kn.burst[k*items:][:len(lam)]
		for i, d := range b.Demand[k][:len(lam)] {
			var v float64
			if d != 0 {
				xhat := lam[i] / muEff
				if xhat < minReplicas {
					xhat = minReplicas
				}
				v = d * kn.scale * utility.Psi(b.Utility, muEff, kn.nTot, kn.nTot/xhat)
				// A zero burst adds +0 to the landing flux, which
				// leaves its (never −0) bits alone; NaN still propagates.
				if v <= 0 {
					v = 0
				}
			}
			burst[i] = v
		}
	}
	row := kn.writes
	for l := 0; l < c; l++ {
		lo, hi := kn.landOff[l], kn.landOff[l+1]
		combineRows(row, kn.burst, kn.landFrom[lo:hi], kn.landW[lo:hi])
		var total float64
		for _, v := range row {
			total += v
		}
		capL := kn.capL[l]
		out, held := dst[l*items:][:len(row)], kn.holders[l*items:][:len(row)]
		for i, v := range row {
			out[i] = v - held[i]/capL*total
		}
	}
}

// Welfare evaluates the aggregate welfare rate Σ_k U_k(x), with U_k the
// pure-P2P closed form under the block-model hold rate:
// Σ_i d_ki·[x_ki/N_k·h(0⁺) + (1−x_ki/N_k)·E h(Exp(λ_ki))].
func (kn *BlockKernel) Welfare(x []float64) float64 {
	b, items := kn.b, kn.items
	kn.clampHolders(x)
	h0 := b.Utility.H0()
	var u float64
	for k, n := range b.Sizes {
		lam := kn.holdRow(k)
		nk := float64(n)
		xk := x[k*items : (k+1)*items]
		var uk float64
		for i, d := range b.Demand[k] {
			if d == 0 {
				continue
			}
			frac := math.Min(math.Max(xk[i], 0)/nk, 1)
			uk += d * (frac*h0 + (1-frac)*b.Utility.ExpectedGain(lam[i]))
		}
		u += uk
	}
	return u
}

// UniformStart splits each community's cache budget evenly across the
// catalog.
func (b BlockSystem) UniformStart() []float64 {
	items := b.Items()
	x := make([]float64, len(b.Sizes)*items)
	for k, n := range b.Sizes {
		per := float64(b.Rho*n) / float64(items)
		for i := 0; i < items; i++ {
			x[k*items+i] = per
		}
	}
	return x
}

// Run integrates the block dynamics adaptively from x0 for horizon time
// units; step seeds the controller (0 picks automatically).
func (b BlockSystem) Run(x0 []float64, horizon, step float64) ([]float64, error) {
	stepper, err := b.Stepper(x0, 0, step)
	if err != nil {
		return nil, err
	}
	if err := stepper.AdvanceTo(horizon); err != nil {
		return nil, err
	}
	return append([]float64(nil), stepper.State()...), nil
}

// Stepper validates the system and returns a persistent adaptive
// integrator positioned at (t0, x0), for callers that interleave
// integration with discrete events (the hybrid engine).
func (b BlockSystem) Stepper(x0 []float64, t0, step float64) (*numeric.Stepper, error) {
	if err := b.Validate(); err != nil {
		return nil, err
	}
	return b.Kernel().Stepper(x0, t0, step)
}

// Stepper returns an adaptive integrator of the kernel's drift
// positioned at (t0, x0), after validating x0. The stepper evaluates
// through kn, so a caller holding both must not evaluate kn while the
// stepper advances.
func (kn *BlockKernel) Stepper(x0 []float64, t0, step float64) (*numeric.Stepper, error) {
	if len(x0) != len(kn.holders) {
		return nil, fmt.Errorf("%w: state has %d entries, want %d communities × %d items",
			ErrSystem, len(x0), len(kn.meet), kn.items)
	}
	for i, v := range x0 {
		if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
			return nil, fmt.Errorf("%w: x0[%d]=%g", ErrSystem, i, v)
		}
	}
	return numeric.NewStepper(kn.Derivs, x0, t0, solverOpts(step, true)), nil
}

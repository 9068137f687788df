package noise

import (
	"fmt"
	"math"

	"github.com/gossipkit/noisyrumor/internal/lp"
)

// MPResult is the verdict of an exact (ε,δ)-majority-preservation
// check (Definition 2).
type MPResult struct {
	// MP reports whether the matrix is (ε,δ)-m.p. w.r.t. the opinion.
	MP bool
	// WorstRival is the rival opinion i attaining the minimum of
	// (c·P)_m − (c·P)_i over δ-biased c.
	WorstRival int
	// WorstBias is that minimum value; Definition 2 requires it to
	// exceed ε·δ.
	WorstBias float64
	// WorstDist is a δ-biased opinion distribution attaining it.
	WorstDist []float64
}

// IsMajorityPreserving decides exactly, via the Section-4 linear
// program, whether the matrix is (ε,δ)-m.p. with respect to opinion m:
// for every δ-biased distribution c and every rival i,
// (c·P)_m − (c·P)_i > ε·δ. Requires δ ∈ (0, 1] and ε ≥ 0.
//
// For each rival i the check solves
//
//	maximize (c·P)_i − (c·P)_m
//	s.t.     Σ_j c_j = 1,  c_m − c_j ≥ δ (j ≠ m),  c_j ≥ 0,
//
// and the matrix is m.p. iff every optimum is < −ε·δ.
func (mx *Matrix) IsMajorityPreserving(m int, eps, delta float64) (MPResult, error) {
	k := mx.k
	if m < 0 || m >= k {
		return MPResult{}, fmt.Errorf("noise: opinion %d out of range [0,%d)", m, k)
	}
	if !(delta > 0 && delta <= 1) {
		return MPResult{}, fmt.Errorf("noise: δ must be in (0,1], got %v", delta)
	}
	if !(eps >= 0) {
		return MPResult{}, fmt.Errorf("noise: ε must be non-negative, got %v", eps)
	}
	res := MPResult{MP: true, WorstRival: -1, WorstBias: math.Inf(1)}
	for i := 0; i < k; i++ {
		if i == m {
			continue
		}
		sol, err := mx.solveRivalLP(m, i, delta)
		if err != nil {
			return MPResult{}, err
		}
		if sol.Status == lp.Infeasible {
			// No δ-biased distribution exists (cannot happen for
			// δ ≤ 1, but keep the branch for safety): vacuously m.p.
			continue
		}
		if sol.Status != lp.Optimal {
			return MPResult{}, fmt.Errorf("noise: m.p. LP for rival %d returned %v", i, sol.Status)
		}
		// sol.Value = max (cP)_i − (cP)_m, so the minimum bias kept by
		// the channel against rival i is −sol.Value.
		kept := -sol.Value
		if kept < res.WorstBias {
			res.WorstBias = kept
			res.WorstRival = i
			res.WorstDist = sol.X
		}
	}
	if res.WorstRival >= 0 && res.WorstBias <= eps*delta {
		res.MP = false
	}
	return res, nil
}

// solveRivalLP builds and solves the LP for a single rival opinion.
func (mx *Matrix) solveRivalLP(m, i int, delta float64) (lp.Solution, error) {
	k := mx.k
	obj := make([]float64, k)
	for j := 0; j < k; j++ {
		// Coefficient of c_j in (c·P)_i − (c·P)_m is p_ji − p_jm.
		obj[j] = mx.At(j, i) - mx.At(j, m)
	}
	cons := make([]lp.Constraint, 0, k)
	sum := make([]float64, k)
	for j := range sum {
		sum[j] = 1
	}
	cons = append(cons, lp.Constraint{Coeffs: sum, Sense: lp.EQ, RHS: 1})
	for j := 0; j < k; j++ {
		if j == m {
			continue
		}
		row := make([]float64, k)
		row[m] = 1
		row[j] = -1
		cons = append(cons, lp.Constraint{Coeffs: row, Sense: lp.GE, RHS: delta})
	}
	return lp.Solve(lp.Problem{Objective: obj, Constraints: cons})
}

// IsMajorityPreservingAll reports whether the matrix is (ε,δ)-m.p.
// with respect to every opinion, returning the first failing opinion
// (or −1 when all pass).
func (mx *Matrix) IsMajorityPreservingAll(eps, delta float64) (bool, int, error) {
	for m := 0; m < mx.k; m++ {
		res, err := mx.IsMajorityPreserving(m, eps, delta)
		if err != nil {
			return false, m, err
		}
		if !res.MP {
			return false, m, nil
		}
	}
	return true, -1, nil
}

// SufficientMP evaluates the closed-form sufficient condition of
// Eq. (18) for matrices of the Eq. (17) shape (constant-enough
// diagonal p, off-diagonals within [q_l, q_u]): with ε = (p−q_u)/2,
// the matrix is (ε,δ)-m.p. whenever (p−q_u)·δ/2 ≥ q_u − q_l.
// It returns that ε and whether the condition holds at the given δ.
func (mx *Matrix) SufficientMP(delta float64) (eps float64, ok bool) {
	p := mx.MinDiagonal()
	ql, qu := mx.OffDiagRange()
	eps = (p - qu) / 2
	if eps <= 0 {
		return eps, false
	}
	return eps, (p-qu)*delta/2 >= qu-ql
}

// MaxEpsilonMP returns the largest ε (within tol) for which the matrix
// is (ε,δ)-m.p. w.r.t. opinion m at the given δ, found by bisection on
// the exact LP verdict; it returns 0 when the matrix is not m.p. for
// any positive ε.
func (mx *Matrix) MaxEpsilonMP(m int, delta, tol float64) (float64, error) {
	res, err := mx.IsMajorityPreserving(m, 0, delta)
	if err != nil {
		return 0, err
	}
	if res.WorstBias <= 0 {
		return 0, nil
	}
	// Definition 2 requires WorstBias > ε·δ, so the supremum is
	// exactly WorstBias/δ; report it directly (tol kept for API
	// stability if a future matrix family needs iterative search).
	_ = tol
	return res.WorstBias / delta, nil
}

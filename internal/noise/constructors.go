package noise

import (
	"fmt"

	"github.com/gossipkit/noisyrumor/internal/rng"
)

// Identity returns the noiseless k×k channel.
func Identity(k int) (*Matrix, error) {
	if k < 1 {
		return nil, fmt.Errorf("noise: Identity with k=%d", k)
	}
	m := &Matrix{k: k, p: make([]float64, k*k)}
	for i := 0; i < k; i++ {
		m.p[i*k+i] = 1
	}
	return m, nil
}

// FHKBinary returns the 2×2 matrix of Eq. (1) of the paper — the noise
// model of Feinerman, Haeupler and Korman: a transmitted bit survives
// with probability 1/2+ε and flips with probability 1/2−ε.
func FHKBinary(eps float64) (*Matrix, error) {
	if !(eps > 0 && eps <= 0.5) {
		return nil, fmt.Errorf("noise: FHKBinary needs ε ∈ (0, 1/2], got %v", eps)
	}
	return New([][]float64{
		{0.5 + eps, 0.5 - eps},
		{0.5 - eps, 0.5 + eps},
	})
}

// Uniform returns the paper's canonical k-valued generalization of
// Eq. (1) (Section 4): diagonal 1/k+ε, off-diagonal 1/k−ε/(k−1).
// It is (ε,δ)-m.p. for every δ > 0 and every opinion. Requires
// 0 < ε ≤ (k−1)/k.
func Uniform(k int, eps float64) (*Matrix, error) {
	if k < 2 {
		return nil, fmt.Errorf("noise: Uniform with k=%d < 2", k)
	}
	maxEps := float64(k-1) / float64(k)
	if !(eps > 0 && eps <= maxEps) {
		return nil, fmt.Errorf("noise: Uniform(k=%d) needs ε ∈ (0, %v], got %v", k, maxEps, eps)
	}
	m := &Matrix{k: k, p: make([]float64, k*k)}
	diag := 1/float64(k) + eps
	off := 1/float64(k) - eps/float64(k-1)
	for i := 0; i < k; i++ {
		for j := 0; j < k; j++ {
			if i == j {
				m.p[i*k+j] = diag
			} else {
				m.p[i*k+j] = off
			}
		}
	}
	return m, nil
}

// DominantCycle returns the diagonally-dominant counterexample of
// Section 4: p_ii = 1/2+ε, p_{i,i+1 mod k} = 1/2−ε, zero elsewhere —
// noise leaks each opinion forward around a cycle. Despite being
// diagonally dominant, it is not majority-preserving: for ε, δ < 1/6
// it flips the majority of c = (1/2+δ, 1/2−δ, 0) for k = 3.
//
// Note on conventions: the paper displays this matrix transposed,
// because its Section-4 linear program multiplies P·c while Eq. (2)
// defines the channel update as c·P (rows = transmitted opinion).
// Under the row convention used throughout this repository, the
// majority-flipping matrix is the forward cycle below; its transpose
// is exactly the matrix printed in the paper.
// Requires k ≥ 3 and 0 < ε < 1/2.
func DominantCycle(k int, eps float64) (*Matrix, error) {
	if k < 3 {
		return nil, fmt.Errorf("noise: DominantCycle with k=%d < 3", k)
	}
	if !(eps > 0 && eps < 0.5) {
		return nil, fmt.Errorf("noise: DominantCycle needs ε ∈ (0, 1/2), got %v", eps)
	}
	m := &Matrix{k: k, p: make([]float64, k*k)}
	for i := 0; i < k; i++ {
		m.p[i*k+i] = 0.5 + eps
		m.p[i*k+(i+1)%k] = 0.5 - eps
	}
	return m, nil
}

// Reset returns a "reset" noise pattern, one of the alternatives the
// paper's introduction names: a corrupted opinion is replaced by
// opinion 0 ("reset to 1" in the paper's 1-indexed notation). Opinion
// 0 itself survives intact; every other opinion i survives with
// probability 1−ρ and resets with probability ρ.
func Reset(k int, rho float64) (*Matrix, error) {
	if k < 2 {
		return nil, fmt.Errorf("noise: Reset with k=%d < 2", k)
	}
	if !(rho >= 0 && rho <= 1) {
		return nil, fmt.Errorf("noise: Reset needs ρ ∈ [0,1], got %v", rho)
	}
	m := &Matrix{k: k, p: make([]float64, k*k)}
	m.p[0] = 1
	for i := 1; i < k; i++ {
		m.p[i*k+i] = 1 - rho
		m.p[i*k] = rho
	}
	return m, nil
}

// NearUniform draws a random member of the Eq. (17) family: diagonal
// exactly diag, off-diagonal entries (1−diag)/(k−1) ± spread drawn
// with r and balanced within each row so rows sum to 1. The caller can
// then compare the exact LP verdict against the Eq. (18) sufficient
// condition. Requires k ≥ 3 (row balance needs at least two
// off-diagonal entries), diag ∈ (0,1), and spread small enough that
// off-diagonals stay non-negative.
func NearUniform(k int, diag, spread float64, r *rng.Rand) (*Matrix, error) {
	if k < 3 {
		return nil, fmt.Errorf("noise: NearUniform with k=%d < 3", k)
	}
	if !(diag > 0 && diag < 1) {
		return nil, fmt.Errorf("noise: NearUniform needs diag ∈ (0,1), got %v", diag)
	}
	base := (1 - diag) / float64(k-1)
	if !(spread >= 0 && spread <= base) {
		return nil, fmt.Errorf("noise: NearUniform needs spread ∈ [0, %v], got %v", base, spread)
	}
	m := &Matrix{k: k, p: make([]float64, k*k)}
	for i := 0; i < k; i++ {
		m.p[i*k+i] = diag
		// Perturb off-diagonal entries in balanced ± pairs so each row
		// still sums to 1 exactly.
		cols := make([]int, 0, k-1)
		for j := 0; j < k; j++ {
			if j != i {
				cols = append(cols, j)
			}
		}
		for j := range cols {
			m.p[i*k+cols[j]] = base
		}
		for j := 0; j+1 < len(cols); j += 2 {
			d := (r.Float64()*2 - 1) * spread
			m.p[i*k+cols[j]] += d
			m.p[i*k+cols[j+1]] -= d
		}
	}
	return m, nil
}

// OffDiagRange returns the smallest and largest off-diagonal entries
// (the q_l and q_u of Eq. (17)).
func (m *Matrix) OffDiagRange() (lo, hi float64) {
	lo, hi = 1, 0
	for i := 0; i < m.k; i++ {
		for j := 0; j < m.k; j++ {
			if i == j {
				continue
			}
			v := m.At(i, j)
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
	}
	return lo, hi
}

// MinDiagonal returns the smallest diagonal entry (the p of Eq. (17)
// when the diagonal is constant).
func (m *Matrix) MinDiagonal() float64 {
	lo := 1.0
	for i := 0; i < m.k; i++ {
		if v := m.At(i, i); v < lo {
			lo = v
		}
	}
	return lo
}

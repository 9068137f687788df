package census

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/big"
	"testing"

	"github.com/gossipkit/noisyrumor/internal/analytic"
	"github.com/gossipkit/noisyrumor/internal/dist"
	"github.com/gossipkit/noisyrumor/internal/rng"
)

// TestMajorityLawMatchesEnumeration pins the truncated summation
// against analytic.MajProbs, the exhaustive enumeration over all
// C(ℓ+k−1, k−1) received-count profiles — including even ℓ, where the
// u.a.r. tie-break carries real mass.
func TestMajorityLawMatchesEnumeration(t *testing.T) {
	for _, tc := range []struct {
		q   []float64
		ell int
	}{
		{[]float64{0.5, 0.3, 0.2}, 5},
		{[]float64{0.5, 0.3, 0.2}, 9},
		{[]float64{0.25, 0.25, 0.25, 0.25}, 7},
		{[]float64{0.7, 0.3}, 11},
		{[]float64{0.4, 0.35, 0.25}, 16}, // even ℓ: top-two ties matter
		{[]float64{1, 0, 0}, 5},
		{[]float64{0.34, 0.33, 0.33}, 12},
		{[]float64{0.9, 0.04, 0.03, 0.02, 0.01}, 9},
	} {
		want := analytic.MajProbs(tc.q, tc.ell)
		got, dropped := MajorityLaw(tc.q, tc.ell, 1e-13)
		for j := range want {
			if math.Abs(got[j]-want[j]) > 1e-10+dropped {
				t.Errorf("q=%v ℓ=%d: r[%d]=%.12f want %.12f (dropped %.3g)",
					tc.q, tc.ell, j, got[j], want[j], dropped)
			}
		}
	}
}

// TestMajorityLawBinomialIdentity: for k=2 and odd ℓ there are no
// ties, so the majority law is a plain binomial survival — checked at
// an ℓ far beyond enumeration range.
func TestMajorityLawBinomialIdentity(t *testing.T) {
	q := []float64{0.55, 0.45}
	ell := 665
	r, dropped := MajorityLaw(q, ell, 1e-13)
	want := dist.BinomialSurvival(ell, ell/2, q[0])
	if math.Abs(r[0]-want) > 1e-9+dropped {
		t.Fatalf("r[0]=%.12f want %.12f (dropped %.3g)", r[0], want, dropped)
	}
	if math.Abs(r[0]+r[1]-1) > 1e-9+dropped {
		t.Fatalf("k=2 law does not sum to 1: %v", r)
	}
}

// bigBinaryLaw is the k = 2 majority law of opinion 0 at 256-bit
// precision: Pr(X > ℓ/2) + ½·Pr(X = ℓ/2) for X ~ Binomial(ℓ, p),
// summed from the pmf recurrence t_{i+1} = t_i·(ℓ−i)/(i+1)·p/(1−p).
// p is a float64, so every input is exact and the only error is the
// 256-bit rounding of ~3ℓ operations.
func bigBinaryLaw(ell int, p float64) float64 {
	if p == 1 {
		return 1
	}
	const prec = 256
	nf := func(x float64) *big.Float { return new(big.Float).SetPrec(prec).SetFloat64(x) }
	bp := nf(p)
	bq := new(big.Float).SetPrec(prec).Sub(nf(1), bp)
	t := nf(1) // (1−p)^ℓ
	for i := 0; i < ell; i++ {
		t.Mul(t, bq)
	}
	ratio := new(big.Float).SetPrec(prec).Quo(bp, bq)
	sum := nf(0)
	for i := 0; i <= ell; i++ {
		switch {
		case 2*i > ell:
			sum.Add(sum, t)
		case 2*i == ell:
			sum.Add(sum, new(big.Float).SetPrec(prec).Mul(t, nf(0.5)))
		}
		if i < ell {
			t.Mul(t, nf(float64(ell-i)))
			t.Quo(t, nf(float64(i+1)))
			t.Mul(t, ratio)
		}
	}
	v, _ := sum.Float64()
	return v
}

// TestBinaryLawVsBigFloat bounds the k = 2 closed form against a
// 256-bit binomial tail: |r_j − exact| ≤ 1e-14 for both opinions at
// odd and even ℓ, with skewed, near-½ and 10⁻⁶ pools, and dropped = 0
// at every tolerance.
func TestBinaryLawVsBigFloat(t *testing.T) {
	for _, ell := range []int{1, 2, 3, 16, 81, 665, 2001} {
		for _, q0 := range []float64{0.7, 0.3, 0.55, 0.999, 0.5, 0.5 + 1e-3, 0.5 - 1e-9, 0.5 + 0.5/math.Sqrt(float64(ell+1)), 1e-6, 1 - 1e-6} {
			q := []float64{q0, 1 - q0}
			for _, tol := range []float64{1e-13, 1e-3} {
				r, dropped := MajorityLaw(q, ell, tol)
				if dropped != 0 {
					t.Errorf("q=%v ℓ=%d tol=%g: dropped %v, want 0", q, ell, tol, dropped)
				}
				for j := range q {
					want := bigBinaryLaw(ell, q[j])
					if d := math.Abs(r[j] - want); d > 1e-14 {
						t.Errorf("q=%v ℓ=%d: r[%d] = %.17g, exact %.17g (|Δ| = %.3g)", q, ell, j, r[j], want, d)
					}
				}
			}
		}
	}
}

// TestMajorityLawTruncationConservative is the truncation-bound
// contract: whatever mass the summation fails to place on some winner
// must be covered by the reported dropped estimate — Σr + dropped ≥ 1
// up to float slop — across tolerances loose enough to make the
// windows bite visibly.
func TestMajorityLawTruncationConservative(t *testing.T) {
	for _, tol := range []float64{1e-13, 1e-9, 1e-6, 1e-3} {
		for _, tc := range []struct {
			q   []float64
			ell int
		}{
			{[]float64{0.24, 0.19, 0.19, 0.19, 0.19}, 81},
			{[]float64{0.24, 0.19, 0.19, 0.19, 0.19}, 665},
			{[]float64{0.97, 0.0075, 0.0075, 0.0075, 0.0075}, 665},
			{[]float64{0.5, 0.3, 0.2}, 33},
		} {
			r, dropped := MajorityLaw(tc.q, tc.ell, tol)
			sum := 0.0
			for j, v := range r {
				if v < 0 || v > 1+1e-12 {
					t.Fatalf("tol=%g q=%v ℓ=%d: r[%d]=%v out of range", tol, tc.q, tc.ell, j, v)
				}
				sum += v
			}
			if gap := 1 - sum; gap > dropped+1e-11 {
				t.Errorf("tol=%g q=%v ℓ=%d: unaccounted mass %.3g exceeds dropped estimate %.3g",
					tol, tc.q, tc.ell, gap, dropped)
			}
			// The estimate must also stay honest: loosening by orders
			// of magnitude may not explode past the requested budget
			// by more than the documented constants allow.
			if dropped > tol {
				t.Errorf("tol=%g q=%v ℓ=%d: dropped %.3g exceeds the tolerance target", tol, tc.q, tc.ell, dropped)
			}
		}
	}
}

// TestStage1LawMatchesTruncatedProfileSum performs the literal
// truncated-Poisson summation over received-count profiles that the
// closed form of Stage1Law collapses: adopt[j] = Σ_profiles
// ΠPoissonPMF(λ_i, x_i) · x_j/Σx, truncated at x_i ≤ M. The two must
// agree within the profile tail mass — which the union bound
// Σ_j Pr(Poisson(λ_j) > M) conservatively covers.
func TestStage1LawMatchesTruncatedProfileSum(t *testing.T) {
	lambda := []float64{0.8, 0.5, 0.3}
	const M = 25
	adopt, stay := Stage1Law(lambda)

	var sumAdopt [3]float64
	sumStay := 0.0
	var rec func(idx int, prob float64, counts [3]int)
	rec = func(idx int, prob float64, counts [3]int) {
		if idx == len(lambda) {
			total := counts[0] + counts[1] + counts[2]
			if total == 0 {
				sumStay += prob
				return
			}
			for j, c := range counts {
				sumAdopt[j] += prob * float64(c) / float64(total)
			}
			return
		}
		for x := 0; x <= M; x++ {
			counts[idx] = x
			rec(idx+1, prob*dist.PoissonPMF(lambda[idx], x), counts)
		}
	}
	rec(0, 1, [3]int{})

	tail := 0.0
	for _, l := range lambda {
		tail += 1 - dist.PoissonCDF(l, M)
	}
	for j := range lambda {
		if math.Abs(adopt[j]-sumAdopt[j]) > tail+1e-12 {
			t.Errorf("adopt[%d]: closed form %.12f vs truncated profile sum %.12f (tail bound %.3g)",
				j, adopt[j], sumAdopt[j], tail)
		}
	}
	if math.Abs(stay-sumStay) > tail+1e-12 {
		t.Errorf("stay: closed form %.12f vs truncated profile sum %.12f", stay, sumStay)
	}
	// Conservativeness of the tail estimate itself: the profile sum
	// plus the union-bound tail must cover all probability.
	covered := sumStay
	for _, v := range sumAdopt {
		covered += v
	}
	if 1-covered > tail+1e-12 {
		t.Errorf("profile-sum tail mass %.3g exceeds the union bound %.3g", 1-covered, tail)
	}
}

func TestStage1LawEdgeCases(t *testing.T) {
	adopt, stay := Stage1Law([]float64{0, 0})
	if stay != 1 || adopt[0] != 0 || adopt[1] != 0 {
		t.Fatalf("zero-rate law = (%v, %v), want all mass on stay", adopt, stay)
	}
	// Probabilities must form a distribution for a busy channel.
	adopt, stay = Stage1Law([]float64{3.5, 1.25, 0.25})
	total := stay
	for _, v := range adopt {
		total += v
	}
	if math.Abs(total-1) > 1e-12 {
		t.Fatalf("law sums to %v", total)
	}
}

// TestMajorityLawSampleSizeOne: maj of a single draw is the draw, so
// the ℓ = 1 law must equal the composition law q with zero
// truncation beyond the pruned sub-cut classes.
func TestMajorityLawSampleSizeOne(t *testing.T) {
	q := []float64{0.5, 0.3, 0.2}
	r, dropped := MajorityLaw(q, 1, 1e-12)
	for j := range q {
		if math.Abs(r[j]-q[j]) > 1e-12 {
			t.Fatalf("MajorityLaw(q, 1)[%d] = %v, want q[%d] = %v", j, r[j], j, q[j])
		}
	}
	if dropped > 1e-12 {
		t.Fatalf("ℓ=1 law dropped %g mass", dropped)
	}
}

// TestBinomPMFBitIdenticalToDist pins the law layer's shared pmf
// kernel to dist.BinomialPMF bit for bit over an (n, k, p) grid: n on
// both sides of the lnFact table edge (the fallback path), k at the
// support ends, next to them and at the mode, and p at the degenerate
// ends, near 0 and 1, and at 1e-300, where most terms underflow. Every
// law and dropped mass stays the exact float of the Lgamma form only
// while this holds.
func TestBinomPMFBitIdenticalToDist(t *testing.T) {
	ns := []int{0, 1, 2, 11, 81, 665, lnFactSize - 2, lnFactSize - 1, lnFactSize, lnFactSize + 3}
	ps := []float64{0, 1e-300, 1e-12, 1e-3, 0.3, 0.5, 0.55, 1 - 1e-12, math.Nextafter(1, 0), 1, 1 + 1e-10}
	for _, n := range ns {
		for _, p := range ps {
			lp, lq := math.Log(p), math.Log1p(-p)
			mode := int(float64(n+1) * p)
			if mode > n {
				mode = n
			}
			for _, k := range []int{-1, 0, 1, mode - 1, mode, mode + 1, n - 1, n, n + 1} {
				got, want := lnFact().binomPMF(n, k, p, lp, lq), dist.BinomialPMF(n, k, p)
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Errorf("binomPMF(%d, %d, %v) = %v, dist.BinomialPMF = %v — not bit-identical", n, k, p, got, want)
				}
			}
		}
	}
}

// lawDigestGrid is the fixed, seeded grid of MajorityLaw inputs that
// TestMajorityLawDigest hashes: every k ∈ {3, 4, 5, 8} against every
// ℓ ∈ {1, 2, 11, 125, 577, 665}, each pair once per tolerance of the
// ladder, with the q shape rotating across the four tolerances so
// every (k, ℓ) meets every shape: random weights, random weights with
// zero entries, one near-one entry (1 − 10⁻¹⁵ … 1 − 10⁻⁴) with the
// remainder spread at random, and the skewed plurality of
// BenchmarkMajorityLaw with random jitter.
func lawDigestGrid(yield func(q []float64, ell int, tol float64)) {
	tols := [...]float64{1e-13, 1e-9, 1e-5, 1e-3}
	nearOne := [...]float64{1e-15, 1e-12, 1e-9, 1e-4}
	r := rng.New(20161025)
	for _, k := range []int{3, 4, 5, 8} {
		for _, ell := range []int{1, 2, 11, 125, 577, 665} {
			for ti, tol := range tols {
				q := make([]float64, k)
				switch shape := (ti + k + ell) % 4; shape {
				case 0, 1:
					for j := range q {
						q[j] = r.Float64()
					}
					if shape == 1 {
						q[r.Intn(k)] = 0
						if k >= 5 {
							q[r.Intn(k)] = 0
						}
						q[r.Intn(k)] += 0.1 // never all zero
					}
				case 2:
					top := r.Intn(k)
					rest := nearOne[r.Intn(len(nearOne))]
					for j := range q {
						if j != top {
							q[j] = r.Float64()
						}
					}
					normalize(q)
					for j := range q {
						q[j] *= rest
					}
					q[top] = 1 - rest
					yield(q, ell, tol)
					continue
				case 3:
					for j := range q {
						q[j] = 1 + 0.05*r.Float64()
					}
					q[0] += 0.05 * float64(k)
				}
				normalize(q)
				yield(q, ell, tol)
			}
		}
	}
}

func normalize(q []float64) {
	sum := 0.0
	for _, p := range q {
		sum += p
	}
	for j := range q {
		q[j] /= sum
	}
}

// TestMajorityLawDigest pins every bit of MajorityLaw — r and the
// dropped mass — over lawDigestGrid by a SHA-256 of their Float64bits.
// The digest was computed before the rival DP was band-limited and
// proves that change (and any later speed-up of the law) bit-identical:
// every -law-quant 0 trajectory and every golden rests on these floats.
// A moved digest is a bug in the law, not a value to re-pin.
func TestMajorityLawDigest(t *testing.T) {
	const want = "590f5ba8256ba11e29d19e2cf93a86fe93701882a3f3d2b05cf7ec6174281883"
	h := sha256.New()
	var buf [8]byte
	put := func(v float64) {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		h.Write(buf[:])
	}
	n := 0
	lawDigestGrid(func(q []float64, ell int, tol float64) {
		r, dropped := MajorityLaw(q, ell, tol)
		for _, v := range r {
			put(v)
		}
		put(dropped)
		n++
	})
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Errorf("MajorityLaw digest over %d laws = %s, want %s: the law's floats moved", n, got, want)
	}
}

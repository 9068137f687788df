package dist

import (
	"math"
	"testing"
)

// FuzzRegIncBetaVsBinomialSum differentially checks RegIncBeta — the
// continued fraction and its saddle-point prefactor — against
// BinomialSurvival, the term-by-term pmf sum, through Lemma 8:
// Pr(X > j) = I_p(j+1, ℓ−j) for X ~ Binomial(ℓ, p). The fuzzer picks
// ℓ ≤ 2¹⁰, j < ℓ and p ∈ [0, 1) (the fractional part of a raw float;
// non-finite inputs are skipped). The oracle's terms each carry the
// Lgamma-form rounding of ln ℓ! (≤ 6·10³ at ℓ = 2¹⁰, ~10⁻¹² relative),
// so the two must agree within 1e-11. The seed corpus lives in
// testdata/fuzz/FuzzRegIncBetaVsBinomialSum, and plain `go test`
// replays it.
func FuzzRegIncBetaVsBinomialSum(f *testing.F) {
	f.Fuzz(func(t *testing.T, ellb, jb uint16, praw float64) {
		if math.IsNaN(praw) || math.IsInf(praw, 0) {
			return
		}
		ell := 1 + int(ellb)%(1<<10)
		j := int(jb) % ell
		p := math.Abs(math.Mod(praw, 1))
		got := RegIncBeta(float64(j+1), float64(ell-j), p)
		want := BinomialSurvival(ell, j, p)
		if d := math.Abs(got - want); !(d <= 1e-11) {
			t.Fatalf("ℓ=%d j=%d p=%v: I_p(j+1, ℓ−j) = %.17g, Σ pmf = %.17g (|Δ| = %.3g)", ell, j, p, got, want, d)
		}
	})
}

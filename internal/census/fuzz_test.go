package census

import (
	"math"
	"testing"

	"github.com/gossipkit/noisyrumor/internal/analytic"
)

// FuzzMajorityLawVsEnumeration differentially checks MajorityLaw — the
// k = 2 fast path, the point-mass path and the rival DP — against
// analytic.MajProbs, the exhaustive enumeration, at k ≤ 4 and ℓ ≤ 12.
// The fuzzer picks k, ℓ, a tolerance from a fixed ladder and k raw
// weights; the weights' magnitudes, normalized, are q (non-finite or
// all-zero weights are skipped). Truncation only ever drops
// non-negative mass, so every coordinate must sit within the reported
// dropped mass of the exact law (plus float slop), and the dropped
// mass must stay within the requested tolerance. An evaluator that
// first ran a second law, at a (k′, ℓ′, q′, tol′) drawn from the same
// inputs, must then return the fresh law bit for bit and leave its DP
// layers all-zero: reuse may never leak state. The seed corpus lives
// in testdata/fuzz/FuzzMajorityLawVsEnumeration, and plain `go test`
// replays it.
func FuzzMajorityLawVsEnumeration(f *testing.F) {
	tols := [...]float64{1e-13, 1e-9, 1e-6, 1e-3}
	f.Fuzz(func(t *testing.T, kb, ellb, tolb uint8, w0, w1, w2, w3 float64) {
		k := 1 + int(kb)%4
		ell := 1 + int(ellb)%12
		tol := tols[int(tolb)%len(tols)]
		w := [...]float64{w0, w1, w2, w3}
		sum := 0.0
		for j := 0; j < k; j++ {
			w[j] = math.Abs(w[j])
			sum += w[j]
		}
		if sum == 0 || math.IsNaN(sum) || math.IsInf(sum, 0) {
			return
		}
		q := make([]float64, k)
		for j := range q {
			q[j] = w[j] / sum
		}

		r, dropped := MajorityLaw(q, ell, tol)

		var ev lawEvaluator
		q2 := make([]float64, 2+int(kb/4)%5)
		for j := range q2 {
			q2[j] = q[j%k] + 1/float64(j+2)
		}
		normalize(q2)
		ev.eval(q2, 1+int(ellb/12)*3, tols[int(tolb/4)%len(tols)])
		r2, dropped2 := ev.eval(q, ell, tol)
		if math.Float64bits(dropped2) != math.Float64bits(dropped) {
			t.Fatalf("q=%v ℓ=%d tol=%g after q′=%v: reused dropped %v, fresh %v", q, ell, tol, q2, dropped2, dropped)
		}
		for j := range r {
			if math.Float64bits(r2[j]) != math.Float64bits(r[j]) {
				t.Fatalf("q=%v ℓ=%d tol=%g after q′=%v: reused r[%d]=%v, fresh %v", q, ell, tol, q2, j, r2[j], r[j])
			}
		}
		if layer, i, v := dpLayersDirty(&ev.dp); i >= 0 {
			t.Fatalf("q=%v ℓ=%d tol=%g after q′=%v: dp.%s[%d] = %v, want all-zero layers", q, ell, tol, q2, layer, i, v)
		}

		exact := analytic.MajProbs(q, ell)
		if !(0 <= dropped && dropped <= tol) {
			t.Fatalf("q=%v ℓ=%d tol=%g: dropped %v outside [0, tol]", q, ell, tol, dropped)
		}
		for j := range exact {
			if math.Abs(r[j]-exact[j]) > dropped+1e-12 {
				t.Fatalf("q=%v ℓ=%d tol=%g: r[%d]=%v, enumeration %v, beyond dropped %v",
					q, ell, tol, j, r[j], exact[j], dropped)
			}
		}
	})
}

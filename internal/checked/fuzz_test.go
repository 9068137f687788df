package checked

import (
	"math"
	"math/big"
	"testing"
)

// FuzzCheckedArith checks Add64, Mul64 and Sum64 against math/big, the
// exact oracle. Each must return the exact result with ok, or report
// !ok exactly when that result leaves int64 — for Sum64, when any
// partial sum of (a, b, c) does, as its contract states. The seed
// corpus in testdata/fuzz/FuzzCheckedArith sits at the edges (MinInt64,
// −1, 0, MaxInt64, ±2⁶², ±2³¹, 2³²), and plain `go test` replays it.
func FuzzCheckedArith(f *testing.F) {
	minI, maxI := big.NewInt(math.MinInt64), big.NewInt(math.MaxInt64)
	fits := func(x *big.Int) bool { return x.Cmp(minI) >= 0 && x.Cmp(maxI) <= 0 }
	check := func(t *testing.T, op string, got int64, ok bool, exact *big.Int, inRange bool) {
		t.Helper()
		if ok != inRange {
			t.Fatalf("%s = %d, ok=%v; exact %v (fits int64: %v)", op, got, ok, exact, fits(exact))
		}
		if ok && big.NewInt(got).Cmp(exact) != 0 {
			t.Fatalf("%s = %d, ok; exact %v", op, got, exact)
		}
	}
	f.Fuzz(func(t *testing.T, a, b, c int64) {
		A, B, C := big.NewInt(a), big.NewInt(b), big.NewInt(c)

		got, ok := Add64(a, b)
		sum := new(big.Int).Add(A, B)
		check(t, "Add64", got, ok, sum, fits(sum))

		got, ok = Mul64(a, b)
		prod := new(big.Int).Mul(A, B)
		check(t, "Mul64", got, ok, prod, fits(prod))

		got, ok = Sum64([]int64{a, b, c})
		total := new(big.Int).Add(sum, C)
		check(t, "Sum64", got, ok, total, fits(sum) && fits(total))
	})
}

package dist

import (
	"fmt"
	"math"
)

// ChiSquareResult reports a Pearson chi-square test.
type ChiSquareResult struct {
	// Statistic is the X² value over the pooled bins.
	Statistic float64
	// DF is the degrees of freedom after pooling.
	DF int
	// PValue is Pr(X²_DF > Statistic).
	PValue float64
	// Bins is the number of pooled bins the statistic was computed
	// over.
	Bins int
}

// ChiSquareGoF runs a goodness-of-fit test of observed integer bin
// counts against expected (theoretical) bin counts. Adjacent bins are
// pooled until every pooled bin's expected count is at least
// minExpected (the textbook validity rule; 5 is conventional). ddof
// subtracts additional degrees of freedom for parameters estimated
// from the data.
func ChiSquareGoF(observed []int, expected []float64, minExpected float64, ddof int) (ChiSquareResult, error) {
	if len(observed) != len(expected) {
		return ChiSquareResult{}, fmt.Errorf("dist: ChiSquareGoF with %d observed, %d expected bins",
			len(observed), len(expected))
	}
	if len(observed) == 0 {
		return ChiSquareResult{}, fmt.Errorf("dist: ChiSquareGoF with no bins")
	}
	for i, e := range expected {
		if !(e >= 0 && e < math.Inf(1)) {
			return ChiSquareResult{}, fmt.Errorf("dist: ChiSquareGoF with expected[%d]=%v", i, e)
		}
	}
	var obs []float64
	var exp []float64
	accO, accE := 0.0, 0.0
	for i := range observed {
		accO += float64(observed[i])
		accE += expected[i]
		if accE >= minExpected {
			obs = append(obs, accO)
			exp = append(exp, accE)
			accO, accE = 0, 0
		}
	}
	// Fold any under-weight tail into the last pooled bin.
	if accE > 0 || accO > 0 {
		if len(exp) == 0 {
			return ChiSquareResult{}, fmt.Errorf("dist: ChiSquareGoF has no bin with expected ≥ %v", minExpected)
		}
		obs[len(obs)-1] += accO
		exp[len(exp)-1] += accE
	}
	df := len(exp) - 1 - ddof
	if df < 1 {
		return ChiSquareResult{}, fmt.Errorf("dist: ChiSquareGoF left with df=%d after pooling", df)
	}
	x2 := 0.0
	for i := range exp {
		d := obs[i] - exp[i]
		x2 += d * d / exp[i]
	}
	return ChiSquareResult{
		Statistic: x2,
		DF:        df,
		PValue:    ChiSquareSurvival(x2, df),
		Bins:      len(exp),
	}, nil
}

// ChiSquareTwoSample runs a chi-square test of homogeneity between two
// histograms over the same bins (the totals may differ). Under the
// null both samples come from one distribution; the per-bin expected
// counts are the pooled proportions scaled to each sample's total.
// Adjacent bins are pooled until both samples' expected counts reach
// minExpected.
func ChiSquareTwoSample(a, b []int, minExpected float64) (ChiSquareResult, error) {
	if len(a) != len(b) {
		return ChiSquareResult{}, fmt.Errorf("dist: ChiSquareTwoSample with %d vs %d bins", len(a), len(b))
	}
	if len(a) == 0 {
		return ChiSquareResult{}, fmt.Errorf("dist: ChiSquareTwoSample with no bins")
	}
	n1, n2 := 0, 0
	for i := range a {
		if a[i] < 0 || b[i] < 0 {
			return ChiSquareResult{}, fmt.Errorf("dist: ChiSquareTwoSample with negative count in bin %d", i)
		}
		n1 += a[i]
		n2 += b[i]
	}
	if n1 == 0 || n2 == 0 {
		return ChiSquareResult{}, fmt.Errorf("dist: ChiSquareTwoSample with empty sample (totals %d, %d)", n1, n2)
	}
	f1 := float64(n1) / float64(n1+n2)
	f2 := float64(n2) / float64(n1+n2)
	minFrac := math.Min(f1, f2)
	var oa, ob []float64
	accA, accB := 0.0, 0.0
	for i := range a {
		accA += float64(a[i])
		accB += float64(b[i])
		// The smaller sample's expected count is the binding one.
		if (accA+accB)*minFrac >= minExpected {
			oa = append(oa, accA)
			ob = append(ob, accB)
			accA, accB = 0, 0
		}
	}
	if accA > 0 || accB > 0 {
		if len(oa) == 0 {
			return ChiSquareResult{}, fmt.Errorf("dist: ChiSquareTwoSample has no poolable bin at minExpected=%v", minExpected)
		}
		oa[len(oa)-1] += accA
		ob[len(ob)-1] += accB
	}
	df := len(oa) - 1
	if df < 1 {
		return ChiSquareResult{}, fmt.Errorf("dist: ChiSquareTwoSample left with df=%d after pooling", df)
	}
	x2 := 0.0
	for i := range oa {
		pooled := (oa[i] + ob[i]) / float64(n1+n2)
		e1 := pooled * float64(n1)
		e2 := pooled * float64(n2)
		d1 := oa[i] - e1
		d2 := ob[i] - e2
		x2 += d1*d1/e1 + d2*d2/e2
	}
	return ChiSquareResult{
		Statistic: x2,
		DF:        df,
		PValue:    ChiSquareSurvival(x2, df),
		Bins:      len(oa),
	}, nil
}

package dist

import (
	"math"
	"strings"
	"testing"
)

func TestBinomialCoeffExact(t *testing.T) {
	cases := []struct {
		n, k int
		want float64
	}{
		{0, 0, 1}, {5, 0, 1}, {5, 5, 1}, {10, 3, 120},
		{52, 5, 2598960}, {10, -1, 0}, {3, 4, 0},
	}
	for _, c := range cases {
		got := BinomialCoeff(c.n, c.k)
		if math.Abs(got-c.want) > 1e-6*math.Max(1, c.want) {
			t.Errorf("C(%d,%d) = %v, want %v", c.n, c.k, got, c.want)
		}
	}
}

func TestBinomialPMFSumsToOne(t *testing.T) {
	for _, p := range []float64{0, 0.37, 1} {
		sum := 0.0
		for k := 0; k <= 10; k++ {
			sum += BinomialPMF(10, k, p)
		}
		if math.Abs(sum-1) > 1e-12 {
			t.Errorf("p=%v: PMF sums to %v", p, sum)
		}
	}
}

func TestBinomialSurvivalMatchesBetaIdentity(t *testing.T) {
	// Lemma 8: Pr(X > j) = I_p(j+1, n−j).
	for _, c := range []struct {
		n, j int
		p    float64
	}{{7, 3, 0.6}, {15, 7, 0.2}, {40, 10, 0.5}} {
		s := BinomialSurvival(c.n, c.j, c.p)
		b := RegIncBeta(float64(c.j+1), float64(c.n-c.j), c.p)
		if math.Abs(s-b) > 1e-12 {
			t.Errorf("n=%d j=%d p=%v: survival %v vs beta %v", c.n, c.j, c.p, s, b)
		}
	}
	if BinomialSurvival(5, -1, 0.3) != 1 {
		t.Error("j<0 must give 1")
	}
	if BinomialSurvival(5, 5, 0.3) != 0 {
		t.Error("j≥n must give 0")
	}
}

func TestPoissonPMFAndCDFConsistent(t *testing.T) {
	for _, mu := range []float64{0.5, 4, 25} {
		sum := 0.0
		for k := 0; k <= 200; k++ {
			sum += PoissonPMF(mu, k)
			cdf := PoissonCDF(mu, k)
			if math.Abs(sum-cdf) > 1e-10 {
				t.Fatalf("mu=%v k=%d: Σpmf=%v cdf=%v", mu, k, sum, cdf)
			}
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Errorf("mu=%v: mass %v", mu, sum)
		}
	}
	if PoissonCDF(3, -1) != 0 || PoissonPMF(3, -1) != 0 {
		t.Error("negative k must have zero mass")
	}
}

func TestMultinomialLogPMFMatchesBinomial(t *testing.T) {
	for x0 := 0; x0 <= 9; x0++ {
		lp := MultinomialLogPMF([]int{x0, 9 - x0}, []float64{0.3, 0.7})
		want := BinomialPMF(9, x0, 0.3)
		if math.Abs(math.Exp(lp)-want) > 1e-12 {
			t.Errorf("x0=%d: %v vs %v", x0, math.Exp(lp), want)
		}
	}
	if !math.IsInf(MultinomialLogPMF([]int{1, 0}, []float64{0, 1}), -1) {
		t.Error("positive count on zero-probability category must be −Inf")
	}
}

func TestRegIncBetaIdentities(t *testing.T) {
	// I_x(a, 1) = x^a and I_{1/2}(a, a) = 1/2.
	for _, x := range []float64{0.1, 0.5, 0.9} {
		for _, a := range []float64{1, 2, 5} {
			if got := RegIncBeta(a, 1, x); math.Abs(got-math.Pow(x, a)) > 1e-12 {
				t.Errorf("I_%v(%v,1) = %v, want %v", x, a, got, math.Pow(x, a))
			}
		}
	}
	for _, a := range []float64{0.5, 1, 3, 10} {
		if got := RegIncBeta(a, a, 0.5); math.Abs(got-0.5) > 1e-12 {
			t.Errorf("I_0.5(%v,%v) = %v", a, a, got)
		}
	}
	if RegIncBeta(2, 3, 0) != 0 || RegIncBeta(2, 3, 1) != 1 {
		t.Error("endpoints wrong")
	}
	// A NaN parameter or point is rejected up front, not a NaN result
	// or a non-converging fraction: a <= 0 alone would let a NaN shape
	// through.
	nan := math.NaN()
	for _, c := range []struct {
		name, want string
		f          func()
	}{
		{"RegIncBeta(NaN, 2, 0.5)", "dist: RegIncBeta with", func() { RegIncBeta(nan, 2, 0.5) }},
		{"RegIncBeta(2, NaN, 0.5)", "dist: RegIncBeta with", func() { RegIncBeta(2, nan, 0.5) }},
		{"RegIncBeta(2, 3, NaN)", "dist: RegIncBeta with", func() { RegIncBeta(2, 3, nan) }},
		{"RegIncBeta(0, 3, 0.5)", "dist: RegIncBeta with", func() { RegIncBeta(0, 3, 0.5) }},
		{"RegIncBeta(2, -1, 0.5)", "dist: RegIncBeta with", func() { RegIncBeta(2, -1, 0.5) }},
		{"regGammaQ(NaN, 1)", "dist: regGammaQ with", func() { regGammaQ(nan, 1) }},
		{"regGammaQ(0, 1)", "dist: regGammaQ with", func() { regGammaQ(0, 1) }},
		{"regGammaQ(2, NaN)", "dist: regGammaQ with", func() { regGammaQ(2, nan) }},
		{"ChiSquareSurvival(NaN, 3)", "dist: regGammaQ with", func() { ChiSquareSurvival(nan, 3) }},
	} {
		if msg := panicMsg(c.f); !strings.HasPrefix(msg, c.want) {
			t.Errorf("%s: panic %q, want one starting %q", c.name, msg, c.want)
		}
	}
}

// panicMsg returns the string f panics with, or "" when it returns.
func panicMsg(f func()) (msg string) {
	defer func() { msg, _ = recover().(string) }()
	f()
	return ""
}

// TestBetaCFNonConvergencePanics: a continued fraction still moving
// after maxIter steps is a panic naming its arguments, never a silent
// unconverged value. At a = b = 10¹² the fraction needs ~4.5·10⁴
// steps.
func TestBetaCFNonConvergencePanics(t *testing.T) {
	msg := panicMsg(func() { RegIncBeta(1e12, 1e12, 0.5) })
	if !strings.Contains(msg, "a=1e+12, b=1e+12, x=0.5") {
		t.Fatalf("RegIncBeta(1e12, 1e12, 0.5): panic %q does not name (a, b, x)", msg)
	}
}

// TestRegIncBetaConvergesOnCensusDomain sweeps the arguments of the
// census engine's k = 2 Stage-2 law, I_q(h+1, ℓ−h) with h = ⌊ℓ/2⌋,
// over every ℓ < 2¹⁴ (the lnFact table bound) and a q grid of mirrored
// pairs (q, 1−q): a uniform grid, points 2⁻ᵉ from ½, and 10⁻¹²…10⁻⁶
// tails. Every point must converge (betaCF panics otherwise) into
// [0, 1], and at odd ℓ, where a = b, I_q + I_{1−q} = 1.
func TestRegIncBetaConvergesOnCensusDomain(t *testing.T) {
	var pairs [][2]float64
	for i := 1; i <= 64; i++ {
		pairs = append(pairs, [2]float64{float64(i) / 128, 1 - float64(i)/128})
	}
	for e := 2; e <= 52; e++ {
		d := math.Ldexp(1, -e)
		pairs = append(pairs, [2]float64{0.5 - d, 0.5 + d})
	}
	for _, p := range []float64{1e-12, 1e-9, 1e-6} {
		pairs = append(pairs, [2]float64{p, 1 - p})
	}
	stride := 1
	if testing.Short() {
		stride = 7
	}
	for ell := 1; ell < 1<<14; ell += stride {
		h := ell / 2
		a, b := float64(h+1), float64(ell-h)
		for _, pr := range pairs {
			lo, hi := RegIncBeta(a, b, pr[0]), RegIncBeta(a, b, pr[1])
			if !(0 <= lo && lo <= 1 && 0 <= hi && hi <= 1) {
				t.Fatalf("ℓ=%d: I_%v = %v, I_%v = %v", ell, pr[0], lo, pr[1], hi)
			}
			if ell%2 == 1 && math.Abs(lo+hi-1) > 1e-13 {
				t.Fatalf("ℓ=%d: I_%v + I_%v = %v, want 1", ell, pr[0], pr[1], lo+hi)
			}
		}
	}
}

func TestChiSquareSurvivalKnownQuantiles(t *testing.T) {
	// Textbook 5% critical values.
	cases := []struct {
		x  float64
		df int
	}{{3.841, 1}, {5.991, 2}, {18.307, 10}}
	for _, c := range cases {
		p := ChiSquareSurvival(c.x, c.df)
		if math.Abs(p-0.05) > 5e-4 {
			t.Errorf("df=%d x=%v: p = %v, want ≈ 0.05", c.df, c.x, p)
		}
	}
	if ChiSquareSurvival(0, 3) != 1 {
		t.Error("x=0 must give 1")
	}
}

func TestChiSquareGoFAcceptsExactFit(t *testing.T) {
	obs := []int{100, 200, 300, 400}
	exp := []float64{100, 200, 300, 400}
	res, err := ChiSquareGoF(obs, exp, 5, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Statistic != 0 || res.PValue < 0.999 {
		t.Fatalf("exact fit: X²=%v p=%v", res.Statistic, res.PValue)
	}
	if res.DF != 3 {
		t.Fatalf("df = %d", res.DF)
	}
}

func TestChiSquareGoFRejectsGrossMisfit(t *testing.T) {
	obs := []int{500, 100, 100, 300}
	exp := []float64{250, 250, 250, 250}
	res, err := ChiSquareGoF(obs, exp, 5, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.PValue > 1e-10 {
		t.Fatalf("gross misfit accepted: p=%v", res.PValue)
	}
}

func TestChiSquareGoFPoolsSmallBins(t *testing.T) {
	// Ten tiny-expectation bins must pool into few valid ones.
	obs := []int{3, 2, 1, 0, 2, 1, 3, 2, 40, 46}
	exp := []float64{2, 2, 2, 2, 2, 2, 2, 2, 42, 42}
	res, err := ChiSquareGoF(obs, exp, 5, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Bins >= 10 {
		t.Fatalf("no pooling happened: %d bins", res.Bins)
	}
	if res.PValue < 0.01 {
		t.Fatalf("near-exact fit rejected after pooling: p=%v", res.PValue)
	}
}

func TestChiSquareGoFErrors(t *testing.T) {
	if _, err := ChiSquareGoF([]int{1}, []float64{1, 2}, 5, 0); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, err := ChiSquareGoF(nil, nil, 5, 0); err == nil {
		t.Error("empty input accepted")
	}
	if _, err := ChiSquareGoF([]int{10, 10}, []float64{10, 10}, 5, 1); err == nil {
		t.Error("df=0 accepted")
	}
	if _, err := ChiSquareGoF([]int{1, 1}, []float64{1, 1}, 50, 0); err == nil {
		t.Error("unpoolable bins accepted")
	}
	// An infinite expected count would make the statistic NaN, which
	// the chi-square tail rejects by panicking: it is an input error.
	if _, err := ChiSquareGoF([]int{10, 10, 10}, []float64{10, math.Inf(1), 10}, 5, 0); err == nil {
		t.Error("infinite expected count accepted")
	}
}

func TestChiSquareTwoSampleIdenticalHistograms(t *testing.T) {
	h := []int{50, 100, 150, 80}
	res, err := ChiSquareTwoSample(h, h, 5)
	if err != nil {
		t.Fatal(err)
	}
	if res.Statistic != 0 || res.PValue < 0.999 {
		t.Fatalf("identical histograms: X²=%v p=%v", res.Statistic, res.PValue)
	}
}

func TestChiSquareTwoSampleUnequalTotals(t *testing.T) {
	// Same shape, 3× the mass: must be accepted as homogeneous.
	a := []int{50, 100, 150, 80}
	b := []int{150, 300, 450, 240}
	res, err := ChiSquareTwoSample(a, b, 5)
	if err != nil {
		t.Fatal(err)
	}
	if res.PValue < 0.999 {
		t.Fatalf("scaled histogram rejected: p=%v", res.PValue)
	}
	// Clearly different shapes must be rejected.
	c := []int{300, 100, 20, 20}
	res, err = ChiSquareTwoSample(a, c, 5)
	if err != nil {
		t.Fatal(err)
	}
	if res.PValue > 1e-10 {
		t.Fatalf("different shapes accepted: p=%v", res.PValue)
	}
}

func TestChiSquareTwoSampleErrors(t *testing.T) {
	if _, err := ChiSquareTwoSample([]int{1}, []int{1, 2}, 5); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, err := ChiSquareTwoSample([]int{0, 0}, []int{1, 1}, 5); err == nil {
		t.Error("empty sample accepted")
	}
	if _, err := ChiSquareTwoSample([]int{-1, 2}, []int{1, 1}, 5); err == nil {
		t.Error("negative count accepted")
	}
}

func TestWilsonInterval(t *testing.T) {
	// Classic worked example: 8/10 at 95%.
	lo, hi := WilsonInterval(8, 10, 1.96)
	if math.Abs(lo-0.490) > 0.005 || math.Abs(hi-0.943) > 0.005 {
		t.Errorf("8/10: [%v, %v], want ≈ [0.490, 0.943]", lo, hi)
	}
	lo, hi = WilsonInterval(0, 20, 1.96)
	if lo != 0 || hi < 0.05 || hi > 0.3 {
		t.Errorf("0/20: [%v, %v]", lo, hi)
	}
	lo, hi = WilsonInterval(20, 20, 1.96)
	if hi != 1 || lo > 0.95 || lo < 0.7 {
		t.Errorf("20/20: [%v, %v]", lo, hi)
	}
	lo, hi = WilsonInterval(0, 0, 1.96)
	if lo != 0 || hi != 1 {
		t.Errorf("0 trials: [%v, %v]", lo, hi)
	}
}

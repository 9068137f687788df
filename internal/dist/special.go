package dist

import (
	"fmt"
	"math"
)

// lchoose returns ln C(n, k).
func lchoose(n, k int) float64 {
	if k < 0 || k > n {
		return math.Inf(-1)
	}
	ln, _ := math.Lgamma(float64(n) + 1)
	lk, _ := math.Lgamma(float64(k) + 1)
	lnk, _ := math.Lgamma(float64(n-k) + 1)
	return ln - lk - lnk
}

// BinomialCoeff returns C(n, k) as a float64 (0 when k is outside
// [0, n]).
func BinomialCoeff(n, k int) float64 {
	if k < 0 || k > n {
		return 0
	}
	return math.Exp(lchoose(n, k))
}

// BinomialPMF returns Pr(X = k) for X ~ Binomial(n, p).
func BinomialPMF(n, k int, p float64) float64 {
	if k < 0 || k > n {
		return 0
	}
	if p <= 0 {
		if k == 0 {
			return 1
		}
		return 0
	}
	if p >= 1 {
		if k == n {
			return 1
		}
		return 0
	}
	return math.Exp(lchoose(n, k) + float64(k)*math.Log(p) + float64(n-k)*math.Log1p(-p))
}

// BinomialSurvival returns Pr(X > j) for X ~ Binomial(n, p) by summing
// the upper-tail PMF (exact for the small n this package serves).
func BinomialSurvival(n, j int, p float64) float64 {
	if j < 0 {
		return 1
	}
	if j >= n {
		return 0
	}
	s := 0.0
	for i := j + 1; i <= n; i++ {
		s += BinomialPMF(n, i, p)
	}
	if s > 1 {
		s = 1
	}
	return s
}

// PoissonPMF returns Pr(X = k) for X ~ Poisson(mu).
func PoissonPMF(mu float64, k int) float64 {
	if k < 0 {
		return 0
	}
	if mu == 0 {
		if k == 0 {
			return 1
		}
		return 0
	}
	lg, _ := math.Lgamma(float64(k) + 1)
	return math.Exp(float64(k)*math.Log(mu) - mu - lg)
}

// PoissonCDF returns Pr(X ≤ k) for X ~ Poisson(mu).
func PoissonCDF(mu float64, k int) float64 {
	if k < 0 {
		return 0
	}
	if mu == 0 {
		return 1
	}
	// Stable forward recurrence on the PMF.
	term := math.Exp(-mu)
	sum := term
	for i := 1; i <= k; i++ {
		term *= mu / float64(i)
		sum += term
	}
	if sum > 1 {
		sum = 1
	}
	return sum
}

// MultinomialLogPMF returns the log-probability of observing counts x
// under Multinomial(Σx, probs). Categories with x_i = 0 contribute
// nothing even when probs_i = 0; a positive count on a zero-probability
// category yields −Inf.
func MultinomialLogPMF(x []int, probs []float64) float64 {
	if len(x) != len(probs) {
		panic(fmt.Sprintf("dist: MultinomialLogPMF with %d counts, %d probs", len(x), len(probs)))
	}
	n := 0
	for i, xi := range x {
		if xi < 0 {
			panic(fmt.Sprintf("dist: MultinomialLogPMF with x[%d]=%d", i, xi))
		}
		n += xi
	}
	ln, _ := math.Lgamma(float64(n) + 1)
	out := ln
	for i, xi := range x {
		if xi == 0 {
			continue
		}
		if probs[i] <= 0 {
			return math.Inf(-1)
		}
		lx, _ := math.Lgamma(float64(xi) + 1)
		out += float64(xi)*math.Log(probs[i]) - lx
	}
	return out
}

// RegIncBeta returns the regularized incomplete beta function
// I_x(a, b), via the standard continued-fraction expansion. Its
// prefactor x^a·(1−x)^b/B(a, b) is evaluated in saddle-point form
// (betaFront), so the absolute error stays at a few 10⁻¹⁵ for a, b
// near 10³ and ≈3·10⁻¹⁴ at a = b ≈ 2¹³, x = ½; the Lgamma form loses
// ~3·10⁻¹³ already near 10³. It panics on a or b that is not
// positive, on a NaN x, and when the continued fraction does not
// converge.
func RegIncBeta(a, b, x float64) float64 {
	if !(a > 0 && b > 0) || math.IsNaN(x) {
		panic(fmt.Sprintf("dist: RegIncBeta with a=%v b=%v x=%v", a, b, x))
	}
	if x <= 0 {
		return 0
	}
	if x >= 1 {
		return 1
	}
	front := betaFront(a, b, x)
	if x < (a+1)/(a+b+2) {
		return front * betaCF(a, b, x) / a
	}
	return 1 - front*betaCF(b, a, 1-x)/b
}

// betaFront returns x^a·(1−x)^b/B(a, b) for a, b > 0 and 0 < x < 1 in
// Loader's saddle-point form: with N = a+b it is the binomial density
// of a at (N, x) scaled by ab/N, i.e.
//
//	√(ab/(2πN)) · exp(δ(N) − δ(a) − δ(b) − bd0(a, Nx) − bd0(b, N(1−x))),
//
// where δ is the Stirling remainder (stirlerr) and bd0 the deviance.
// Every term is small near the mode, so no digits cancel the way
// ln Γ(N) − ln Γ(a) − ln Γ(b) + a·ln x + b·ln(1−x) does.
func betaFront(a, b, x float64) float64 {
	n := a + b
	return math.Sqrt(a*b/(2*math.Pi*n)) *
		math.Exp(stirlerr(n)-stirlerr(a)-stirlerr(b)-bd0(a, n*x)-bd0(b, n*(1-x)))
}

// stirlerr returns the Stirling remainder δ(z) = ln Γ(z+1) −
// (z+½)·ln z + z − ½·ln(2π) for z > 0: the asymptotic series above 15,
// lifted there from smaller z by δ(z) = δ(z+1) + (z+½)·ln(1+1/z) − 1.
func stirlerr(z float64) float64 {
	lift := 0.0
	for ; z <= 15; z++ {
		lift += (z+0.5)*math.Log1p(1/z) - 1
	}
	return lift + stirlerrSeries(z)
}

// stirlerrSeries is the asymptotic Stirling series of δ(z) for z > 15
// to five terms; the first one dropped is below 3·10⁻¹⁶ there.
func stirlerrSeries(z float64) float64 {
	const (
		s0 = 1.0 / 12
		s1 = 1.0 / 360
		s2 = 1.0 / 1260
		s3 = 1.0 / 1680
		s4 = 1.0 / 1188
	)
	zz := z * z
	return (s0 - (s1-(s2-(s3-s4/zz)/zz)/zz)/zz) / z
}

// bd0 returns the deviance term x·ln(x/m) + m − x for x, m > 0, by
// its series in v = (x−m)/(x+m) when |v| < 1/10, where the direct
// form cancels.
func bd0(x, m float64) float64 {
	if math.Abs(x-m) < 0.1*(x+m) {
		v := (x - m) / (x + m)
		s := (x - m) * v
		ej := 2 * x * v
		v *= v
		for j := 3.0; ; j += 2 {
			ej *= v
			s1 := s + ej/j
			if s1 == s {
				return s
			}
			s = s1
		}
	}
	return x*math.Log(x/m) + m - x
}

// betaCF evaluates the continued fraction of the incomplete beta
// function by the modified Lentz method. It panics when the fraction
// has not converged after maxIter steps rather than return an
// unconverged value. On the convergent side x < (a+1)/(a+b+2) the
// step count grows like ∛max(a, b), worst near that switch point: at
// most 132 over the census domain a, b ≤ 2¹³ and ~550 at a = b = 10⁶.
// The cap of 10⁴ steps is first reached near a = b = 10¹⁰, far past
// any subsample size ℓ = a+b−1 a schedule produces. (A cap of 300
// would already panic near ℓ = 3·10⁵, which ε ≈ 0.01 schedules reach.
// That the law converges there does not make such a census phase
// right: its update probability, PoissonSurvival, still returns an
// unconverged gamma series from ℓ ≈ 10⁴ on.)
func betaCF(a, b, x float64) float64 {
	const (
		maxIter = 10000
		eps     = 1e-15
		fpmin   = 1e-300
	)
	qab := a + b
	qap := a + 1
	qam := a - 1
	c := 1.0
	d := 1 - qab*x/qap
	if math.Abs(d) < fpmin {
		d = fpmin
	}
	d = 1 / d
	h := d
	for m := 1; m <= maxIter; m++ {
		mf := float64(m)
		m2 := 2 * mf
		aa := mf * (b - mf) * x / ((qam + m2) * (a + m2))
		d = 1 + aa*d
		if math.Abs(d) < fpmin {
			d = fpmin
		}
		c = 1 + aa/c
		if math.Abs(c) < fpmin {
			c = fpmin
		}
		d = 1 / d
		h *= d * c
		aa = -(a + mf) * (qab + mf) * x / ((a + m2) * (qap + m2))
		d = 1 + aa*d
		if math.Abs(d) < fpmin {
			d = fpmin
		}
		c = 1 + aa/c
		if math.Abs(c) < fpmin {
			c = fpmin
		}
		d = 1 / d
		del := d * c
		h *= del
		if math.Abs(del-1) < eps {
			return h
		}
	}
	panic(fmt.Sprintf("dist: betaCF(a=%v, b=%v, x=%v) did not converge in %d steps", a, b, x, maxIter))
}

// regGammaQ returns the upper regularized incomplete gamma function
// Q(a, x) = Γ(a, x)/Γ(a): the chi-square tail Pr(X²_{2a} > 2x).
func regGammaQ(a, x float64) float64 {
	if !(a > 0) || math.IsNaN(x) {
		panic(fmt.Sprintf("dist: regGammaQ with a=%v x=%v", a, x))
	}
	if x < 0 {
		return 1
	}
	if x == 0 {
		return 1
	}
	if x < a+1 {
		return 1 - gammaPSeries(a, x)
	}
	return gammaQCF(a, x)
}

// gammaPSeries computes P(a, x) by its power series (x < a+1).
func gammaPSeries(a, x float64) float64 {
	const (
		maxIter = 500
		eps     = 1e-15
	)
	lg, _ := math.Lgamma(a)
	ap := a
	sum := 1 / a
	del := sum
	for n := 0; n < maxIter; n++ {
		ap++
		del *= x / ap
		sum += del
		if math.Abs(del) < math.Abs(sum)*eps {
			break
		}
	}
	return sum * math.Exp(-x+a*math.Log(x)-lg)
}

// gammaQCF computes Q(a, x) by the continued fraction (x ≥ a+1),
// modified Lentz method.
func gammaQCF(a, x float64) float64 {
	const (
		maxIter = 500
		eps     = 1e-15
		fpmin   = 1e-300
	)
	lg, _ := math.Lgamma(a)
	b := x + 1 - a
	c := 1 / fpmin
	d := 1 / b
	h := d
	for i := 1; i <= maxIter; i++ {
		an := -float64(i) * (float64(i) - a)
		b += 2
		d = an*d + b
		if math.Abs(d) < fpmin {
			d = fpmin
		}
		c = b + an/c
		if math.Abs(c) < fpmin {
			c = fpmin
		}
		d = 1 / d
		del := d * c
		h *= del
		if math.Abs(del-1) < eps {
			break
		}
	}
	return math.Exp(-x+a*math.Log(x)-lg) * h
}

// ChiSquareSurvival returns Pr(X > x) for X ~ chi-square with df
// degrees of freedom.
func ChiSquareSurvival(x float64, df int) float64 {
	if df < 1 {
		panic(fmt.Sprintf("dist: ChiSquareSurvival with df=%d", df))
	}
	if x <= 0 {
		return 1
	}
	return regGammaQ(float64(df)/2, x/2)
}

// WilsonInterval returns the Wilson score interval for a binomial
// proportion with `successes` out of `trials` at critical value z
// (1.96 for 95%).
func WilsonInterval(successes, trials int, z float64) (lo, hi float64) {
	if trials <= 0 {
		return 0, 1
	}
	n := float64(trials)
	phat := float64(successes) / n
	z2 := z * z
	denom := 1 + z2/n
	center := (phat + z2/(2*n)) / denom
	half := z * math.Sqrt(phat*(1-phat)/n+z2/(4*n*n)) / denom
	lo = center - half
	hi = center + half
	if lo < 0 {
		lo = 0
	}
	if hi > 1 {
		hi = 1
	}
	return lo, hi
}

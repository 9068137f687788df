package census

import (
	"fmt"
	"math"

	"github.com/gossipkit/noisyrumor/internal/dist"
)

// Stage1Law returns the exact phase-end law of one undecided node
// under process P (Definition 4), given the phase's noisy message
// multiset expressed as per-opinion Poisson rates lambda[j] = g_j/n:
// adopt[j] is the probability of ending the phase with opinion j and
// stay the probability of remaining undecided.
//
// The closed form is where the truncated-Poisson profile summation of
// the census law collapses exactly: a node receives X_j ~
// Poisson(λ_j) independent messages and, when S = ΣX > 0, adopts an
// opinion drawn u.a.r. among the received messages, i.e. opinion j
// with probability X_j/S. Conditional on S = s > 0 the profile X is
// Multinomial(s, λ/Λ), so E[X_j/S | S = s] = λ_j/Λ for every s, and
//
//	adopt[j] = (λ_j/Λ)·(1 − e^(−Λ)),   stay = e^(−Λ).
//
// No truncation is involved; the truncated summation over
// received-count profiles (which the law tests perform literally)
// converges to exactly this. Stage 1 therefore contributes zero to
// the census engine's Lemma-3 truncation budget.
func Stage1Law(lambda []float64) (adopt []float64, stay float64) {
	total := 0.0
	for j, l := range lambda {
		if l < 0 || math.IsNaN(l) || math.IsInf(l, 0) {
			panic(fmt.Sprintf("census: Stage1Law with lambda[%d]=%v", j, l))
		}
		total += l
	}
	adopt = make([]float64, len(lambda))
	if total == 0 {
		return adopt, 1
	}
	stay = math.Exp(-total)
	hit := -math.Expm1(-total) // 1 − e^(−Λ) without cancellation
	for j, l := range lambda {
		adopt[j] = l / total * hit
	}
	return adopt, stay
}

// MajorityLaw returns r[j] = Pr(maj(Y) = j) for Y ~ Multinomial(ell,
// q) with ties broken uniformly at random — the class-independent
// adoption law of one Stage-2 update under process P: a uniform
// ℓ-subsample of a node's received multiset has exactly this
// composition law (see the package comment). The second return value
// is the total probability mass the truncated summation dropped, a
// conservative bound on the total-variation gap to the exact law
// (every skipped term's mass is accumulated, never estimated) — the
// per-node quantity the engine wires into its Lemma-3 coupling
// budget.
//
// For k ≥ 3 the evaluation sums over received-count profiles in
// factored form. For each candidate winner j and winning count m,
// Pr(Y_j = m) is a binomial term; conditional on it the rival
// profile is Multinomial(ell−m, q_{−j}/(1−q_j)), scanned by a
// dynamic program over rival opinions tracking (balls placed, rivals
// tied at m), all placed counts ≤ m; a terminal state with t ties
// contributes its mass/(t+1), the uniform tie-break. Truncation — all of it
// accounted into dropped — happens at three sites: winning counts m
// with binomial mass below tol/(4(ℓ+1)), DP states below an analogous
// cut, and per-rival count windows pruned below the cut. The cost is
// independent of n and, once the windows bind, scales with the
// binomial standard deviations rather than ℓ²: the DP scans and clears
// only the band of ball rows its pruned windows can reach, never the
// full (ℓ−m+1)·k layer. analytic.MajProbs (an exhaustive enumeration)
// is the cross-check oracle at small ℓ.
//
// Every binomial term of the DP — the winning-count pmfs and the
// centre of each rival window — comes from binomPMF, the package's
// one pmf kernel: ln q_j and ln(1−q_j) are hoisted once per candidate
// (once per rival for the windows) and the log-binomial coefficient
// is a table read, so a term costs one Exp. The kernel is
// bit-identical to dist.BinomialPMF, so the law and its dropped mass
// are the exact floats of the Lgamma form.
//
// Two analytic fast paths skip the rival DP entirely. A point-mass q
// (the consensus endgame, where most phases of a winning trial live)
// collapses to r = q in O(k), bit-identical to the DP. k = 2 is the
// closed binomial tail of Lemma 8, one regularized incomplete beta
// per opinion (evalBinary): it truncates nothing, so dropped = 0,
// and it is not bit-identical to the DP but within the DP's dropped
// mass plus float rounding of it (TestFastPathsBitIdenticalToDP) and
// within 1e-14 of an exact 256-bit tail (TestBinaryLawVsBigFloat).
// Float rounding is not charged to dropped on either path.
//
// MajorityLaw allocates its result and scratch; hot paths hold a
// lawEvaluator and call eval, which reuses both.
func MajorityLaw(q []float64, ell int, tol float64) ([]float64, float64) {
	var ev lawEvaluator
	return ev.eval(q, ell, tol)
}

// lawEvaluator owns the reusable buffers of a MajorityLaw evaluation:
// the result vector and the rival-scan DP scratch. The zero value is
// ready to use; after the first eval, further calls at the same (or
// smaller) k and ℓ allocate nothing. The slice returned by eval is
// owned by the evaluator and valid until the next eval call.
type lawEvaluator struct {
	r  []float64
	dp majorityDP
}

// eval is MajorityLaw into the evaluator's reusable buffers. See the
// MajorityLaw contract for semantics; the two are bit-identical.
func (ev *lawEvaluator) eval(q []float64, ell int, tol float64) ([]float64, float64) {
	k := len(q)
	if k == 0 {
		panic("census: MajorityLaw with empty distribution")
	}
	if ell < 1 {
		panic(fmt.Sprintf("census: MajorityLaw with ℓ=%d", ell))
	}
	if tol <= 0 || math.IsNaN(tol) {
		panic(fmt.Sprintf("census: MajorityLaw with tol=%v", tol))
	}
	total := 0.0
	for j, p := range q {
		if p < 0 || math.IsNaN(p) {
			panic(fmt.Sprintf("census: MajorityLaw with q[%d]=%v", j, p))
		}
		total += p
	}
	if math.Abs(total-1) > 1e-9 {
		panic(fmt.Sprintf("census: MajorityLaw probabilities sum to %v", total))
	}
	if cap(ev.r) < k {
		ev.r = make([]float64, k)
	}
	r := ev.r[:k]
	for j := range r {
		r[j] = 0
	}
	if k == 1 {
		r[0] = 1
		return r, 0
	}
	mCut := tol / (4 * float64(ell+1))
	stateCut := tol / (4 * float64(ell+1) * float64(k))
	// Point-mass fast path: a degenerate pool puts every subsample ball
	// on one opinion, so maj = j surely. The general path reproduces
	// exactly this (the single surviving term is m = ℓ with pm = 1 and
	// a ball-free rival scan) whenever that term clears the mCut gate —
	// hence the mCut ≤ 1 guard, which every real tolerance satisfies.
	if mCut <= 1 {
		for j, p := range q {
			if p != 1 {
				continue
			}
			exact := true
			for i, pi := range q {
				if i != j && pi != 0 {
					exact = false
					break
				}
			}
			if exact {
				r[j] = 1
				return r, 0
			}
		}
	}
	if k == 2 {
		return ev.evalBinary(q, ell, r)
	}
	return ev.evalGeneral(q, ell, mCut, stateCut, r)
}

// evalGeneral is the winner×count binomial factoring with the rival
// DP — the path every k ≥ 3 non-degenerate pool takes, and the
// reference the fast paths are checked against.
func (ev *lawEvaluator) evalGeneral(q []float64, ell int, mCut, stateCut float64, r []float64) ([]float64, float64) {
	k := len(q)
	dropped := 0.0
	lf := lnFact()
	dp := &ev.dp
	dp.ensure(k, ell)
	for j := 0; j < k; j++ {
		if q[j] == 0 {
			// Y_j = 0 surely; with ℓ ≥ 1 some rival holds a ball, so
			// j can neither win nor tie for the maximum.
			continue
		}
		lp, lq := math.Log(q[j]), math.Log1p(-q[j])
		for m := 0; m <= ell; m++ {
			pm := lf.binomPMF(ell, m, q[j], lp, lq)
			if pm == 0 {
				continue
			}
			if pm < mCut {
				dropped += pm
				continue
			}
			win, dpDropped := dp.winProb(q, j, m, stateCut)
			r[j] += pm * win
			dropped += pm * dpDropped
		}
	}
	return r, dropped
}

// evalBinary is the k = 2 closed form: the single rival absorbs all
// remaining balls, so opinion j wins outright when Y_j ≥ h+1 with
// h = ⌊ℓ/2⌋ and ties u.a.r. at Y_j = ℓ/2 for even ℓ. The strict-win
// tail Pr(Y_j ≥ h+1) is the regularized incomplete beta I_{q_j}(h+1,
// ℓ−h) of Lemma 8, one continued fraction instead of a term-by-term
// pmf sum, and the tie adds half the central pmf. Nothing is
// truncated, so dropped is 0; float rounding (≈10⁻¹⁴ absolute) is not
// charged, on this path or on the DP.
func (ev *lawEvaluator) evalBinary(q []float64, ell int, r []float64) ([]float64, float64) {
	h := ell / 2
	for j, p := range q {
		if p == 0 {
			continue // Y_j = 0 < ℓ−Y_j surely
		}
		r[j] = dist.RegIncBeta(float64(h+1), float64(ell-h), p)
		if ell%2 == 0 {
			r[j] += 0.5 * lnFact().binomPMF(ell, h, p, math.Log(p), math.Log1p(-p))
		}
	}
	return r, 0
}

// majorityDP holds the scratch buffers of the rival-profile scan so
// one phase's O(k·window) winProb calls do not allocate.
type majorityDP struct {
	k   int
	ell int
	f   []float64 // (ballsPlaced, ties) layer, ties-major within a row
	g   []float64 // next layer
	pmf []float64 // per-(state,rival) binomial row
}

// ensure sizes the scratch for a (k, ℓ) evaluation, growing (never
// shrinking) the backing arrays so an evaluator amortizes to zero
// allocations. f and g are all-zero between winProb calls — winProb
// clears the rows it wrote before returning — so they are valid at
// any new row width k; binomRow's window is fully rewritten before
// use.
func (dp *majorityDP) ensure(k, ell int) {
	dp.k, dp.ell = k, ell
	if need := (ell + 1) * k; len(dp.f) < need {
		dp.f = make([]float64, need)
		dp.g = make([]float64, need)
	}
	if len(dp.pmf) < ell+1 {
		dp.pmf = make([]float64, ell+1)
	}
}

// winProb returns Pr(maj = j | Y_j = m) for Y ~ Multinomial(ell, q)
// (ties u.a.r.) together with the conditional probability mass it
// pruned below cut. The rival profile conditional on Y_j = m is
// Multinomial(ell−m, q_{−j}/(1−q_j)), factored into sequential
// conditional binomials in opinion order.
//
// The DP is band-limited: after r rivals a layer can be non-zero only
// on the rows (balls placed) reachable through their pruned windows,
// so winProb tracks that row band [flo, fhi] of f, scans only it, and
// records the band it writes into g. Both layers are all-zero outside
// their bands; a layer is cleared over its stale band before reuse,
// and both bands are cleared before returning, so dp.f and dp.g are
// all-zero between calls. Rows outside the band held only zeros, which
// the full scan skipped, so every cell receives the same additions in
// the same order and the result is bit-identical to the full scan.
func (dp *majorityDP) winProb(q []float64, j, m int, cut float64) (float64, float64) {
	k := dp.k
	balls := dp.ell - m // rival balls to place
	// No rival balls: every rival sits at 0 < m — a strict win —
	// unless m = 0, which cannot happen for ℓ ≥ 1.
	if balls == 0 {
		return 1, 0
	}
	if m == 0 {
		// Rivals hold balls ≥ 1 balls, so some rival exceeds zero.
		return 0, 0
	}
	f, g := dp.f, dp.g
	f[0] = 1          // ballsPlaced=0, ties=0
	flo, fhi := 0, 0  // rows of f that may be non-zero
	glo, ghi := 0, -1 // rows of g that may be non-zero (stale)
	remMass := 1 - q[j]
	pruned := 0.0
	rivals := 0
	for i := range q {
		if i != j {
			rivals++
		}
	}
	for i := range q {
		if i == j {
			continue
		}
		rivals--
		last := rivals == 0
		pc := 0.0
		if remMass > 0 {
			pc = q[i] / remMass
			if pc > 1 {
				pc = 1
			}
		}
		remMass -= q[i]
		var lp, lq float64 // ln pc, ln(1−pc) for every binomRow of this rival
		if !last {
			lp, lq = math.Log(pc), math.Log1p(-pc)
		}
		clearRows(g, glo, ghi, k)
		glo, ghi = balls+1, -1
		for b := flo; b <= fhi; b++ {
			row := f[b*k : b*k+k]
			R := balls - b
			lo, hi := 0, -1
			rowPruned := 0.0
			windowReady := false
			for t := 0; t < k; t++ {
				v := row[t]
				if v == 0 {
					continue
				}
				if v < cut {
					pruned += v
					continue
				}
				if last {
					// The final rival absorbs the remaining R balls
					// exactly (its conditional success probability is
					// 1). R > m means a rival beats the winner — a
					// loss for j, not truncated mass.
					if R > m {
						continue
					}
					ti := t
					if R == m {
						ti++
					}
					g[(b+R)*k+ti] += v
					glo, ghi = balls, balls // b+R
					continue
				}
				if !windowReady {
					amax := m
					if R < amax {
						amax = R
					}
					lo, hi, rowPruned = dp.binomRow(R, pc, lp, lq, amax, cut)
					windowReady = true
					if lo <= hi {
						glo, ghi = min(glo, b+lo), max(ghi, b+hi)
					}
				}
				pruned += v * rowPruned
				for a := lo; a <= hi; a++ {
					w := dp.pmf[a]
					if w == 0 {
						continue
					}
					ti := t
					if a == m {
						ti++
					}
					g[(b+a)*k+ti] += v * w
				}
			}
		}
		f, g = g, f
		flo, fhi, glo, ghi = glo, ghi, flo, fhi
	}
	win := 0.0
	row := f[balls*k : balls*k+k]
	for t, v := range row {
		if v != 0 {
			win += v / float64(t+1)
		}
	}
	clearRows(f, flo, fhi, k)
	clearRows(g, glo, ghi, k)
	return win, pruned
}

// clearRows zeroes rows lo..hi of a DP layer with row width k; an
// empty band (lo > hi) clears nothing.
func clearRows(x []float64, lo, hi, k int) {
	if lo <= hi {
		clear(x[lo*k : (hi+1)*k])
	}
}

// binomRow fills dp.pmf[a] = Pr(Binomial(R, p) = a) for a in the
// returned contiguous window [lo, hi] ⊆ [0, amax] of entries ≥ cut,
// and returns the pruned mass: the PMF total over [0, amax] outside
// the window. Mass above amax (a rival count exceeding the candidate
// winner) is deliberately not included — those profiles belong to
// other (winner, count) terms, not to the truncation error. The PMF
// is evaluated once at the in-range mode (binomPMF, with the caller's
// lp = ln p and lq = ln(1−p)) and extended by its two-term recurrence,
// so a call costs O(amax) with a single Exp.
func (dp *majorityDP) binomRow(R int, p, lp, lq float64, amax int, cut float64) (lo, hi int, pruned float64) {
	if amax > R {
		amax = R
	}
	if p <= 0 {
		dp.pmf[0] = 1
		return 0, 0, 0
	}
	if p >= 1 {
		if R <= amax {
			dp.pmf[R] = 1
			return R, R, 0
		}
		return 0, -1, 0 // all mass above the cap: a loss, not truncation
	}
	mode := int(float64(R+1) * p)
	if mode > amax {
		mode = amax
	}
	center := lnFact().binomPMF(R, mode, p, lp, lq)
	if center < cut {
		// The entire in-cap range is below the cut. Its true mass is
		// at most the cap-range CDF; bound it conservatively by the
		// unimodal envelope (amax+1 terms each ≤ center).
		return 0, -1, float64(amax+1) * center
	}
	odds := p / (1 - p)
	dp.pmf[mode] = center
	lo = 0
	v := center
	for a := mode - 1; a >= 0; a-- {
		// pmf(a) = pmf(a+1)·(a+1)/((R−a)·odds)
		v *= float64(a+1) / (float64(R-a) * odds)
		if v < cut {
			// The remaining lower tail is monotone decreasing; sum
			// what the recurrence yields until it underflows.
			for aa := a; aa >= 0 && v > 0; aa-- {
				pruned += v
				v *= float64(aa) / (float64(R-aa+1) * odds)
			}
			lo = a + 1
			break
		}
		dp.pmf[a] = v
	}
	hi = amax
	v = center
	for a := mode + 1; a <= amax; a++ {
		// pmf(a) = pmf(a−1)·(R−a+1)/a·odds
		v *= float64(R-a+1) / float64(a) * odds
		if v < cut {
			for aa := a; aa <= amax && v > 0; aa++ {
				pruned += v
				v *= float64(R-aa) / float64(aa+1) * odds
			}
			hi = a - 1
			break
		}
		dp.pmf[a] = v
	}
	return lo, hi, pruned
}

package noise

import (
	"math"
	"testing"

	"github.com/gossipkit/noisyrumor/internal/rng"
)

func TestUniformIsMPForAllDelta(t *testing.T) {
	// Section 4: the Uniform matrix is (ε,δ)-m.p. for every δ > 0
	// with respect to any opinion. Its exact bias contraction factor
	// is diag−off = ε·k/(k−1), so it is (ε',δ)-m.p. for any ε' < that.
	for _, k := range []int{2, 3, 5, 8} {
		for _, eps := range []float64{0.05, 0.2} {
			m := mustUniform(t, k, eps)
			contraction := m.At(0, 0) - m.At(0, 1)
			for _, delta := range []float64{0.01, 0.1, 0.5} {
				res, err := m.IsMajorityPreserving(0, contraction*0.99, delta)
				if err != nil {
					t.Fatal(err)
				}
				if !res.MP {
					t.Fatalf("Uniform(k=%d, ε=%v) not m.p. at δ=%v: %+v",
						k, eps, delta, res)
				}
				// And the kept bias should be exactly contraction·δ.
				if math.Abs(res.WorstBias-contraction*delta) > 1e-7 {
					t.Fatalf("kept bias = %v, want %v", res.WorstBias, contraction*delta)
				}
			}
		}
	}
}

func TestUniformMPForEveryOpinion(t *testing.T) {
	m := mustUniform(t, 4, 0.15)
	contraction := m.At(0, 0) - m.At(0, 1)
	ok, failing, err := m.IsMajorityPreservingAll(contraction/2, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatalf("Uniform fails m.p. for opinion %d", failing)
	}
}

func TestDominantCycleNotMP(t *testing.T) {
	// Section 4: for ε, δ < 1/6 the counterexample does not even
	// preserve the majority (kept bias can be negative), exhibited by
	// c = (1/2+δ, 1/2−δ, 0).
	eps := 0.1
	delta := 0.1
	m, err := DominantCycle(3, eps)
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.IsMajorityPreserving(0, eps, delta)
	if err != nil {
		t.Fatal(err)
	}
	if res.MP {
		t.Fatalf("DominantCycle reported m.p.: %+v", res)
	}
	if res.WorstBias >= 0 {
		t.Fatalf("counterexample should flip the majority outright, kept bias = %v",
			res.WorstBias)
	}

	// Verify the paper's explicit witness analytically: with
	// c = (1/2+δ, 1/2−δ, 0), (cP)_2 − (cP)_0 = (1/2−ε)(1/2+δ) −
	// (1/2+ε)(1/2+δ) − (1/2−ε)(1/2−δ) ... compute via Apply.
	c := []float64{0.5 + delta, 0.5 - delta, 0}
	out := m.Apply(c, nil)
	if Bias(out, 0) >= 0 {
		t.Fatalf("paper witness does not flip majority: %v -> %v", c, out)
	}
}

func TestDominantCycleMPWhenEpsLarge(t *testing.T) {
	// For large ε (≥ 1/6 regime) and large δ the cycle keeps the
	// majority; verify the LP agrees that the worst kept bias grows
	// with ε.
	m1, _ := DominantCycle(3, 0.05)
	m2, _ := DominantCycle(3, 0.4)
	r1, err := m1.IsMajorityPreserving(0, 0, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := m2.IsMajorityPreserving(0, 0, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	if r2.WorstBias <= r1.WorstBias {
		t.Fatalf("kept bias did not grow with ε: %v vs %v", r1.WorstBias, r2.WorstBias)
	}
}

func TestIdentityIsPerfectlyMP(t *testing.T) {
	m, _ := Identity(3)
	res, err := m.IsMajorityPreserving(1, 0.99, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	if !res.MP {
		t.Fatalf("identity not m.p.: %+v", res)
	}
	if math.Abs(res.WorstBias-0.25) > 1e-8 {
		t.Fatalf("identity kept bias = %v, want δ", res.WorstBias)
	}
}

func TestWorstDistIsDeltaBiased(t *testing.T) {
	m := mustUniform(t, 4, 0.2)
	delta := 0.15
	res, err := m.IsMajorityPreserving(2, 0.01, delta)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.WorstDist) != 4 {
		t.Fatalf("no witness distribution: %+v", res)
	}
	sum := 0.0
	for _, v := range res.WorstDist {
		if v < -1e-8 {
			t.Fatalf("witness has negative mass: %v", res.WorstDist)
		}
		sum += v
	}
	if math.Abs(sum-1) > 1e-7 {
		t.Fatalf("witness mass = %v", sum)
	}
	if b := Bias(res.WorstDist, 2); b < delta-1e-7 {
		t.Fatalf("witness bias = %v < δ = %v", b, delta)
	}
}

func TestIsMajorityPreservingValidation(t *testing.T) {
	m := mustUniform(t, 3, 0.1)
	if _, err := m.IsMajorityPreserving(-1, 0.1, 0.1); err == nil {
		t.Fatal("negative opinion accepted")
	}
	if _, err := m.IsMajorityPreserving(3, 0.1, 0.1); err == nil {
		t.Fatal("out-of-range opinion accepted")
	}
	if _, err := m.IsMajorityPreserving(0, 0.1, 0); err == nil {
		t.Fatal("δ=0 accepted")
	}
	if _, err := m.IsMajorityPreserving(0, 0.1, 1.5); err == nil {
		t.Fatal("δ>1 accepted")
	}
	if _, err := m.IsMajorityPreserving(0, -0.1, 0.5); err == nil {
		t.Fatal("negative ε accepted")
	}
	if _, err := m.IsMajorityPreserving(0, 0.1, math.NaN()); err == nil {
		t.Fatal("δ=NaN accepted")
	}
	if _, err := m.IsMajorityPreserving(0, math.NaN(), 0.5); err == nil {
		t.Fatal("ε=NaN accepted")
	}
}

func TestSufficientMPImpliesLPVerdict(t *testing.T) {
	// Eq. (18): whenever the closed-form sufficient condition holds,
	// the exact LP must also report (ε,δ)-m.p. with ε = (p−q_u)/2.
	r := rng.New(4242)
	checked := 0
	for trial := 0; trial < 200; trial++ {
		k := 3 + r.Intn(4)
		diag := 0.4 + r.Float64()*0.4
		base := (1 - diag) / float64(k-1)
		spread := r.Float64() * base * 0.5
		m, err := NearUniform(k, diag, spread, r)
		if err != nil {
			t.Fatal(err)
		}
		delta := 0.05 + r.Float64()*0.9
		eps, ok := m.SufficientMP(delta)
		if !ok {
			continue
		}
		checked++
		for op := 0; op < k; op++ {
			res, err := m.IsMajorityPreserving(op, eps, delta)
			if err != nil {
				t.Fatal(err)
			}
			if !res.MP {
				t.Fatalf("Eq.18 held (ε=%v, δ=%v) but LP says not m.p. for opinion %d:\n%v",
					eps, delta, op, m)
			}
		}
	}
	if checked < 20 {
		t.Fatalf("sufficient condition held in only %d/200 trials; test too weak", checked)
	}
}

func TestMaxEpsilonMPUniform(t *testing.T) {
	// For Uniform the supremum ε is exactly the contraction factor
	// diag−off (kept bias = contraction·δ ⇒ ε* = contraction).
	m := mustUniform(t, 3, 0.2)
	contraction := m.At(0, 0) - m.At(0, 1)
	got, err := m.MaxEpsilonMP(0, 0.3, 1e-9)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-contraction) > 1e-6 {
		t.Fatalf("ε* = %v, want %v", got, contraction)
	}
}

func TestMaxEpsilonMPNotPreserving(t *testing.T) {
	m, _ := DominantCycle(3, 0.1)
	got, err := m.MaxEpsilonMP(0, 0.1, 1e-9)
	if err != nil {
		t.Fatal(err)
	}
	if got != 0 {
		t.Fatalf("ε* = %v, want 0 for a majority-flipping matrix", got)
	}
}

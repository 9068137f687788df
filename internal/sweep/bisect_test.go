package sweep

import (
	"math"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// TestLPBoundaryBinaryAnalytic pins LPBoundary against the one family
// whose boundary is available in closed form: the FHK binary matrix
// keeps exactly 2ε_chan·δ of a δ-bias ((cP)₀−(cP)₁ = 2ε(c₀−c₁)), so
// it is (ε_proto, δ)-m.p. iff ε_proto < 2ε_chan — the boundary is
// ε_chan* = ε_proto/2 for every δ.
func TestLPBoundaryBinaryAnalytic(t *testing.T) {
	for _, protoEps := range []float64{0.1, 0.3, 0.5} {
		for _, delta := range []float64{0.02, 0.3, 1} {
			got, err := LPBoundary("binary", 2, protoEps, delta, 0.01, 0.49)
			if err != nil {
				t.Fatalf("protoEps=%v delta=%v: %v", protoEps, delta, err)
			}
			if want := protoEps / 2; math.Abs(got-want) > 1e-6 {
				t.Fatalf("protoEps=%v delta=%v: LP boundary %v, want the analytic ε/2 = %v", protoEps, delta, got, want)
			}
		}
	}
	// Unbracketed boundary must be an error, not a silent endpoint.
	if _, err := LPBoundary("binary", 2, 0.9, 0.3, 0.01, 0.4); err == nil {
		t.Fatal("unbracketed LP boundary accepted")
	}
	if _, err := LPBoundary("binary", 2, 0.3, math.NaN(), 0.01, 0.49); err == nil || !strings.Contains(err.Error(), "LPBoundary needs δ") {
		t.Fatalf("NaN δ not refused up front: %v", err)
	}
}

// testBisect is the calibrated threshold workload: FHK binary channel
// under a protocol pinned at ε = 0.4, small initial bias δ = 0.02,
// n = 10⁵ on the census engine. In this regime the measured success
// probability collapses from ≈1 to ≈0 within a few hundredths of the
// analytic k = 2 majority-preservation boundary ε_chan = 0.2.
func testBisect(trials int) Bisect {
	return Bisect{
		Matrix:   "binary",
		K:        2,
		N:        100_000,
		Delta:    0.02,
		ProtoEps: 0.4,
		Lo:       0.1,
		Hi:       0.3,
		Tol:      0.02,
		Trials:   trials,
	}
}

// TestBisectConvergesToAnalyticThreshold is the convergence property
// test: the located critical ε must land near the analytic k = 2
// threshold ε_proto/2 = 0.2, the final bracket must respect the
// requested tolerance, and the critical band must contain the LP
// boundary — the acceptance contract E21 reports on.
func TestBisectConvergesToAnalyticThreshold(t *testing.T) {
	b := testBisect(120)
	res, err := Runner{Seed: 5}.RunBisect(b)
	if err != nil {
		t.Fatal(err)
	}
	if res.Hi-res.Lo > b.Tol+1e-12 {
		t.Fatalf("final bracket [%v, %v] wider than tol %v", res.Lo, res.Hi, b.Tol)
	}
	if res.Critical < res.Lo || res.Critical > res.Hi {
		t.Fatalf("critical %v outside final bracket [%v, %v]", res.Critical, res.Lo, res.Hi)
	}
	if math.Abs(res.Critical-0.2) > 0.03 {
		t.Fatalf("critical ε %v, want within 0.03 of the analytic threshold 0.2", res.Critical)
	}
	lpb, err := LPBoundary(b.Matrix, b.K, b.ProtoEps, b.Delta, 0.01, 0.49)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Contains(lpb) {
		t.Fatalf("critical band [%v, %v] does not contain the LP boundary %v", res.BandLo, res.BandHi, lpb)
	}
	// The exact k = 2 Stage-2 law is a closed form that truncates
	// nothing, so this bisection's budget is exactly zero; the
	// budget-wiring positivity check runs on a quantized bisection.
	if res.ErrorBudget != 0 {
		t.Fatalf("exact k = 2 bisection budget %v, want 0", res.ErrorBudget)
	}
	qb := testBisect(24)
	qb.LawQuant = 1e-6
	qres, err := Runner{Seed: 5}.RunBisect(qb)
	if err != nil {
		t.Fatal(err)
	}
	if qres.ErrorBudget <= 0 || qres.ErrorBudget > 1e-3 {
		t.Fatalf("quantized bisection budget %v, want small but positive", qres.ErrorBudget)
	}
	// Wilson early stopping must actually save trials on the evals far
	// from the threshold.
	saved := false
	for _, ev := range res.Evals {
		if ev.Resolved && ev.Result.Trials < b.Trials {
			saved = true
		}
		if ev.Result.Trials > b.Trials {
			t.Fatalf("eval at ε=%v ran %d trials, budget is %d", ev.Eps, ev.Result.Trials, b.Trials)
		}
	}
	if !saved {
		t.Fatal("no evaluation stopped early; Wilson stopping is not wired through")
	}
}

// TestBisectGoldenAcrossWorkerCounts: the adaptive search — early
// stopping included — must be a pure function of (spec, seed).
func TestBisectGoldenAcrossWorkerCounts(t *testing.T) {
	b := testBisect(60)
	one, err := Runner{Seed: 13, Workers: 1}.RunBisect(b)
	if err != nil {
		t.Fatal(err)
	}
	eight, err := Runner{Seed: 13, Workers: 8}.RunBisect(b)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(one, eight) {
		t.Fatalf("bisection differs between 1 and 8 workers:\n%+v\nvs\n%+v", one, eight)
	}
}

// TestBisectCheckpointResume: a bisection resumed from a partial
// checkpoint must replay the identical decision sequence.
func TestBisectCheckpointResume(t *testing.T) {
	b := testBisect(60)
	ref, err := Runner{Seed: 21, Workers: 4}.RunBisect(b)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "bisect.json")
	ck, err := openCheckpointFile(path, "bisect", 21, DefaultZ, Shard{}, b, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Pre-seed the checkpoint with only the first two evaluations of
	// the reference run, as if the search died mid-flight.
	for i := 0; i < 2; i++ {
		if err := ck.put(i, ref.Evals[i].Result); err != nil {
			t.Fatal(err)
		}
	}
	if err := ck.close(); err != nil {
		t.Fatal(err)
	}
	resumed, err := Runner{Seed: 21, Workers: 2, Checkpoint: path}.RunBisect(b)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ref, resumed) {
		t.Fatal("resumed bisection differs from the uninterrupted reference")
	}
}

func TestBisectRejectsBadSpecs(t *testing.T) {
	b := testBisect(40)
	b.Lo, b.Hi = 0.25, 0.45 // success ≈ 1 on both ends
	if _, err := (Runner{Seed: 3}).RunBisect(b); err == nil {
		t.Fatal("non-straddling bracket accepted")
	}
	for _, mutate := range []func(*Bisect){
		func(b *Bisect) { b.ProtoEps = 0 },
		func(b *Bisect) { b.Lo, b.Hi = 0.3, 0.1 },
		func(b *Bisect) { b.Tol = 0 },
		func(b *Bisect) { b.Trials = 0 },
	} {
		bad := testBisect(40)
		mutate(&bad)
		if _, err := (Runner{}).RunBisect(bad); err == nil {
			t.Fatalf("invalid bisect spec accepted: %+v", bad)
		}
	}
	// A NaN protocol ε is refused by validation, before any trial runs.
	nan := testBisect(40)
	nan.ProtoEps = math.NaN()
	if _, err := (Runner{}).RunBisect(nan); err == nil || !strings.Contains(err.Error(), "protocol ε") {
		t.Fatalf("NaN protocol ε not refused up front: %v", err)
	}
}

package noisyrumor

import (
	"math"
	"testing"
)

func TestRumorSpreadingPublicAPI(t *testing.T) {
	nm, err := UniformNoise(3, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RumorSpreading(Config{
		N:      2000,
		Noise:  nm,
		Params: DefaultParams(0.3),
		Seed:   1,
	}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Winner != 1 {
		t.Fatalf("rumor spreading failed: %+v", res)
	}
}

func TestPluralityConsensusPublicAPI(t *testing.T) {
	nm, err := UniformNoise(3, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	res, err := PluralityConsensus(Config{
		N:      2000,
		Noise:  nm,
		Params: DefaultParams(0.3),
		Seed:   2,
	}, []int{500, 330, 300})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Winner != 0 {
		t.Fatalf("plurality consensus failed: %+v", res)
	}
}

func TestPluralityConsensusRejectsTies(t *testing.T) {
	nm, _ := UniformNoise(2, 0.3)
	if _, err := PluralityConsensus(Config{N: 100, Noise: nm, Params: DefaultParams(0.3), Seed: 1},
		[]int{50, 50}); err == nil {
		t.Fatal("tied counts accepted")
	}
}

func TestPluralityConsensusRejectsWrongK(t *testing.T) {
	nm, _ := UniformNoise(3, 0.3)
	if _, err := PluralityConsensus(Config{N: 100, Noise: nm, Params: DefaultParams(0.3), Seed: 1},
		[]int{50, 30}); err == nil {
		t.Fatal("count/k mismatch accepted")
	}
}

func TestConfigValidation(t *testing.T) {
	nm, _ := UniformNoise(2, 0.2)
	if _, err := RumorSpreading(Config{N: 1, Noise: nm}, 0); err == nil {
		t.Fatal("N=1 accepted")
	}
	if _, err := RumorSpreading(Config{N: 100}, 0); err == nil {
		t.Fatal("nil noise accepted")
	}
}

func TestZeroParamsUsesDefaults(t *testing.T) {
	nm, err := UniformNoise(2, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RumorSpreading(Config{N: 500, Noise: nm, Seed: 3}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds < 1 {
		t.Fatalf("no rounds executed: %+v", res)
	}
}

func TestTraceExposedThroughFacade(t *testing.T) {
	nm, _ := UniformNoise(2, 0.3)
	res, err := RumorSpreading(Config{
		N: 500, Noise: nm, Params: DefaultParams(0.3), Seed: 4, Trace: true,
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Trace) == 0 {
		t.Fatal("trace empty")
	}
}

func TestNoiseConstructorsExposed(t *testing.T) {
	if _, err := IdentityNoise(3); err != nil {
		t.Fatal(err)
	}
	if _, err := BinaryNoise(0.2); err != nil {
		t.Fatal(err)
	}
	if _, err := DominantCycleNoise(3, 0.1); err != nil {
		t.Fatal(err)
	}
	if _, err := ResetNoise(3, 0.2); err != nil {
		t.Fatal(err)
	}
	m, err := NewNoiseMatrix([][]float64{{0.8, 0.2}, {0.3, 0.7}})
	if err != nil {
		t.Fatal(err)
	}
	if m.K() != 2 {
		t.Fatalf("K = %d", m.K())
	}
}

func TestMajorityPreservationExposed(t *testing.T) {
	nm, _ := UniformNoise(3, 0.2)
	res, err := nm.IsMajorityPreserving(0, 0.1, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	if !res.MP {
		t.Fatalf("uniform matrix not m.p.: %+v", res)
	}
}

func TestBiasExposed(t *testing.T) {
	if got := Bias([]float64{0.6, 0.4}, 0); math.Abs(got-0.2) > 1e-12 {
		t.Fatalf("Bias = %v", got)
	}
}

func TestNewScheduleExposed(t *testing.T) {
	s, err := NewSchedule(10000, DefaultParams(0.25))
	if err != nil {
		t.Fatal(err)
	}
	if s.TotalRounds() < 100 {
		t.Fatalf("schedule too short: %v", s)
	}
}

func TestProcessBEngineEquivalentOutcome(t *testing.T) {
	// Claim 1: the balls-into-bins engine is an exact coupling of the
	// push engine at phase granularity, so the protocol must succeed
	// under it just the same.
	nm, err := UniformNoise(3, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RumorSpreading(Config{
		N:      2000,
		Noise:  nm,
		Params: DefaultParams(0.3),
		Seed:   11,
		Engine: ProcessB,
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct {
		t.Fatalf("protocol failed under ProcessB: %+v", res)
	}
}

func TestProcessPEngineRuns(t *testing.T) {
	nm, err := UniformNoise(3, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RumorSpreading(Config{
		N:      2000,
		Noise:  nm,
		Params: DefaultParams(0.3),
		Seed:   12,
		Engine: ProcessP,
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct {
		t.Fatalf("protocol failed under ProcessP: %+v", res)
	}
}

// TestDefaultEpsilonRejectsOutOfRange: the zero-Params ε estimate is
// used only inside (0, 1]; a weak diagonal or a NaN takes the 0.5
// fallback.
func TestDefaultEpsilonRejectsOutOfRange(t *testing.T) {
	if got := defaultEpsilon(0.8, 2); math.Abs(got-0.3) > 1e-15 {
		t.Fatalf("defaultEpsilon(0.8, 2) = %v, want 0.3", got)
	}
	for _, minDiag := range []float64{0.2, math.NaN()} {
		if got := defaultEpsilon(minDiag, 2); got != 0.5 {
			t.Fatalf("defaultEpsilon(%v, 2) = %v, want the 0.5 fallback", minDiag, got)
		}
	}
}

func TestZeroParamsFallbackForWeakDiagonal(t *testing.T) {
	// A matrix whose diagonal is below 1/k would give a non-positive
	// derived ε; the facade must fall back to a sane default rather
	// than erroring.
	nm, err := NewNoiseMatrix([][]float64{{0.2, 0.8}, {0.8, 0.2}})
	if err != nil {
		t.Fatal(err)
	}
	res, err := RumorSpreading(Config{N: 100, Noise: nm, Seed: 1}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds < 1 {
		t.Fatalf("no rounds executed: %+v", res)
	}
}

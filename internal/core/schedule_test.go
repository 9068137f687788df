package core

import (
	"math"
	"strings"
	"testing"
)

func TestDefaultParamsValid(t *testing.T) {
	for _, eps := range []float64{0.05, 0.2, 0.5, 1} {
		if err := DefaultParams(eps).Validate(); err != nil {
			t.Fatalf("DefaultParams(%v) invalid: %v", eps, err)
		}
	}
}

func TestParamsValidation(t *testing.T) {
	bad := []Params{
		{Epsilon: 0, S: 1, Beta: 2, Phi: 4, C: 3, CPrime: 2},
		{Epsilon: 1.5, S: 1, Beta: 2, Phi: 4, C: 3, CPrime: 2},
		{Epsilon: 0.2, S: 0, Beta: 2, Phi: 4, C: 3, CPrime: 2},
		{Epsilon: 0.2, S: 2, Beta: 1, Phi: 4, C: 3, CPrime: 2},  // β < s
		{Epsilon: 0.2, S: 1, Beta: 5, Phi: 4, C: 3, CPrime: 2},  // φ < β
		{Epsilon: 0.2, S: 1, Beta: 2, Phi: 4, C: 0, CPrime: 2},  // c = 0
		{Epsilon: 0.2, S: 1, Beta: 2, Phi: 4, C: 3, CPrime: -1}, // c′ < 0
		{Epsilon: math.NaN(), S: 1, Beta: 2, Phi: 4, C: 3, CPrime: 2},
		{Epsilon: 0.2, S: math.NaN(), Beta: 2, Phi: 4, C: 3, CPrime: 2},
		{Epsilon: 0.2, S: 1, Beta: 2, Phi: 4, C: math.NaN(), CPrime: 2},
		{Epsilon: 0.2, S: 1, Beta: 2, Phi: 4, C: 3, CPrime: math.NaN()},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Fatalf("bad params %d accepted: %+v", i, p)
		}
	}
}

func TestOddCeil(t *testing.T) {
	cases := []struct {
		in   float64
		want int
	}{{0.1, 1}, {1, 1}, {1.2, 3}, {2, 3}, {3, 3}, {48, 49}, {49, 49}, {-4, 1}}
	for _, c := range cases {
		if got := oddCeil(c.in); got != c.want {
			t.Fatalf("oddCeil(%v) = %d, want %d", c.in, got, c.want)
		}
	}
}

func TestNewScheduleStructure(t *testing.T) {
	s, err := NewSchedule(10000, DefaultParams(0.25))
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Stage1) < 2 {
		t.Fatalf("stage 1 has %d phases, want ≥ 2", len(s.Stage1))
	}
	for j, r := range s.Stage1 {
		if r < 1 {
			t.Fatalf("stage-1 phase %d has %d rounds", j, r)
		}
	}
	if len(s.Stage2) < 2 {
		t.Fatalf("stage 2 has %d phases, want ≥ 2", len(s.Stage2))
	}
	for j, ph := range s.Stage2 {
		if ph.SampleSize < 1 || ph.SampleSize%2 == 0 {
			t.Fatalf("stage-2 phase %d sample size %d not odd positive", j, ph.SampleSize)
		}
		if ph.Rounds != 2*ph.SampleSize {
			t.Fatalf("stage-2 phase %d: rounds %d != 2·%d", j, ph.Rounds, ph.SampleSize)
		}
	}
	// The final phase must be the long one (ℓ′ = Θ(log n/ε²) > ℓ).
	lastIdx := len(s.Stage2) - 1
	if s.Stage2[lastIdx].SampleSize <= s.Stage2[0].SampleSize {
		t.Fatalf("final sample %d not larger than regular %d",
			s.Stage2[lastIdx].SampleSize, s.Stage2[0].SampleSize)
	}
}

func TestScheduleRoundsScaleWithLogN(t *testing.T) {
	p := DefaultParams(0.25)
	small, err := NewSchedule(1000, p)
	if err != nil {
		t.Fatal(err)
	}
	big, err := NewSchedule(1000000, p)
	if err != nil {
		t.Fatal(err)
	}
	ratio := float64(big.TotalRounds()) / float64(small.TotalRounds())
	// log(1e6)/log(1e3) = 2; allow generous slack for the stepwise
	// phase-count terms.
	if ratio < 1.3 || ratio > 3.5 {
		t.Fatalf("rounds ratio for 1000× n = %v, want ≈ 2", ratio)
	}
}

func TestScheduleRoundsScaleWithEpsilon(t *testing.T) {
	coarse, err := NewSchedule(10000, DefaultParams(0.4))
	if err != nil {
		t.Fatal(err)
	}
	fine, err := NewSchedule(10000, DefaultParams(0.1))
	if err != nil {
		t.Fatal(err)
	}
	ratio := float64(fine.TotalRounds()) / float64(coarse.TotalRounds())
	// (0.4/0.1)² = 16; phase-count clamping moves it around a bit.
	if ratio < 8 || ratio > 32 {
		t.Fatalf("rounds ratio for 4× finer ε = %v, want ≈ 16", ratio)
	}
}

func TestScheduleTinyN(t *testing.T) {
	// Clamping must keep all phases positive even for small n.
	s, err := NewSchedule(2, DefaultParams(0.5))
	if err != nil {
		t.Fatal(err)
	}
	if s.TotalRounds() < 1 {
		t.Fatal("empty schedule for n=2")
	}
	if _, err := NewSchedule(1, DefaultParams(0.5)); err == nil {
		t.Fatal("n=1 accepted")
	}
}

func TestScheduleInvalidParams(t *testing.T) {
	if _, err := NewSchedule(100, Params{}); err == nil {
		t.Fatal("zero params accepted")
	}
}

func TestScheduleString(t *testing.T) {
	s, err := NewSchedule(5000, DefaultParams(0.3))
	if err != nil {
		t.Fatal(err)
	}
	str := s.String()
	if !strings.Contains(str, "stage1") || !strings.Contains(str, "stage2") {
		t.Fatalf("String() = %q", str)
	}
	if s.Stage1Rounds() >= s.TotalRounds() {
		t.Fatal("stage 2 contributes no rounds")
	}
}

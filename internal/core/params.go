// Package core implements the paper's primary contribution: the
// two-stage protocol of Section 3.1 that solves noisy rumor spreading
// and noisy plurality consensus for any constant number k of opinions
// in O(log n/ε²) rounds using O(log log n + log 1/ε) bits of memory
// per node (Theorems 1 and 2).
//
// Stage 1 (spreading): the rounds are grouped into T+2 phases. A node
// with an opinion pushes it every round. An undecided node that
// receives at least one message during a phase adopts, at the end of
// the phase, an opinion chosen uniformly at random among the messages
// it received (counting multiplicities), and starts pushing from the
// next phase on. Opinionated nodes never change opinion in Stage 1.
//
// Stage 2 (amplification): T′+1 phases, each of 2L rounds (L = ℓ for
// phases 0..T′−1, L = ℓ′ for the final phase). Every node pushes its
// current opinion each round. At the end of a phase, a node that
// received at least L messages replaces its opinion with the majority
// of a uniform random sample of L of them, breaking ties uniformly at
// random.
//
// The protocol is oblivious: it runs its full schedule regardless of
// the system state, exactly as analyzed in the paper.
//
// The package declares the nrlint determinism contract: results are
// a pure function of (spec, seed) at any worker count, enforced by
// `make lint` (see DESIGN.md "Statically enforced contracts").
//
//nrlint:deterministic
package core

import (
	"fmt"
	"math"

	"github.com/gossipkit/noisyrumor/internal/census"
	"github.com/gossipkit/noisyrumor/internal/model"
)

// Params are the protocol constants of Section 3.1. The paper fixes
// them only up to "large enough"; the defaults here are the smallest
// integers that make the Stage-1 growth condition β/ε² + 1 > 1
// comfortable and the Stage-2 amplification of Proposition 1 visible
// at laptop-scale n, and every experiment records the values used.
type Params struct {
	// Epsilon is the protocol's noise parameter ε: the phase lengths
	// scale as 1/ε². As in the paper, nodes are assumed to know ε.
	Epsilon float64
	// S sizes Stage-1 phase 0: ⌈S·ln(n)/ε²⌉ rounds.
	S float64
	// Beta sizes Stage-1 phases 1..T: ⌈Beta/ε²⌉ rounds each.
	Beta float64
	// Phi sizes Stage-1 phase T+1: ⌈Phi·ln(n)/ε²⌉ rounds.
	Phi float64
	// C sizes the Stage-2 sample: ℓ = ⌈C/ε²⌉ (rounded up to odd).
	// Lemma 12 requires C "large enough" that each phase amplifies the
	// bias by a constant α with α^T′ ≥ √(n/log n): in practice the
	// per-phase amplification must exceed 2.
	C float64
	// CPrime sizes the final Stage-2 sample: ℓ′ = ⌈CPrime·ln(n)/ε²⌉
	// (rounded up to odd).
	CPrime float64
	// Stage2ExtraPhases adds a constant number of regular Stage-2
	// phases beyond T′ = ⌈log₂(√n/ln n)⌉. The paper absorbs this
	// slack into the "large enough" constant c; keeping it explicit
	// lets the amplification margin be tuned without lengthening every
	// phase. It does not change the O(log n/ε²) total.
	Stage2ExtraPhases int
	// Backend selects the model sampling backend by name ("loop",
	// "batch" or "parallel"; see model.BackendByName). The empty
	// string leaves the engine's backend untouched, which defaults to
	// the per-message loop reference. Backends are statistically
	// equivalent; "batch" samples each phase's deliveries in aggregate
	// and is the fast path for large n, and "parallel" spreads the
	// batch sampling (and the protocol's per-node phase-end loops)
	// over worker goroutines.
	Backend string
	// Threads bounds the per-phase worker parallelism of the
	// "parallel" backend; 0 means GOMAXPROCS, 1 is bit-identical to
	// "batch". Other backends ignore it. The value is part of the
	// determinism key: for a fixed (seed, backend, Threads) a run is
	// reproducible regardless of scheduling, but different thread
	// counts consume the random stream differently.
	Threads int
	// LawQuant is the census engine's Stage-2 law quantization step η
	// (census.Engine.SetLawQuant): the pool distribution is rounded
	// onto the η-lattice, the majority law memoized by lattice point,
	// and the law-level certificate min(1, ℓ·d_TV(q, q̂)·sens) charged
	// per phase into the run's ErrorBudget — n-free, so budgets stay
	// ≪ 1 at census scale. 0 (the default) is exact — bit-identical
	// to an engine without the knob. Per-node engines ignore it.
	LawQuant float64
	// CensusTol overrides the census engine's per-phase Stage-2
	// truncation tolerance (census.Engine.SetTolerance); 0 keeps
	// census.DefaultTolerance. Per-node engines ignore it.
	CensusTol float64
}

// DefaultParams returns the documented default constants for a given
// ε. The paper requires φ > β > s; the defaults use (s, β, φ) =
// (1, 2, 4), (c, c′) = (5, 2) and two extra Stage-2 phases — the
// smallest values at which the Stage-2 amplification robustly exceeds
// the doubling-per-phase that Lemma 12's schedule needs, across
// k ≤ 16 at laptop-scale n.
func DefaultParams(eps float64) Params {
	return Params{
		Epsilon:           eps,
		S:                 1,
		Beta:              2,
		Phi:               4,
		C:                 5,
		CPrime:            2,
		Stage2ExtraPhases: 2,
	}
}

// Validate checks the constants against the constraints of
// Section 3.1.
func (p Params) Validate() error {
	if !(0 < p.Epsilon && p.Epsilon <= 1) {
		return fmt.Errorf("core: ε must be in (0,1], got %v", p.Epsilon)
	}
	if !(0 < p.S) {
		return fmt.Errorf("core: s must be positive, got %v", p.S)
	}
	if !(p.Phi > p.Beta && p.Beta > p.S) {
		return fmt.Errorf("core: need φ > β > s, got φ=%v β=%v s=%v", p.Phi, p.Beta, p.S)
	}
	if !(0 < p.C && 0 < p.CPrime) {
		return fmt.Errorf("core: need c, c′ > 0, got c=%v c′=%v", p.C, p.CPrime)
	}
	if p.Stage2ExtraPhases < 0 {
		return fmt.Errorf("core: Stage2ExtraPhases must be ≥ 0, got %d", p.Stage2ExtraPhases)
	}
	if _, err := model.BackendByName(p.Backend); err != nil {
		return err
	}
	if p.Threads < 0 {
		return fmt.Errorf("core: Threads must be ≥ 0, got %d", p.Threads)
	}
	if math.IsNaN(p.LawQuant) || p.LawQuant < 0 || p.LawQuant >= 1 ||
		(p.LawQuant > 0 && p.LawQuant < census.MinLawQuant) {
		return fmt.Errorf("core: LawQuant must be 0 (exact) or in [%g, 1), got %v",
			census.MinLawQuant, p.LawQuant)
	}
	if math.IsNaN(p.CensusTol) || p.CensusTol < 0 || p.CensusTol >= 1 {
		return fmt.Errorf("core: CensusTol must be 0 (default) or in (0, 1), got %v", p.CensusTol)
	}
	return nil
}

// oddCeil rounds x up to the nearest odd integer ≥ 1. The paper
// assumes odd sample sizes for Proposition 1; Appendix C (Lemma 17)
// shows even ℓ never helps, so the implementation simply keeps ℓ odd.
func oddCeil(x float64) int {
	v := int(math.Ceil(x))
	if v < 1 {
		v = 1
	}
	if v%2 == 0 {
		v++
	}
	return v
}

package main

import (
	"fmt"
	"math"
	"time"

	"github.com/gossipkit/noisyrumor/internal/census"
	"github.com/gossipkit/noisyrumor/internal/core"
	"github.com/gossipkit/noisyrumor/internal/rng"
	"github.com/gossipkit/noisyrumor/internal/sweep"
)

// The replay re-drives a sweep workload through the public functions
// of the layers below the sweep: one point at a time, each trial on
// the sweep's own stream rng.ForkSeed(ForkSeed(seed, point), trial),
// each trial through core.NewSchedule and a reused census.Engine
// phase by phase, exactly as sweep.Runner and core.CensusRunner
// compose them. Its per-point results must be bit-identical to the
// RunGrid run: that checks the determinism contract and shows the
// traced replay measured the same work.

// replayPoint is one replayed point: the fields RunGrid aggregates,
// accumulated in the same trial order.
type replayPoint struct {
	Trials      int
	Successes   int
	MeanRounds  float64
	ErrorBudget float64
	QuantBudget float64
	// OverBudget counts trials whose own error budget is ≥ 1.
	OverBudget int
	// MaxTrialBudget is the largest single-trial error budget.
	MaxTrialBudget float64
	// Rounds is the scheduled rounds summed over the trials.
	Rounds int64
}

// pointSpan is the trace of one replayed point: its span, its trial
// spans (durations) and the phase spans of its trials folded into
// per-stage call counts and busy time. Times are ns since the start of
// the traced replay.
type pointSpan struct {
	Index       int       `json:"point"`
	Start       int64     `json:"start_ns"`
	End         int64     `json:"end_ns"`
	TrialNS     []float64 `json:"-"`
	TrialsNS    int64     `json:"trials_ns"`
	ScheduleNS  int64     `json:"schedule_ns"`
	Stage1Calls int64     `json:"stage1_calls"`
	Stage1NS    int64     `json:"stage1_ns"`
	Stage2Calls int64     `json:"stage2_calls"`
	Stage2NS    int64     `json:"stage2_ns"`
}

// replayResult is a whole replay.
type replayResult struct {
	Points []replayPoint
	// Wall is the replay's wall time: for a traced pair, the sum of one
	// side's point spans.
	Wall time.Duration
	// Traced replays only.
	Spans        []pointSpan
	Hits, Misses int64
}

// replayer holds one side's state: a cold law cache and the engine
// that is reused across its trials, as a sweep worker reuses its own.
type replayer struct {
	cache *census.LawCache
	eng   *census.Engine
	out   *replayResult
}

func newReplayer(p *prepared) *replayer {
	return &replayer{cache: census.NewLawCache(), out: &replayResult{Points: make([]replayPoint, len(p.points))}}
}

func (r *replayer) done() *replayResult {
	r.out.Hits, r.out.Misses = r.cache.Stats()
	return r.out
}

// replay re-drives every point of p under the runner seed, serially
// and untraced, on one engine and one cold law cache.
func replay(p *prepared, seed uint64) (*replayResult, error) {
	r := newReplayer(p)
	start := time.Now()
	for i := range p.points {
		var err error
		if r.out.Points[i], err = replayOne(&p.points[i], seed, r.cache, &r.eng, nil, start); err != nil {
			return nil, fmt.Errorf("replay point %d: %w", p.points[i].Index, err)
		}
	}
	r.out.Wall = time.Since(start)
	return r.done(), nil
}

// replayPair replays every point of p serially twice in turn, untraced
// and then traced with spans, each side on its own engine and cold
// cache. Interleaving the two sides point by point lets host speed
// drift affect both alike, so their wall times give the tracing
// overhead.
func replayPair(p *prepared, seed uint64) (plain, traced *replayResult, err error) {
	a, b := newReplayer(p), newReplayer(p)
	b.out.Spans = make([]pointSpan, len(p.points))
	start := time.Now()
	for i := range p.points {
		pt := &p.points[i]
		t := time.Now()
		if a.out.Points[i], err = replayOne(pt, seed, a.cache, &a.eng, nil, start); err != nil {
			return nil, nil, fmt.Errorf("replay point %d: %w", pt.Index, err)
		}
		a.out.Wall += time.Since(t)
		if b.out.Points[i], err = replayOne(pt, seed, b.cache, &b.eng, &b.out.Spans[i], start); err != nil {
			return nil, nil, fmt.Errorf("traced replay point %d: %w", pt.Index, err)
		}
		sp := b.out.Spans[i]
		b.out.Wall += time.Duration(sp.End - sp.Start)
	}
	return a.done(), b.done(), nil
}

// replayOne replays one point on the engine *eng (created on first
// use, then Reset per trial). A non-nil sp receives the point's spans,
// timed against t0.
func replayOne(pt *preparedPoint, seed uint64, cache *census.LawCache, eng **census.Engine, sp *pointSpan, t0 time.Time) (replayPoint, error) {
	since := func() int64 { return int64(time.Since(t0)) }
	if sp != nil {
		sp.Index = pt.Index
		sp.Start = since()
		sp.TrialNS = make([]float64, 0, pt.Trials)
	}
	tol := census.DefaultTolerance
	if pt.Params.CensusTol > 0 {
		tol = pt.Params.CensusTol
	}
	res := replayPoint{Trials: pt.Trials}
	sumRounds := 0.0
	pointSeed := rng.ForkSeed(seed, uint64(pt.Index))
	for t := 0; t < pt.Trials; t++ {
		// One clock read per span boundary: a phase's span ends where
		// the next one starts.
		var last int64
		lap := func() int64 {
			now := since()
			d := now - last
			last = now
			return d
		}
		if sp != nil {
			lap()
		}
		ts := last
		r := rng.New(rng.ForkSeed(pointSeed, uint64(t)))
		sched, err := core.NewSchedule(pt.N, pt.Params)
		if err != nil {
			return res, err
		}
		if sp != nil {
			sp.ScheduleNS += lap()
		}
		if *eng == nil {
			e, err := census.New(pt.N, pt.nm, r)
			if err != nil {
				return res, err
			}
			e.SetCache(cache)
			if err := e.Init(pt.counts); err != nil {
				return res, err
			}
			*eng = e
		} else if err := (*eng).Reset(pt.N, pt.nm, r, pt.counts); err != nil {
			return res, err
		}
		e := *eng
		if err := e.SetTolerance(tol); err != nil {
			return res, err
		}
		if err := e.SetLawQuant(pt.Params.LawQuant); err != nil {
			return res, err
		}
		if sp != nil {
			lap()
		}
		first, done := -1, 0
		for _, rounds := range sched.Stage1 {
			if err := e.Stage1Phase(rounds); err != nil {
				return res, err
			}
			if sp != nil {
				sp.Stage1NS += lap()
				sp.Stage1Calls++
			}
			done += rounds
			if first < 0 && e.Consensus(0) {
				first = done
			}
		}
		for _, ph := range sched.Stage2 {
			if err := e.Stage2Phase(ph.Rounds, ph.SampleSize); err != nil {
				return res, err
			}
			if sp != nil {
				sp.Stage2NS += lap()
				sp.Stage2Calls++
			}
			done += ph.Rounds
			if first < 0 && e.Consensus(0) {
				first = done
			}
		}
		rounds := done
		if first >= 0 {
			rounds = first
		}
		if e.Consensus(0) {
			res.Successes++
		}
		sumRounds += float64(rounds)
		b := e.ErrorBudget()
		res.ErrorBudget += b
		res.QuantBudget += e.QuantBudget()
		res.MaxTrialBudget = math.Max(res.MaxTrialBudget, b)
		if b >= 1 {
			res.OverBudget++
		}
		res.Rounds += int64(done)
		if sp != nil {
			d := since() - ts
			sp.TrialsNS += d
			sp.TrialNS = append(sp.TrialNS, float64(d))
		}
	}
	res.MeanRounds = sumRounds / float64(res.Trials)
	if sp != nil {
		sp.End = since()
	}
	return res, nil
}

// matches reports whether a replayed point equals the RunGrid result
// bit for bit in every field RunGrid derives from its trials.
func (rp replayPoint) matches(pr sweep.PointResult) bool {
	return pr.Error == nil &&
		rp.Trials == pr.Trials &&
		rp.Successes == pr.Successes &&
		math.Float64bits(rp.MeanRounds) == math.Float64bits(pr.MeanRounds) &&
		math.Float64bits(rp.ErrorBudget) == math.Float64bits(pr.ErrorBudget) &&
		math.Float64bits(rp.QuantBudget) == math.Float64bits(pr.QuantBudget)
}

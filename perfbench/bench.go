package main

import (
	"fmt"
	"math"
	"runtime/debug"
	"time"

	"github.com/gossipkit/noisyrumor"
	"github.com/gossipkit/noisyrumor/internal/census"
	"github.com/gossipkit/noisyrumor/internal/rng"
	"github.com/gossipkit/noisyrumor/internal/sweep"
)

// result is one benchmark run: the operations it attempted and the
// ones that failed, with the first few reasons, and its metrics.
type result struct {
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Failures  []string           `json:"failures,omitempty"`
	Metrics   map[string]float64 `json:"metrics"`
	// Raw end-to-end figures behind the reported forms: the error
	// budget per trial and the failed fraction (see endToEnd).
	ErrorBudgetPerTrial float64   `json:"error_budget_per_trial"`
	FailedFrac          float64   `json:"failed_frac"`
	Setups              []float64 `json:"setup_seconds,omitempty"`
	Passes              []float64 `json:"pass_seconds"`
	// FirstPass is the first sweep pass's per-point outcome, which the
	// replay checks against.
	FirstPass []firstPoint `json:"first_pass,omitempty"`
	Spans     []pointSpan  `json:"spans,omitempty"`
}

// workloadSeed derives the seed a workload's inputs are made from:
// the sweep runner's seed, or the per-node runs' base seed.
func workloadSeed(seed uint64) uint64 { return rng.ForkSeed(seed, 0) }

// firstPoint is a point of the first sweep pass with its LP verdict.
type firstPoint struct {
	sweep.PointResult
	Certified bool `json:"certified"`
}

// maxFailureNotes bounds how many failure reasons a result keeps.
const maxFailureNotes = 8

// check counts one operation and, when ok is false, one failure.
func (r *result) check(ok bool, format string, args ...any) {
	r.Attempted++
	if ok {
		return
	}
	r.Failed++
	if len(r.Failures) < maxFailureNotes {
		r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
	}
}

// options are the run settings that come from the command line.
type options struct {
	seconds float64
	trace   bool
	// setup measures one set-up of the workload: from a process start
	// until its first trial is issued.
	setup func() (time.Duration, error)
}

// Set-ups are measured between passes, so their median spans the
// run's whole measured window rather than one moment of the host:
// setupsPerPass before each pass, and at least minSetups in all.
const (
	setupsPerPass = 4
	minSetups     = 40
)

// runWorkload runs one workload for opt.seconds and checks its
// outputs. Untraced, it reports the end-to-end metrics; traced, the
// per-layer ones.
func runWorkload(w workload, seed uint64, opt options) (*result, error) {
	res := &result{Metrics: map[string]float64{}}
	p, err := prepare(w, workloadSeed(seed))
	if err != nil {
		return nil, err
	}
	m := &meter{opt: opt, res: res, start: time.Now(), cpu: cpuTime()}
	if w.grid != nil {
		err = runSweep(p, m)
	} else {
		err = runPernode(p, m)
	}
	if err != nil {
		return nil, err
	}
	res.FailedFrac = float64(res.Failed) / float64(res.Attempted)
	if !opt.trace {
		for len(res.Setups) < minSetups {
			if err := m.probe(); err != nil {
				return nil, err
			}
		}
		res.Metrics["setup_s"] = median(res.Setups)
		res.Metrics["ok_frac"] = 1 - res.FailedFrac
		res.Metrics["error_budget_digits"] = budgetDigits(res.ErrorBudgetPerTrial)
	}
	return res, nil
}

// budgetFloor is the smallest error budget per trial that
// error_budget_digits tells apart; the exact per-node engine's budget,
// 0, reads as this floor.
const budgetFloor = 1e-18

// budgetDigits is −log10 of an error budget per trial, floored at
// budgetFloor.
func budgetDigits(b float64) float64 { return -math.Log10(math.Max(b, budgetFloor)) }

// meter times a run's passes until opt.seconds have passed: their wall
// time, the heap they allocate and, untraced, the set-ups between them.
type meter struct {
	opt     options
	res     *result
	start   time.Time
	cpu     time.Duration
	alloc   uint64
	trials  int
	perPass []float64
}

// more reports whether another pass should start.
func (m *meter) more() bool {
	return len(m.perPass) == 0 || time.Since(m.start).Seconds() < m.opt.seconds
}

// probe measures one set-up.
func (m *meter) probe() error {
	d, err := m.opt.setup()
	if err != nil {
		return fmt.Errorf("set-up: %w", err)
	}
	m.res.Setups = append(m.res.Setups, d.Seconds())
	return nil
}

// pass runs and times fn, a pass of the given number of trials. Its
// error is fn's, or a failed set-up probe's.
func (m *meter) pass(trials int, fn func() error) (time.Duration, error) {
	if !m.opt.trace {
		for i := 0; i < setupsPerPass; i++ {
			if err := m.probe(); err != nil {
				return 0, err
			}
		}
	}
	// Each pass starts from a collected heap, as a fresh process would,
	// so garbage left by the last pass neither adds to this pass's peak
	// memory nor triggers collections inside its timing.
	debug.FreeOSMemory()
	a := totalAlloc()
	t := time.Now()
	err := fn()
	d := time.Since(t)
	m.alloc += totalAlloc() - a
	m.trials += trials
	m.perPass = append(m.perPass, float64(trials)/d.Seconds())
	m.res.Passes = append(m.res.Passes, d.Seconds())
	return d, err
}

// finish records the measured metrics: untraced, throughput,
// allocation and peak memory; traced, the CPU use of the workers.
func (m *meter) finish(workers int) {
	if m.opt.trace {
		wall := time.Since(m.start).Seconds()
		m.res.Metrics["sweep.cpu_util"] = (cpuTime() - m.cpu).Seconds() / (wall * float64(workers))
		return
	}
	m.res.Metrics["trials_per_s"] = median(m.perPass)
	m.res.Metrics["alloc_b_per_trial"] = float64(m.alloc) / float64(m.trials)
	m.res.Metrics["peak_rss_mb"] = peakRSSMB()
}

// runSweep runs a sweep workload: RunGrid passes until opt.seconds
// have passed, each from a cold law cache as a CLI sweep starts and
// each on its own runner seed, so a run's median pass averages over
// several seeds' trajectories; then the replay of the first pass,
// which must match it bit for bit.
func runSweep(p *prepared, m *meter) error {
	workers := nproc()
	var first *sweep.GridResult
	budget := 0.0
	for pass := 0; m.more(); pass++ {
		r := sweep.Runner{Seed: passSeed(p.seed, pass), Workers: workers, Cache: census.NewLawCache()}
		var g *sweep.GridResult
		_, err := m.pass(p.trialsPerPass(), func() (err error) {
			g, err = r.RunGrid(*p.w.grid)
			return err
		})
		if err != nil {
			return err
		}
		budget += g.ErrorBudget
		if first == nil {
			first = g
			for i, pr := range g.Points {
				m.res.FirstPass = append(m.res.FirstPass, firstPoint{pr, p.points[i].certified})
			}
		}
		checkPass(p, g, pass, m.res)
	}
	m.finish(workers)
	res := m.res
	res.ErrorBudgetPerTrial = budget / float64(m.trials)
	if !m.opt.trace {
		plain, err := replay(p, passSeed(p.seed, 0))
		if err != nil {
			return err
		}
		checkReplay(p, plain, first, "replay", res)
		return nil
	}
	plain, traced, err := replayPair(p, passSeed(p.seed, 0))
	if err != nil {
		return err
	}
	checkReplay(p, plain, first, "replay", res)
	checkReplay(p, traced, first, "traced replay", res)
	sweepLayers(traced, res)
	res.Metrics["trace.overhead_pct"] = 100 * (traced.Wall.Seconds()/plain.Wall.Seconds() - 1)
	censusLadder(p, res.Metrics)
	return nil
}

// passSeed is the sweep runner seed of a run's pass, forked from the
// workload seed.
func passSeed(seed uint64, pass int) uint64 { return rng.ForkSeed(seed, uint64(pass)) }

// checkPass checks one RunGrid pass, one operation per point: the
// point was not quarantined, and a point the LP certifies succeeds at
// least half the time (E21's containment rule).
func checkPass(p *prepared, g *sweep.GridResult, pass int, res *result) {
	if len(g.Points) != len(p.points) {
		res.check(false, "pass %d returned %d points, want %d", pass, len(g.Points), len(p.points))
		return
	}
	for i, pr := range g.Points {
		pt := p.points[i]
		switch {
		case pr.Error != nil:
			res.check(false, "pass %d point %d quarantined: %v", pass, pt.Index, pr.Error)
		case pt.certified && pr.SuccessRate < 0.5:
			res.check(false, "pass %d point %d certified m.p. but succeeded %.3f < 1/2", pass, pt.Index, pr.SuccessRate)
		default:
			res.check(true, "")
		}
	}
}

// checkReplay checks a replay, one operation per point: bit-identity
// with the RunGrid run, and every trial's error budget below 1.
func checkReplay(p *prepared, rr *replayResult, ref *sweep.GridResult, what string, res *result) {
	for i, rp := range rr.Points {
		idx := p.points[i].Index
		switch {
		case i >= len(ref.Points) || !rp.matches(ref.Points[i]):
			res.check(false, "%s point %d differs from the RunGrid run", what, idx)
		case rp.OverBudget > 0:
			res.check(false, "%s point %d: %d trials with error budget ≥ 1 (max %g)", what, idx, rp.OverBudget, rp.MaxTrialBudget)
		default:
			res.check(true, "")
		}
	}
}

// sweepLayers derives the sweep, core and census layer metrics from a
// traced replay.
func sweepLayers(tr *replayResult, res *result) {
	var pointS, trialS []float64
	var sched, s1, s2, s1n, s2n int64
	var rounds int64
	qb := 0.0
	trials := 0
	for i, sp := range tr.Spans {
		pointS = append(pointS, float64(sp.End-sp.Start)/1e9)
		for _, d := range sp.TrialNS {
			trialS = append(trialS, d/1e9)
		}
		sched += sp.ScheduleNS
		s1 += sp.Stage1NS
		s2 += sp.Stage2NS
		s1n += sp.Stage1Calls
		s2n += sp.Stage2Calls
		rounds += tr.Points[i].Rounds
		qb += tr.Points[i].QuantBudget
		trials += tr.Points[i].Trials
	}
	res.Spans = tr.Spans
	putTiming(res, "sweep.point_s", pointS)
	putTiming(res, "core.trial_s", trialS)
	m := res.Metrics
	m["core.schedule_s"] = float64(sched) / 1e9 / float64(trials)
	m["core.rounds_per_trial"] = float64(rounds) / float64(trials)
	m["census.stage1.calls"] = float64(s1n)
	m["census.stage1_s"] = float64(s1) / 1e9
	m["census.stage2.calls"] = float64(s2n)
	m["census.stage2_s"] = float64(s2) / 1e9
	m["census.lawcache.hits"] = float64(tr.Hits)
	m["census.lawcache.misses"] = float64(tr.Misses)
	if t := tr.Hits + tr.Misses; t > 0 {
		m["census.lawcache.hit_rate"] = float64(tr.Hits) / float64(t)
	}
	m["census.quant_budget_per_trial"] = qb / float64(trials)
}

// putTiming reports a timing's median and tail, with the tail's
// percentile and sample count.
func putTiming(res *result, name string, xs []float64) {
	t := tailOf(xs)
	res.Metrics[name+".p50"] = median(xs)
	res.Metrics[name+".tail"] = t.Value
	res.Metrics[name+".tail_pct"] = t.Pct
	res.Metrics[name+".samples"] = float64(t.Samples)
}

// runPernode runs the per-node workload: facade plurality-consensus
// runs until opt.seconds have passed, each on its own seed, each
// checked to end in all-correct consensus. Traced, the runs' wall times
// give the trial timings and the ladder follows. A facade run takes no
// tracer, so nothing is traced inside it and trace.overhead_pct reads 0.
func runPernode(p *prepared, m *meter) error {
	s := p.w.pernode
	res := m.res
	var trialS, rounds []float64
	for rep := 0; m.more(); rep++ {
		cfg := noisyrumor.Config{N: s.N, Noise: p.nm, Params: p.params, Seed: rng.ForkSeed(p.seed, uint64(rep))}
		var out noisyrumor.Result
		var runErr error
		d, err := m.pass(1, func() error {
			out, runErr = noisyrumor.PluralityConsensus(cfg, p.counts)
			return nil
		})
		if err != nil {
			return err
		}
		res.check(runErr == nil && out.Consensus && out.Correct && out.Winner == 0,
			"run %d (seed %d): err=%v consensus=%v correct=%v", rep, cfg.Seed, runErr, out.Consensus, out.Correct)
		trialS = append(trialS, d.Seconds())
		rounds = append(rounds, float64(out.Rounds))
	}
	m.finish(p.params.Threads)
	if !m.opt.trace {
		return nil
	}
	putTiming(res, "core.trial_s", trialS)
	res.Metrics["core.rounds_per_trial"] = median(rounds)
	res.Metrics["trace.overhead_pct"] = 0
	return modelLadder(p, res.Metrics)
}

package main

import (
	"time"

	"github.com/gossipkit/noisyrumor/internal/census"
	"github.com/gossipkit/noisyrumor/internal/core"
	"github.com/gossipkit/noisyrumor/internal/dist"
	"github.com/gossipkit/noisyrumor/internal/model"
	"github.com/gossipkit/noisyrumor/internal/rng"
)

// The ladder times single calls into the inner kernels of a
// workload's path, at the arguments the workload itself produces: the
// sample size ℓ and phase length of its own core.NewSchedule, its
// populations, and the pool compositions its channels and initial
// censuses give. Kernels off the workload's path are not timed.

// ladderRounds is how many timed batches a kernel gets; the median
// batch is reported.
const ladderRounds = 5

// ladderBatch is the least wall time of one timed batch.
var ladderBatch = 20 * time.Millisecond

// nsPerCall times fn over growing batches of at least minCalls calls
// and returns the median batch's ns per call. fn(i) varies its
// arguments with i, cycling through minCalls argument sets, so every
// batch times all of them.
func nsPerCall(minCalls int, fn func(i int)) float64 {
	calls := minCalls
	for {
		t := time.Now()
		for i := 0; i < calls; i++ {
			fn(i)
		}
		if time.Since(t) >= ladderBatch/4 || calls >= 1<<30 {
			break
		}
		calls *= 4
	}
	per := make([]float64, ladderRounds)
	for b := range per {
		t := time.Now()
		for i := 0; i < calls; i++ {
			fn(b*calls + i)
		}
		per[b] = float64(time.Since(t)) / float64(calls)
	}
	return median(per)
}

// sink keeps kernel results live so the compiler cannot drop calls.
var sink float64

// censusLadder times the census-path kernels of a sweep workload.
func censusLadder(p *prepared, m map[string]float64) {
	// Every point of a workload shares ℓ and the regular Stage-2 phase
	// length: the protocol ε is pinned across the grid.
	ph := p.points[0].sched.Stage2[0]
	ell, rounds := ph.SampleSize, ph.Rounds
	k := p.points[0].K

	// Pool compositions at each point's start: the initial census
	// pushed through its channel.
	qs := make([][]float64, len(p.points))
	laws := make([][]float64, len(p.points))
	for i, pt := range p.points {
		c := make([]float64, k)
		for j, v := range pt.counts {
			c[j] = float64(v)
		}
		q := pt.nm.Apply(c, nil)
		s := 0.0
		for _, v := range q {
			s += v
		}
		for j := range q {
			q[j] /= s
		}
		qs[i] = q
		laws[i], _ = census.MajorityLaw(q, ell, census.DefaultTolerance)
	}
	pick := func(i int) int { return i % len(p.points) }

	law := func(i int) {
		r, _ := census.MajorityLaw(qs[pick(i)], ell, census.DefaultTolerance)
		sink += r[0]
	}
	if k == 2 {
		m["census.majority_law_ns.k2"] = nsPerCall(len(p.points), law)
	} else {
		m["census.majority_law_ns.k3"] = nsPerCall(len(p.points), law)
	}
	m["dist.binomial_pmf_ns"] = nsPerCall(len(p.points)*(ell+1), func(i int) {
		sink += dist.BinomialPMF(ell, i%(ell+1), qs[pick(i/(ell+1))][0])
	})
	pUp := dist.PoissonSurvival(float64(rounds), int64(ell))
	m["dist.poisson_survival_ns"] = nsPerCall(64, func(i int) {
		// The pool rate Λ of a fully opinionated population is the
		// phase length; vary it across the Stage-1/Stage-2 transition.
		lam := float64(rounds) * (0.5 + float64(i%64)/64)
		sink += dist.PoissonSurvival(lam, int64(ell))
	})

	r := rng.New(p.seed)
	sent := make([][]int64, len(p.points))
	for i, pt := range p.points {
		sent[i] = make([]int64, k)
		for j, c := range pt.counts {
			sent[i][j] = c * int64(rounds)
		}
	}
	recv, scratch := make([]int64, k), make([]int64, k)
	m["noise.split_counts64_ns"] = nsPerCall(len(p.points), func(i int) {
		j := pick(i)
		p.points[j].nm.SplitCounts64(r, sent[j], recv, scratch)
	})

	// The Stage-2 per-class transition law and its multinomial draw.
	probs := make([][]float64, len(p.points))
	for i := range p.points {
		probs[i] = make([]float64, k)
		for j := range probs[i] {
			probs[i][j] = pUp * laws[i][j]
		}
		probs[i][0] += 1 - pUp
	}
	trans := make([]int64, k)
	m["dist.sample_multinomial64_ns"] = nsPerCall(len(p.points), func(i int) {
		j := pick(i)
		dist.SampleMultinomial64(r, p.points[j].counts[0], probs[j], trans)
	})
	m["dist.sample_binomial64_ns"] = nsPerCall(len(p.points), func(i int) {
		j := pick(i)
		sink += float64(dist.SampleBinomial64(r, p.points[j].counts[0], probs[j][0]))
	})
}

// modelLadder times the per-node path's kernels for the per-node
// workload: one regular Stage-2 phase of the model engine on the batch
// and parallel backends, the backends' binomial draw, Stage-2's
// hypergeometric subsample draw and the schedule.
func modelLadder(p *prepared, m map[string]float64) error {
	s := p.w.pernode
	n := int(s.N)
	ph := p.sched.Stage2[0]
	ops := make([]model.Opinion, 0, n)
	for j, c := range p.counts {
		for u := 0; u < c; u++ {
			ops = append(ops, model.Opinion(j))
		}
	}
	phaseNS := func(b model.Backend) (float64, error) {
		e, err := model.NewEngineWithBackend(n, p.nm, model.ProcessO, rng.New(p.seed), b)
		if err != nil {
			return 0, err
		}
		per := make([]float64, 3)
		for i := range per {
			t := time.Now()
			if _, err := e.RunPhase(ops, ph.Rounds); err != nil {
				return 0, err
			}
			per[i] = float64(time.Since(t)) / float64(n)
		}
		return median(per), nil
	}
	batch, err := phaseNS(model.BatchBackend{})
	if err != nil {
		return err
	}
	par, err := phaseNS(model.ParallelBackend{Threads: p.params.Threads})
	if err != nil {
		return err
	}
	m["model.run_phase_ns_per_node.batch"] = batch
	m["model.run_phase_ns_per_node.parallel"] = par
	m["model.parallel_speedup"] = batch / par

	r := rng.New(p.seed)
	// scatterDense's draws: the balls still to place over the bins
	// still open, at the phase's per-color message volume.
	g := int64(float64(s.N) * s.Shares[0] * float64(ph.Rounds))
	const bins = 1000
	m["dist.sample_binomial64_ns"] = nsPerCall(bins, func(i int) {
		left := int64(n - i%bins*(n/bins))
		sink += float64(dist.SampleBinomial64(r, g*left/int64(n), 1/float64(left)))
	})
	// A node receives about Rounds messages and keeps a SampleSize
	// subsample; the first category's hypergeometric draw.
	m["dist.sample_hypergeometric_ns"] = nsPerCall(ph.Rounds/4+1, func(i int) {
		total := ph.Rounds - ph.Rounds/8 + i%(ph.Rounds/4+1)
		marked := int(float64(total) * s.Shares[0])
		sink += float64(dist.SampleHypergeometric(r, total, marked, ph.SampleSize))
	})
	m["core.schedule_s"] = nsPerCall(1, func(int) {
		sched, _ := core.NewSchedule(s.N, p.params)
		sink += float64(len(sched.Stage1))
	}) / 1e9
	return nil
}

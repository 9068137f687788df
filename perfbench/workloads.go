package main

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"

	"github.com/gossipkit/noisyrumor/internal/census"
	"github.com/gossipkit/noisyrumor/internal/core"
	"github.com/gossipkit/noisyrumor/internal/noise"
	"github.com/gossipkit/noisyrumor/internal/resilience"
	"github.com/gossipkit/noisyrumor/internal/sweep"
)

// workload is one set of inputs the benchmark runs: a sweep grid
// driven through sweep.Runner.RunGrid, or a per-node protocol run
// through the noisyrumor facade. Exactly one of grid and pernode is
// set.
type workload struct {
	name    string
	grid    *sweep.Grid
	pernode *pernodeSpec
}

// pernodeSpec is a per-node plurality-consensus run: uniform noise,
// a fixed initial split of the whole population, the parallel backend.
type pernodeSpec struct {
	K      int
	Eps    float64
	N      int64
	Shares []float64 // initial opinion shares, summing to 1
}

// The channel axis shared by the two k=2 sweeps: the binary (FHK)
// and uniform channels around the binary threshold ε* ≈ 0.2 at the
// pinned protocol ε of 0.4.
var k2Matrices = []string{"binary", "uniform"}
var k2Eps = []float64{0.1, 0.15, 0.18, 0.22, 0.26, 0.3}

// workloads lists the benchmark's workloads. Why each was chosen, and
// which layer metric it is meant to move, is in LAYERS.md and in the
// "why" lines of BENCHMARK.json.
var workloads = []workload{
	{
		// The exact binary law path: evalBinary → BinomialPMF/Lgamma
		// dominates; census sampling and the law cache are idle.
		name: "sweep-exact-k2",
		grid: &sweep.Grid{
			Matrices:   k2Matrices,
			Ks:         []int{2},
			ChannelEps: k2Eps,
			Deltas:     []float64{0.02, 0.05, 0.15},
			Ns:         []int64{100_000, 10_000_000},
			ProtoEps:   0.4,
			Trials:     300,
		},
	},
	{
		// The same law layer through the rival DP (k ≥ 3).
		name: "sweep-exact-k3",
		grid: &sweep.Grid{
			Matrices:   []string{"uniform", "cycle"},
			Ks:         []int{3},
			ChannelEps: []float64{0.05, 0.1, 0.2, 0.3},
			Deltas:     []float64{0.05, 0.15, 0.3},
			Ns:         []int64{100_000},
			ProtoEps:   0.2,
			Trials:     20,
		},
	},
	{
		// Quantized laws from a cold cache: the law evaluator idles and
		// the census phase samplers take the time.
		name: "sweep-quant-k2",
		grid: &sweep.Grid{
			Matrices:   k2Matrices,
			Ks:         []int{2},
			ChannelEps: k2Eps,
			Deltas:     []float64{0, 0.02, 0.05, 0.15},
			Ns:         []int64{1_000_000_000},
			ProtoEps:   0.4,
			Trials:     4000,
			LawQuant:   1e-3,
		},
	},
	{
		// The per-node engine: model scatter and core's Stage-2
		// subsampling; census and the law layer are untouched.
		name:    "pernode-k3",
		pernode: &pernodeSpec{K: 3, Eps: 0.3, N: 1_000_000, Shares: []float64{0.4, 0.3, 0.3}},
	},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// preparedPoint is one grid point with everything its trials and its
// output checks need, derived before the first trial is issued.
type preparedPoint struct {
	sweep.Point
	nm     *noise.Matrix
	counts []int64
	sched  core.Schedule
	// certified reports that the LP certifies the channel as
	// (ε_proto, δ)-majority-preserving, so the point must succeed with
	// probability at least ½ (rumor starts, δ = 0, are never certified).
	certified bool
}

// prepared is a workload made ready to run from its seed.
type prepared struct {
	w      workload
	seed   uint64 // the sweep runner seed or the per-node base seed
	points []preparedPoint
	// Per-node inputs.
	nm     *noise.Matrix
	counts []int
	params core.Params
	sched  core.Schedule
}

// prepare derives a workload's inputs from the seed: the grid's points
// with their channels, initial censuses, schedules and LP verdicts, or
// the per-node run's channel, initial counts and schedule. The replay,
// the output checks and the ladder draw on it; it is not part of the
// measured set-up (see untilFirstTrial).
func prepare(w workload, seed uint64) (*prepared, error) {
	p := &prepared{w: w, seed: seed}
	if w.grid == nil {
		nm, counts, params, err := pernodeInputs(w.pernode)
		if err != nil {
			return nil, err
		}
		sched, err := core.NewSchedule(w.pernode.N, params)
		if err != nil {
			return nil, err
		}
		p.nm, p.counts, p.params, p.sched = nm, counts, params, sched
		return p, nil
	}
	pts, err := w.grid.Points()
	if err != nil {
		return nil, err
	}
	for _, pt := range pts {
		nm, err := sweep.BuildMatrix(pt.Matrix, pt.K, pt.ChannelEps)
		if err != nil {
			return nil, err
		}
		counts, err := sweep.InitialCounts(pt.N, pt.K, pt.Delta)
		if err != nil {
			return nil, err
		}
		sched, err := core.NewSchedule(pt.N, pt.Params)
		if err != nil {
			return nil, err
		}
		pp := preparedPoint{Point: pt, nm: nm, counts: counts, sched: sched}
		if pt.Delta > 0 {
			v, err := nm.IsMajorityPreserving(0, pt.Params.Epsilon, pt.Delta)
			if err != nil {
				return nil, err
			}
			pp.certified = v.MP
		}
		p.points = append(p.points, pp)
	}
	return p, nil
}

// trialsPerPass is the number of protocol runs one pass over a sweep
// workload issues.
func (p *prepared) trialsPerPass() int {
	n := 0
	for _, pt := range p.points {
		n += pt.Trials
	}
	return n
}

// pernodeInputs builds a per-node run's channel, initial counts and
// parameters.
func pernodeInputs(s *pernodeSpec) (*noise.Matrix, []int, core.Params, error) {
	nm, err := noise.Uniform(s.K, s.Eps)
	if err != nil {
		return nil, nil, core.Params{}, err
	}
	counts := make([]int, s.K)
	rest := int(s.N)
	for i := 1; i < s.K; i++ {
		counts[i] = int(s.Shares[i] * float64(s.N))
		rest -= counts[i]
	}
	counts[0] = rest
	params := core.DefaultParams(s.Eps)
	params.Backend = "parallel"
	params.Threads = nproc()
	return nm, counts, params, nil
}

// errIssued stops a sweep once its first trial has been issued.
var errIssued = errors.New("first trial issued")

// firstTrial is a fault injector used as a probe: it calls ready when
// RunGrid issues its first trial, whose site it sees first, and then
// fails every trial so the grid stops.
type firstTrial struct {
	once  sync.Once
	ready func()
	fired atomic.Bool
}

func (f *firstTrial) Fire(site string) error {
	if !strings.HasPrefix(site, "trial/") {
		return nil
	}
	f.once.Do(func() {
		f.ready()
		f.fired.Store(true)
	})
	return resilience.Permanent(errIssued)
}

// untilFirstTrial does the set-up a run of w does and calls ready when
// its first trial is issued. For a sweep that is RunGrid's own work
// before its first trial (points, checkpoint, trial runners), seen
// through the runner's fault-injection seam, which every trial passes
// first; the rest of the grid is then abandoned. For the per-node
// workload it is building the facade's inputs: a trial is one facade
// call.
func untilFirstTrial(w workload, seed uint64, ready func()) error {
	if w.grid == nil {
		if _, _, _, err := pernodeInputs(w.pernode); err != nil {
			return err
		}
		ready()
		return nil
	}
	f := &firstTrial{ready: ready}
	r := sweep.Runner{Seed: passSeed(seed, 0), Workers: nproc(), Cache: census.NewLawCache(), Inject: f, BreakAfter: 1}
	_, err := r.RunGrid(*w.grid)
	if f.fired.Load() {
		return nil
	}
	if err == nil {
		err = errors.New("the grid issued no trial")
	}
	return err
}

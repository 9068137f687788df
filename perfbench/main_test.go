package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"strings"
	"testing"
	"time"

	"github.com/gossipkit/noisyrumor/internal/census"
	"github.com/gossipkit/noisyrumor/internal/sweep"
)

// tiny shrinks a workload to a size that runs in well under a second
// while keeping its kind, its k, its channels and its quantization.
func tiny(w workload) workload {
	if w.grid != nil {
		g := *w.grid
		g.ChannelEps = g.ChannelEps[len(g.ChannelEps)-2:]
		g.Deltas = g.Deltas[len(g.Deltas)-2:]
		g.Ns = []int64{20_000}
		g.Trials = 4
		w.grid = &g
		return w
	}
	s := *w.pernode
	s.N = 20_000
	w.pernode = &s
	return w
}

// tinyOptions times set-up in the test process itself, from the call
// until the first trial is issued.
func tinyOptions(w workload, trace bool) options {
	return options{seconds: 0.01, trace: trace, setup: func() (time.Duration, error) {
		t := time.Now()
		var d time.Duration
		err := untilFirstTrial(w, workloadSeed(7), func() { d = time.Since(t) })
		if err == nil && d <= 0 {
			err = errors.New("no first trial")
		}
		return d, err
	}}
}

// onPath lists, per workload kind, the per-layer metrics that must be
// positive: the layers on that kind's path. The others may read 0
// (quantization and the law cache on exact sweeps, for instance).
var onPath = map[string][]string{
	"sweep": {
		"sweep.cpu_util", "sweep.point_s.p50", "sweep.point_s.tail", "sweep.point_s.tail_pct", "sweep.point_s.samples",
		"core.trial_s.p50", "core.trial_s.tail", "core.trial_s.tail_pct", "core.trial_s.samples",
		"core.schedule_s", "core.rounds_per_trial",
		"census.stage1.calls", "census.stage1_s", "census.stage2.calls", "census.stage2_s",
		"noise.split_counts64_ns", "dist.binomial_pmf_ns", "dist.poisson_survival_ns",
		"dist.sample_multinomial64_ns", "dist.sample_binomial64_ns",
	},
	"quant": {
		"census.lawcache.hits", "census.lawcache.misses", "census.lawcache.hit_rate", "census.quant_budget_per_trial",
	},
	"pernode": {
		"sweep.cpu_util", "core.trial_s.p50", "core.trial_s.tail", "core.trial_s.tail_pct", "core.trial_s.samples",
		"core.schedule_s", "core.rounds_per_trial",
		"dist.sample_binomial64_ns", "dist.sample_hypergeometric_ns",
		"model.run_phase_ns_per_node.batch", "model.run_phase_ns_per_node.parallel", "model.parallel_speedup",
	},
}

// TestWorkloadsTiny runs every workload at a tiny size, untraced and
// traced, and checks that the output checks pass and that every metric
// is printed with its unit, positive where its layer is on the path.
func TestWorkloadsTiny(t *testing.T) {
	ladderBatch = time.Millisecond
	for _, w := range workloads {
		w := tiny(w)
		t.Run(w.name, func(t *testing.T) {
			for _, trace := range []bool{false, true} {
				res, err := runWorkload(w, 7, tinyOptions(w, trace))
				if err != nil {
					t.Fatalf("trace=%v: %v", trace, err)
				}
				if res.Failed != 0 || res.Attempted == 0 {
					t.Fatalf("trace=%v: %d of %d operations failed: %v", trace, res.Failed, res.Attempted, res.Failures)
				}
				var buf bytes.Buffer
				prov := newProvenance(w, 7, 1, trace)
				if err := report(t.TempDir(), prov, res, trace, &buf); err != nil {
					t.Fatal(err)
				}
				lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
				var l line
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &l); err != nil {
					t.Fatalf("last line %q: %v", lines[len(lines)-1], err)
				}
				if !l.Correct || l.Attempted != res.Attempted {
					t.Errorf("trace=%v: result line %+v", trace, l)
				}
				defs, positive := endToEnd, map[string]bool{}
				for _, d := range endToEnd {
					positive[d.Name] = true
				}
				if trace {
					defs, positive = perLayer, map[string]bool{}
					kinds := []string{"pernode"}
					if w.grid != nil {
						kinds = []string{"sweep"}
						if w.grid.LawQuant > 0 {
							kinds = append(kinds, "quant")
						}
					}
					for _, k := range kinds {
						for _, name := range onPath[k] {
							positive[name] = true
						}
					}
					if w.grid != nil {
						positive["census.majority_law_ns.k"+string(rune('0'+w.grid.Ks[0]))] = true
					}
				}
				if len(l.Metrics) != len(defs) {
					t.Errorf("trace=%v: %d metrics, want %d", trace, len(l.Metrics), len(defs))
				}
				for _, d := range defs {
					got, ok := l.Metrics[d.Name]
					if !ok || got.Unit != d.Unit {
						t.Errorf("trace=%v: metric %s = %+v, want unit %s", trace, d.Name, got, d.Unit)
					}
					if positive[d.Name] && !(got.Value > 0) {
						t.Errorf("trace=%v: metric %s = %v, want > 0", trace, d.Name, got.Value)
					}
				}
				if prov.Workload != w.name || prov.GoVersion == "" || prov.Nproc < 1 || prov.Commit == "" {
					t.Errorf("provenance %+v", prov)
				}
			}
		})
	}
}

// TestChecksCatchFailures feeds the output checks results that break
// each rule and expects one failure per broken point.
func TestChecksCatchFailures(t *testing.T) {
	w := tiny(workloads[0])
	p, err := prepare(w, workloadSeed(7))
	if err != nil {
		t.Fatal(err)
	}
	g, err := sweep.Runner{Seed: passSeed(p.seed, 0), Workers: 2}.RunGrid(*w.grid)
	if err != nil {
		t.Fatal(err)
	}
	rr, err := replay(p, passSeed(p.seed, 0))
	if err != nil {
		t.Fatal(err)
	}
	var ok result
	checkPass(p, g, 0, &ok)
	checkReplay(p, rr, g, "replay", &ok)
	if ok.Failed != 0 {
		t.Fatalf("unbroken run failed: %v", ok.Failures)
	}

	cert := -1
	for i, pt := range p.points {
		if pt.certified {
			cert = i
			break
		}
	}
	if cert < 0 {
		t.Fatal("tiny grid has no certified point")
	}
	bad := *g
	bad.Points = append([]sweep.PointResult(nil), g.Points...)
	bad.Points[cert].SuccessRate = 0.25
	bad.Points[(cert+1)%len(bad.Points)].Error = &sweep.PointError{Msg: "injected"}
	var broken result
	checkPass(p, &bad, 0, &broken)
	if broken.Failed != 2 {
		t.Errorf("checkPass: %d failures, want 2: %v", broken.Failed, broken.Failures)
	}

	rr.Points[0].MeanRounds += 1e-9
	rr.Points[2].OverBudget = 1
	broken = result{}
	checkReplay(p, rr, g, "replay", &broken)
	if broken.Failed != 2 {
		t.Errorf("checkReplay: %d failures, want 2: %v", broken.Failed, broken.Failures)
	}
}

// benchmarkSpec is the part of BENCHMARK.json the self-test reads.
type benchmarkSpec struct {
	Workloads []struct{ Name, Why string }
	EndToEnd  []struct {
		metricDef
		Bound float64
	} `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func readSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestBudgetDigitsCatchesCoarserLaws raises the census truncation
// tolerance on an exact sweep and the law quantization step η on a
// quantized one, and expects error_budget_digits to get worse by more
// than its bound in BENCHMARK.json: a speed-up bought with coarser
// truncation or quantization must not pass.
func TestBudgetDigitsCatchesCoarserLaws(t *testing.T) {
	bound := -1.0
	for _, d := range readSpec(t).EndToEnd {
		if d.Name == "error_budget_digits" {
			bound = d.Bound
		}
	}
	if bound <= 0 {
		t.Fatal("error_budget_digits has no bound in BENCHMARK.json")
	}
	digits := func(g sweep.Grid) float64 {
		t.Helper()
		res, err := sweep.Runner{Seed: 7, Workers: 2}.RunGrid(g)
		if err != nil {
			t.Fatal(err)
		}
		trials := 0
		for _, pr := range res.Points {
			trials += pr.Trials
		}
		return budgetDigits(res.ErrorBudget / float64(trials))
	}
	for _, tc := range []struct {
		workload string
		coarser  func(*sweep.Grid)
	}{
		{"sweep-exact-k2", func(g *sweep.Grid) { g.CensusTol = 4 * census.DefaultTolerance }},
		{"sweep-exact-k3", func(g *sweep.Grid) { g.CensusTol = 4 * census.DefaultTolerance }},
		{"sweep-quant-k2", func(g *sweep.Grid) { g.LawQuant *= 2 }},
	} {
		w, err := workloadByName(tc.workload)
		if err != nil {
			t.Fatal(err)
		}
		g := *tiny(w).grid
		base := digits(g)
		tc.coarser(&g)
		got := digits(g)
		t.Logf("%s: error_budget_digits %.4f → %.4f", tc.workload, base, got)
		if worse := (base - got) / base; worse <= bound {
			t.Errorf("%s: error_budget_digits %.4f → %.4f, %.2f%% worse, within the %.2f%% bound",
				tc.workload, base, got, 100*worse, 100*bound)
		}
	}
}

// TestBenchmarkJSON holds BENCHMARK.json to the metric tables and the
// workload list.
func TestBenchmarkJSON(t *testing.T) {
	spec := readSpec(t)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d here", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name || w.Why == "" {
			t.Errorf("workload %d: %+v, want %s", i, w, workloads[i].name)
		}
	}
	same := func(what string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d here", what, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("%s %d: BENCHMARK.json has %+v, here %+v", what, i, got[i], want[i])
			}
		}
	}
	var e2e []metricDef
	for _, d := range spec.EndToEnd {
		e2e = append(e2e, d.metricDef)
	}
	same("end_to_end", e2e, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
}

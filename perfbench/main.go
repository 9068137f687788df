// Command perfbench is the repository's benchmark. It runs one
// workload — a sweep grid through sweep.Runner.RunGrid or a per-node
// run through the noisyrumor facade — for a given number of seconds,
// checks the outputs, and prints its metrics:
//
//	bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// run from the repository root. --trace 0 reports the end-to-end
// metrics, --trace 1 the per-layer ones from a traced replay and a
// kernel ladder. --workload all runs every workload, each in its own
// process, and prints every metric by name and unit. The last line of
// standard output is one JSON object:
//
//	{"correct": …, "attempted": …, "failed": …, "metrics": {name: {"value": …, "unit": …}}}
//
// Each run also writes a full report, with provenance, under
// .bench_build/perfbench/results/.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"time"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// line is the last line a run prints.
type line struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]valueUnit `json:"metrics"`
}

type valueUnit struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload name, or all")
	seed := fs.Uint64("seed", 1, "workload seed")
	seconds := fs.Float64("seconds", 10, "measured seconds per run")
	trace := fs.Int("trace", 0, "1 reports per-layer metrics from a traced run")
	// --setup-probe is the child mode of the set-up measurement: set up
	// the workload, print the wall clock at its first trial, exit.
	probe := fs.Bool("setup-probe", false, "internal: measure one set-up")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		return fmt.Errorf("usage: perfbench --workload <name|all> --seed <n> --seconds <s> --trace <0|1>")
	}
	if *name == "all" {
		return runAll(*seed, *seconds, *trace, stdout)
	}
	w, err := workloadByName(*name)
	if err != nil {
		return err
	}
	if *probe {
		var ready int64
		if err := untilFirstTrial(w, workloadSeed(*seed), func() { ready = time.Now().UnixNano() }); err != nil {
			return err
		}
		_, err := fmt.Fprintln(stdout, ready)
		return err
	}
	root, err := repoRoot()
	if err != nil {
		return err
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	opt := options{seconds: *seconds, trace: *trace == 1, setup: func() (time.Duration, error) {
		return probeSetup(exe, w.name, *seed)
	}}
	res, err := runWorkload(w, *seed, opt)
	if err != nil {
		return err
	}
	prov := newProvenance(w, *seed, *seconds, opt.trace)
	return report(root, prov, res, opt.trace, stdout)
}

// repoRoot locates the repository root: the working directory, which
// must hold the benchmark.
func repoRoot() (string, error) {
	if _, err := os.Stat(filepath.Join("perfbench", "go.mod")); err != nil {
		return "", fmt.Errorf("run from the repository root: %w", err)
	}
	return ".", nil
}

// probeSetup measures one set-up in a fresh process: from starting the
// process until the workload's first trial is issued — runtime and
// package initialization, then untilFirstTrial.
func probeSetup(exe, workload string, seed uint64) (time.Duration, error) {
	t0 := time.Now()
	out, err := exec.Command(exe, "--setup-probe", "--workload", workload,
		"--seed", strconv.FormatUint(seed, 10)).Output()
	if err != nil {
		return 0, err
	}
	ready, err := strconv.ParseInt(strings.TrimSpace(string(out)), 10, 64)
	if err != nil {
		return 0, fmt.Errorf("set-up probe printed %q", out)
	}
	return time.Unix(0, ready).Sub(t0), nil
}

// report prints a run's metrics, by name and unit, with its provenance
// and any failures, writes the full report file, and prints the result
// line last.
func report(root string, prov provenance, res *result, trace bool, stdout io.Writer) error {
	defs := endToEnd
	if trace {
		defs = perLayer
	}
	out := line{Correct: res.Failed == 0, Attempted: res.Attempted, Failed: res.Failed, Metrics: map[string]valueUnit{}}
	for _, d := range defs {
		out.Metrics[d.Name] = valueUnit{Value: res.Metrics[d.Name], Unit: d.Unit}
	}
	pj, err := json.Marshal(prov)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "provenance %s\n", pj)
	for _, d := range defs {
		fmt.Fprintf(stdout, "%-40s %16.6g %s\n", d.Name, res.Metrics[d.Name], d.Unit)
	}
	if !trace {
		fmt.Fprintf(stdout, "%-40s %16.6g %s\n", "error_budget_per_trial", res.ErrorBudgetPerTrial, "prob")
		fmt.Fprintf(stdout, "%-40s %16.6g %s\n", "failed_frac", res.FailedFrac, "ratio")
	}
	for _, f := range res.Failures {
		fmt.Fprintf(stdout, "FAILED: %s\n", f)
	}

	dir := filepath.Join(root, ".bench_build", "perfbench", "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	full, err := json.MarshalIndent(struct {
		Provenance provenance `json:"provenance"`
		Result     *result    `json:"result"`
		Line       line       `json:"line"`
	}{prov, res, out}, "", "  ")
	if err != nil {
		return err
	}
	file := filepath.Join(dir, fmt.Sprintf("%s-seed%d-trace%v.json", prov.Workload, prov.Seed, trace))
	if err := os.WriteFile(file, append(full, '\n'), 0o644); err != nil {
		return err
	}
	lj, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(stdout, "%s\n", lj)
	return err
}

// runAll runs every workload in its own process, so each one's peak
// memory is its own, echoes their output, and prints a combined result
// line with metric names prefixed by the workload.
func runAll(seed uint64, seconds float64, trace int, stdout io.Writer) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	all := line{Correct: true, Metrics: map[string]valueUnit{}}
	for _, w := range workloads {
		fmt.Fprintf(stdout, "== %s\n", w.name)
		var buf bytes.Buffer
		cmd := exec.Command(exe, "--workload", w.name, "--seed", strconv.FormatUint(seed, 10),
			"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", strconv.Itoa(trace))
		cmd.Stdout = io.MultiWriter(stdout, &buf)
		cmd.Stderr = os.Stderr
		if err := cmd.Run(); err != nil {
			return fmt.Errorf("workload %s: %w", w.name, err)
		}
		lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
		var l line
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &l); err != nil {
			return fmt.Errorf("workload %s: result line: %w", w.name, err)
		}
		all.Correct = all.Correct && l.Correct
		all.Attempted += l.Attempted
		all.Failed += l.Failed
		for k, v := range l.Metrics {
			all.Metrics[w.name+"/"+k] = v
		}
	}
	lj, err := json.Marshal(all)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(stdout, "%s\n", lj)
	return err
}

// Package obswrite is the analysistest fixture for the obswrite
// analyzer: inside a //nrlint:deterministic package, internal/obs
// instruments are write-only. Writes (Inc, Add, Set, Observe, span
// open/close, registration) and the blessed injected-clock helpers
// (obs.Now, obs.SinceSeconds) pass; reads (Value, Count, Sum,
// Snapshot, expositors, direct clock access, harness-side Serve) are
// findings.
//
//nrlint:deterministic
package obswrite

import (
	"io"

	"github.com/gossipkit/noisyrumor/internal/obs"
)

type engine struct {
	rounds  *obs.Counter
	depth   *obs.Gauge
	latency *obs.Histogram
	tracer  *obs.Tracer
	clock   obs.Clock
}

func writesNegative(e *engine, reg *obs.Registry) {
	e.rounds.Inc()
	e.rounds.Add(3)
	e.depth.Set(1.5)
	e.depth.Add(-0.5)
	e.latency.Observe(0.25)
	reg.Counter("rumor_rounds_total", "rounds executed").Inc()
	reg.CounterVec("rumor_state_total", "per state", "state").With("pull").Inc()
	reg.GaugeVec("rumor_frontier", "per phase", "phase").With("push").Set(2)
	reg.HistogramVec("rumor_tv", "tv distance", obs.LogBuckets(1e-6, 10, 7), "law").With("binomial").Observe(1e-3)
	reg.AttachCounter("rumor_attached_total", "pre-built counter", e.rounds)
}

func spansNegative(e *engine) {
	span := e.tracer.Start("sweep.point", obs.F("eps", 0.25))
	e.tracer.Event("sweep.begin")
	span.End(obs.F("rounds", 12))
}

func injectedClockNegative(e *engine) float64 {
	start := obs.Now(e.clock) // blessed helper: no finding
	return obs.SinceSeconds(e.clock, start)
}

func counterReadPositive(e *engine) int64 {
	return e.rounds.Value() // want `reads obs state in a deterministic package`
}

func gaugeReadPositive(e *engine) float64 {
	return e.depth.Value() // want `reads obs state in a deterministic package`
}

func histogramCountPositive(e *engine) int64 {
	return e.latency.Count() // want `reads obs state in a deterministic package`
}

func histogramSumPositive(e *engine) float64 {
	return e.latency.Sum() // want `reads obs state in a deterministic package`
}

func snapshotPositive(reg *obs.Registry) int {
	return len(reg.Snapshot()) // want `reads obs state in a deterministic package`
}

func expositorPositive(reg *obs.Registry, w io.Writer) error {
	return reg.WritePrometheus(w) // want `reads obs state in a deterministic package`
}

func tracerErrPositive(e *engine) error {
	return e.tracer.Err() // want `reads obs state in a deterministic package`
}

func directClockPositive(e *engine) int64 {
	return e.clock.Now() // want `read the injected clock through obs\.Now`
}

func servePositive(reg *obs.Registry) {
	_, _ = obs.Serve("127.0.0.1:0", reg) // want `obs\.Serve in a deterministic package`
}

func allowedReadNegative(e *engine) int64 {
	//nrlint:allow obswrite -- test-only assertion helper, value never reaches results
	return e.rounds.Value()
}

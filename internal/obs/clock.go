package obs

import (
	"sync/atomic"
	"time"
)

// Clock is the injected time source of the observability contract:
// deterministic packages (//nrlint:deterministic — core, census,
// sweep, model) never call time.Now or time.Since themselves (nrlint
// flags both); any timing they record flows through a Clock handed in
// by the harness layer. A nil Clock is the "no timing" configuration:
// obs.Now and obs.SinceSeconds return 0 and duration observations
// become zero-valued, while every other metric keeps working.
//
// Now returns monotonic nanoseconds from an arbitrary, fixed origin:
// only differences are meaningful.
type Clock interface {
	Now() int64
}

// processEpoch anchors WallClock readings so they use Go's monotonic
// clock (time.Since of a time.Time carrying a monotonic reading) and
// stay immune to wall-clock jumps.
var processEpoch = time.Now()

// WallClock is the real time source. Construct it at the harness
// boundary (a CLI, a test) and inject it; constructing it inside a
// deterministic package is an nrlint determinism finding.
type WallClock struct{}

// Now returns monotonic nanoseconds since process start.
func (WallClock) Now() int64 { return int64(time.Since(processEpoch)) }

// ManualClock is a test clock advanced by hand. Safe for concurrent
// use.
type ManualClock struct {
	t atomic.Int64
}

// Now returns the clock's current reading.
func (m *ManualClock) Now() int64 { return m.t.Load() }

// Advance moves the clock forward by d nanoseconds.
func (m *ManualClock) Advance(d int64) { m.t.Add(d) }

// Now reads c, treating a nil Clock as the zero clock.
func Now(c Clock) int64 {
	if c == nil {
		return 0
	}
	return c.Now()
}

// SinceSeconds returns the elapsed seconds on c since start (a prior
// obs.Now reading), or 0 with a nil Clock.
func SinceSeconds(c Clock, start int64) float64 {
	if c == nil {
		return 0
	}
	return float64(c.Now()-start) / 1e9
}

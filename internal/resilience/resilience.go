// Package resilience is the fault-tolerance layer of the sweep
// runtime: typed transient-vs-permanent error classification, a
// bounded immediate retry for checkpoint I/O, a breaker that halts
// runaway failure streaks, and a deterministic fault injector for
// chaos tests.
//
// The package is deterministic-safe by construction, which is what
// lets //nrlint:deterministic packages (internal/sweep above all)
// thread it through their hot paths without weakening the
// bit-identical-results contract: nothing here reads the clock,
// waits, or draws randomness, and fault decisions (SeededInjector)
// hash the site name against a seed, never scheduling order, so a
// chaos run fires the same faults at any worker count.
//
// Classification contract: an error wrapped by Transient is worth
// retrying where a retry can help (checkpoint I/O); one wrapped by
// Permanent is not. Either way a failing unit of work — a sweep
// trial, which replays identically and so is never retried — is
// quarantined and the run continued. An error that is neither is a
// configuration or spec error — callers abort on it immediately, so
// bad inputs keep surfacing up front instead of being retried into
// the ground.
//
//nrlint:deterministic
package resilience

import "errors"

// classified wraps an error with its retry classification. The
// message is unchanged; classification travels via errors.As through
// any further %w wrapping.
type classified struct {
	err       error
	transient bool
}

func (c *classified) Error() string { return c.err.Error() }
func (c *classified) Unwrap() error { return c.err }

// Transient marks err worth retrying. Nil stays nil.
func Transient(err error) error {
	if err == nil {
		return nil
	}
	return &classified{err: err, transient: true}
}

// Permanent marks err not worth retrying: the operation will keep
// failing, but the failing unit can be quarantined. Nil stays nil.
func Permanent(err error) error {
	if err == nil {
		return nil
	}
	return &classified{err: err, transient: false}
}

// IsTransient reports whether err carries a Transient classification
// (the outermost classification wins when reclassified).
func IsTransient(err error) bool {
	var c *classified
	return errors.As(err, &c) && c.transient
}

// IsPermanent reports whether err carries a Permanent classification.
func IsPermanent(err error) bool {
	var c *classified
	return errors.As(err, &c) && !c.transient
}

// Classified reports whether err carries either classification.
// Unclassified errors are config/spec errors by the package contract:
// callers neither retry nor quarantine them.
func Classified(err error) bool {
	var c *classified
	return errors.As(err, &c)
}

package resilience

import (
	"errors"
	"fmt"
	"strings"
	"testing"
)

func TestClassification(t *testing.T) {
	base := errors.New("disk on fire")
	if !IsTransient(Transient(base)) || IsPermanent(Transient(base)) {
		t.Error("Transient classification lost")
	}
	if !IsPermanent(Permanent(base)) || IsTransient(Permanent(base)) {
		t.Error("Permanent classification lost")
	}
	if IsTransient(base) || IsPermanent(base) || Classified(base) {
		t.Error("bare error must stay unclassified")
	}
	if Transient(nil) != nil || Permanent(nil) != nil {
		t.Error("nil must stay nil")
	}
	// Classification survives %w wrapping and keeps the message.
	wrapped := fmt.Errorf("outer: %w", Transient(base))
	if !IsTransient(wrapped) {
		t.Error("classification must travel through %w")
	}
	if !errors.Is(wrapped, base) {
		t.Error("Unwrap chain must reach the base error")
	}
	if got := Transient(base).Error(); got != base.Error() {
		t.Errorf("message changed by classification: %q", got)
	}
	// The outermost classification wins on reclassification.
	if !IsPermanent(Permanent(Transient(base))) {
		t.Error("outer Permanent must win")
	}
}

func TestDoRetriesTransient(t *testing.T) {
	calls := 0
	err := Retry(4, func(a int) error {
		if a != calls {
			t.Errorf("attempt %d reported as %d", calls, a)
		}
		calls++
		if calls < 3 {
			return Transient(errors.New("flaky"))
		}
		return nil
	})
	if err != nil || calls != 3 {
		t.Fatalf("Do = %v after %d calls, want success after 3", err, calls)
	}
}

func TestDoStopsOnPermanentAndUnclassified(t *testing.T) {
	for _, tc := range []struct {
		name string
		err  error
	}{
		{"permanent", Permanent(errors.New("gone"))},
		{"unclassified", errors.New("bad spec")},
	} {
		calls := 0
		err := Retry(5, func(int) error { calls++; return tc.err })
		if calls != 1 {
			t.Errorf("%s: %d calls, want 1 (no retry)", tc.name, calls)
		}
		if !errors.Is(err, tc.err) {
			t.Errorf("%s: error %v must surface unchanged", tc.name, err)
		}
	}
}

func TestDoExhaustsBudget(t *testing.T) {
	calls := 0
	err := Retry(3, func(int) error {
		calls++
		return Transient(errors.New("still flaky"))
	})
	if calls != 3 {
		t.Fatalf("%d calls, want 3", calls)
	}
	if err == nil || !IsTransient(err) {
		t.Fatalf("exhaustion error %v must keep its classification", err)
	}
	if !strings.Contains(err.Error(), "3 attempts") {
		t.Errorf("exhaustion error %q should report the attempt count", err)
	}
}

// TestZeroPolicyRunsOnce: a non-positive attempt count still runs fn
// exactly once.
func TestZeroPolicyRunsOnce(t *testing.T) {
	calls := 0
	if err := Retry(0, func(int) error { calls++; return Transient(errors.New("x")) }); err == nil {
		t.Error("want error through")
	}
	if calls != 1 {
		t.Errorf("%d calls, want 1", calls)
	}
}

func TestBreaker(t *testing.T) {
	b := NewBreaker(3)
	b.Record(true)
	b.Record(true)
	b.Record(false) // success resets the streak
	b.Record(true)
	b.Record(true)
	if b.Err() != nil {
		t.Fatal("streak of 2 must not trip a threshold-3 breaker")
	}
	b.Record(true)
	if err := b.Err(); err == nil || !IsPermanent(err) {
		t.Fatalf("breaker error %v, want a Permanent trip", err)
	}
	if !b.Tripped() {
		t.Error("Tripped() should report open")
	}
	never := NewBreaker(0)
	for i := 0; i < 100; i++ {
		never.Record(true)
	}
	if never.Err() != nil {
		t.Error("threshold 0 must never trip")
	}
}

func TestSeededInjectorRules(t *testing.T) {
	si := NewSeededInjector(42,
		Rule{Site: "checkpoint/put/", OneIn: 2, Fails: 2},
		Rule{Site: "lawcache/", Permanent: true},
	)
	if err := Fire(si, "trial/0/0"); err != nil {
		t.Fatalf("unmatched site fired: %v", err)
	}
	// OneIn gating is a pure function of (seed, site): the same site
	// always decides the same way.
	var faulted, passed string
	for k := 0; k < 32 && (faulted == "" || passed == ""); k++ {
		site := fmt.Sprintf("checkpoint/put/%d", k)
		if si.Fire(site) != nil {
			if faulted == "" {
				faulted = site
			}
		} else if passed == "" {
			passed = site
		}
	}
	if faulted == "" || passed == "" {
		t.Fatal("OneIn: 2 should fault some sites and pass others")
	}
	// The Fails budget: the faulted site fails once more, then passes
	// forever (its first fault above consumed one of the 2).
	if err := si.Fire(faulted); err == nil || !IsTransient(err) {
		t.Fatalf("second fault at %s = %v, want transient", faulted, err)
	}
	for i := 0; i < 5; i++ {
		if err := si.Fire(faulted); err != nil {
			t.Fatalf("budget of 2 spent, still faulting: %v", err)
		}
	}
	// A fresh injector with the same seed makes identical decisions.
	si2 := NewSeededInjector(42, Rule{Site: "checkpoint/put/", OneIn: 2, Fails: 2})
	if si2.Fire(passed) != nil || si2.Fire(faulted) == nil {
		t.Error("same seed must reproduce the fault set")
	}
	if err := si.Fire("lawcache/store"); !IsPermanent(err) {
		t.Errorf("lawcache rule should fire Permanent, got %v", err)
	}
	if si.Fired() < 3 {
		t.Errorf("Fired() = %d, want >= 3", si.Fired())
	}
}

func TestSeededInjectorPanicRule(t *testing.T) {
	si := NewSeededInjector(1, Rule{Site: "trial/", Panic: true})
	defer func() {
		rec := recover()
		ip, ok := rec.(InjectedPanic)
		if !ok || ip.Site != "trial/3/1" {
			t.Errorf("recovered %v, want InjectedPanic at trial/3/1", rec)
		}
		// The budget was consumed: the same site now passes.
		if err := si.Fire("trial/3/1"); err != nil {
			t.Errorf("post-panic refire = %v, want pass", err)
		}
	}()
	_ = si.Fire("trial/3/1")
	t.Fatal("Panic rule must panic")
}

func TestNilInjectorIsNoop(t *testing.T) {
	if err := Fire(nil, "anything"); err != nil {
		t.Fatal(err)
	}
}

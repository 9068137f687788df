package resilience

import (
	"fmt"
	"strings"
	"sync"
)

// FaultInjector is the chaos-testing seam: code threads named sites
// ("checkpoint/open", "checkpoint/put/3", "trial/5/2",
// "lawcache/store") through Fire, which in production is a nil no-op
// and in chaos tests a SeededInjector that deterministically fails,
// panics, or passes each site.
type FaultInjector interface {
	// Fire either returns nil (no fault), returns a classified error,
	// or panics (a simulated crash), per the injector's rules.
	Fire(site string) error
}

// Fire fires fi at site, treating a nil injector as a no-op. Hot
// paths that must not build site strings for nothing should check
// for nil themselves before formatting the site.
func Fire(fi FaultInjector, site string) error {
	if fi == nil {
		return nil
	}
	return fi.Fire(site)
}

// Rule is one fault pattern of a SeededInjector. The first rule whose
// Site prefix matches the fired site decides that site's fate.
type Rule struct {
	// Site is a prefix matched against fired site names ("trial/"
	// matches every trial, "checkpoint/put/" every point write).
	Site string
	// OneIn selects which matching sites fault: a site faults iff
	// hash(seed, site) % OneIn == 0. Values below 2 fault every
	// matching site. The hash depends only on (seed, site), never on
	// call order, so the fault set is identical at any worker count.
	OneIn uint64
	// Fails bounds how many times each individual site faults (0 means
	// 1); past the budget the site passes, which is what lets bounded
	// checkpoint I/O retries, or a resume, drive a chaos run to the
	// fault-free result.
	Fails int
	// Permanent classifies the injected error (default Transient);
	// Panic panics with an InjectedPanic instead of returning, the
	// simulated mid-work crash.
	Permanent bool
	Panic     bool
}

// InjectedPanic is the value a Panic rule panics with, so recover
// sites can label simulated crashes.
type InjectedPanic struct{ Site string }

func (p InjectedPanic) String() string { return "injected panic at " + p.Site }

// SeededInjector is the deterministic FaultInjector for chaos tests:
// which sites fault is a pure function of (seed, site name), and each
// site's fault count is budgeted so a retry or resume eventually
// succeeds. Safe for concurrent use.
type SeededInjector struct {
	seed  uint64
	rules []Rule

	mu    sync.Mutex
	fired map[string]int
	total int
}

// NewSeededInjector builds an injector firing the given rules under
// seed. With no rules it is an always-pass injector — useful for
// measuring the injection seam's overhead.
func NewSeededInjector(seed uint64, rules ...Rule) *SeededInjector {
	return &SeededInjector{seed: seed, rules: rules, fired: make(map[string]int)}
}

// Fire applies the first matching rule to site.
func (si *SeededInjector) Fire(site string) error {
	for _, rule := range si.rules {
		if !strings.HasPrefix(site, rule.Site) {
			continue
		}
		if rule.OneIn > 1 && siteHash(si.seed, site)%rule.OneIn != 0 {
			return nil
		}
		fails := rule.Fails
		if fails < 1 {
			fails = 1
		}
		si.mu.Lock()
		if si.fired[site] >= fails {
			si.mu.Unlock()
			return nil
		}
		si.fired[site]++
		si.total++
		si.mu.Unlock()
		if rule.Panic {
			panic(InjectedPanic{Site: site})
		}
		err := fmt.Errorf("resilience: injected fault at %s", site)
		if rule.Permanent {
			return Permanent(err)
		}
		return Transient(err)
	}
	return nil
}

// Fired returns how many faults (including panics) the injector has
// delivered.
func (si *SeededInjector) Fired() int {
	si.mu.Lock()
	defer si.mu.Unlock()
	return si.total
}

// siteHash mixes the site name into the seed (FNV-style fold plus a
// splitmix finalizer): stable across runs, independent of call order.
func siteHash(seed uint64, site string) uint64 {
	h := seed ^ 0x9e3779b97f4a7c15
	for i := 0; i < len(site); i++ {
		h ^= uint64(site[i])
		h *= 1099511628211
	}
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	return h
}

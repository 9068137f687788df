package sweep

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"github.com/gossipkit/noisyrumor/internal/resilience"
)

// chaosRules is the standard fault storm: flaky checkpoint opens and
// writes, and a law cache whose stores fail. Every fault is transient
// with a bounded per-site budget, so I/O retries and salvage must drive
// the run to the fault-free result — the chaos suite's core assertion.
// Trial faults are not part of the storm: a trial is never retried, so
// its fault quarantines the point instead (see
// TestChaosTrialPanicQuarantinesOnFirstAttempt).
func chaosRules() []resilience.Rule {
	return []resilience.Rule{
		{Site: "checkpoint/open", Fails: 1},
		{Site: "checkpoint/put/", OneIn: 3, Fails: 2},
		{Site: "lawcache/store", Fails: 3},
	}
}

const chaosSeed = 99

// chaosGrid exercises the law cache too, so lawcache/store faults
// actually fire.
func chaosGrid() Grid {
	g := testGrid()
	g.LawQuant = 1e-3
	return g
}

func mustRead(t *testing.T, path string) []byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestChaosShardedGridMergeByteIdentical is the headline robustness
// contract: two shard runs under a deterministic fault storm — flaky
// opens and writes, a failing law cache, plus a simulated crash that
// tears one shard's journal mid-entry — must, after retries, salvage
// and a strict merge, produce a checkpoint byte-identical to the
// fault-free single-host run. At 1 and 8 workers.
func TestChaosShardedGridMergeByteIdentical(t *testing.T) {
	g := chaosGrid()
	dir := t.TempDir()
	refPath := filepath.Join(dir, "ref.json")
	refRes, err := Runner{Seed: 7, Workers: 4, Checkpoint: refPath}.RunGrid(g)
	if err != nil {
		t.Fatal(err)
	}
	refBytes := mustRead(t, refPath)

	for _, workers := range []int{1, 8} {
		shardPaths := []string{
			filepath.Join(dir, "w"+string(rune('0'+workers))+"-shard0.json"),
			filepath.Join(dir, "w"+string(rune('0'+workers))+"-shard1.json"),
		}
		fired := 0
		for i, path := range shardPaths {
			inj := resilience.NewSeededInjector(chaosSeed, chaosRules()...)
			res, err := Runner{
				Seed: 7, Workers: workers, Checkpoint: path,
				Shard: Shard{Index: i, Of: 2}, Inject: inj,
			}.RunGrid(g)
			if err != nil {
				t.Fatalf("workers=%d shard %d: %v", workers, i, err)
			}
			if len(res.Quarantined) != 0 {
				t.Fatalf("workers=%d shard %d quarantined %v; bounded transient faults must retry to success", workers, i, res.Quarantined)
			}
			fired += inj.Fired()
		}
		if fired == 0 {
			t.Fatal("chaos run fired no faults; the storm is miswired")
		}

		// Crash shard 1 mid-write: tear its final journal line, then
		// re-run the shard under a fresh same-seed injector. Salvage must
		// drop exactly the torn point and the re-run recompute it.
		data := mustRead(t, shardPaths[1])
		last := bytes.LastIndexByte(data[:len(data)-1], '\n')
		if err := os.WriteFile(shardPaths[1], data[:last+1+(len(data)-last)/2], 0o644); err != nil {
			t.Fatal(err)
		}
		res, err := Runner{
			Seed: 7, Workers: workers, Checkpoint: shardPaths[1],
			Shard:  Shard{Index: 1, Of: 2},
			Inject: resilience.NewSeededInjector(chaosSeed, chaosRules()...),
		}.RunGrid(g)
		if err != nil {
			t.Fatalf("workers=%d shard 1 re-run: %v", workers, err)
		}
		if res.Salvaged != 1 {
			t.Fatalf("workers=%d shard 1 re-run salvaged %d, want exactly the torn entry", workers, res.Salvaged)
		}

		mergedPath := filepath.Join(dir, "merged-w"+string(rune('0'+workers))+".json")
		rep, err := Merge(mergedPath, false, shardPaths[0], shardPaths[1])
		if err != nil {
			t.Fatalf("workers=%d merge: %v", workers, err)
		}
		if !rep.Complete() || rep.Points != len(refRes.Points) {
			t.Fatalf("workers=%d merge report incomplete: %+v", workers, rep)
		}
		if !bytes.Equal(mustRead(t, mergedPath), refBytes) {
			t.Fatalf("workers=%d: merged shard checkpoints differ from the fault-free single-host journal", workers)
		}

		// A single host resumes the merged journal seamlessly: every
		// point is already present, the result matches the fault-free
		// reference, and the file is untouched.
		resumed, err := Runner{Seed: 7, Workers: workers, Checkpoint: mergedPath}.RunGrid(g)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(refRes, resumed) {
			t.Fatalf("workers=%d: resume from merged journal differs from the fault-free reference", workers)
		}
		if !bytes.Equal(mustRead(t, mergedPath), refBytes) {
			t.Fatalf("workers=%d: resume modified the merged journal", workers)
		}
	}
}

// TestChaosScalingShardMerge covers the scaling mode's shard custody:
// shards carry no fit (it belongs to the merged curve), the merged
// journal is byte-identical to single-host, and the post-merge resume
// recovers the full fit.
func TestChaosScalingShardMerge(t *testing.T) {
	s := Scaling{
		Matrix: "uniform", K: 2, ChannelEps: 0.1, Delta: 0.3,
		Ns: []int64{1000, 10_000, 100_000, 1_000_000}, Trials: 4,
	}
	dir := t.TempDir()
	refPath := filepath.Join(dir, "ref.json")
	refRes, err := Runner{Seed: 3, Workers: 2, Checkpoint: refPath}.RunScaling(s)
	if err != nil {
		t.Fatal(err)
	}
	shardPaths := []string{filepath.Join(dir, "s0.json"), filepath.Join(dir, "s1.json")}
	for i, path := range shardPaths {
		res, err := Runner{
			Seed: 3, Workers: 2, Checkpoint: path,
			Shard:  Shard{Index: i, Of: 2},
			Inject: resilience.NewSeededInjector(chaosSeed, chaosRules()...),
		}.RunScaling(s)
		if err != nil {
			t.Fatalf("shard %d: %v", i, err)
		}
		if res.Fit.Slope != 0 || res.Fit.R2 != 0 {
			t.Fatalf("shard %d computed a fit %+v; the fit belongs to the merged curve", i, res.Fit)
		}
		if len(res.Points) != 2 {
			t.Fatalf("shard %d holds %d points, want its 2 residues", i, len(res.Points))
		}
	}
	mergedPath := filepath.Join(dir, "merged.json")
	rep, err := Merge(mergedPath, false, shardPaths[1], shardPaths[0])
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Complete() {
		t.Fatalf("merge incomplete: %+v", rep)
	}
	if !bytes.Equal(mustRead(t, mergedPath), mustRead(t, refPath)) {
		t.Fatal("merged scaling journal differs from single-host bytes")
	}
	resumed, err := Runner{Seed: 3, Workers: 2, Checkpoint: mergedPath}.RunScaling(s)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(refRes, resumed) {
		t.Fatal("post-merge resume did not recover the single-host scaling result")
	}
}

// TestChaosBisectShardCustodyMerge: every shard of a bisection
// computes the full eval sequence but persists only its residues;
// merging the custody slices rebuilds the single-host journal.
func TestChaosBisectShardCustodyMerge(t *testing.T) {
	b := testBisect(40)
	dir := t.TempDir()
	refPath := filepath.Join(dir, "ref.json")
	refRes, err := Runner{Seed: 21, Workers: 2, Checkpoint: refPath}.RunBisect(b)
	if err != nil {
		t.Fatal(err)
	}
	shardPaths := []string{filepath.Join(dir, "b0.json"), filepath.Join(dir, "b1.json")}
	for i, path := range shardPaths {
		res, err := Runner{
			Seed: 21, Workers: 2, Checkpoint: path,
			Shard: Shard{Index: i, Of: 2},
		}.RunBisect(b)
		if err != nil {
			t.Fatalf("shard %d: %v", i, err)
		}
		// The search itself is identical on every shard — only custody of
		// the persisted evaluations differs.
		if res.Critical != refRes.Critical {
			t.Fatalf("shard %d located ε* %v, reference %v", i, res.Critical, refRes.Critical)
		}
	}
	mergedPath := filepath.Join(dir, "merged.json")
	if _, err := Merge(mergedPath, false, shardPaths[0], shardPaths[1]); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(mustRead(t, mergedPath), mustRead(t, refPath)) {
		t.Fatal("merged bisect journal differs from single-host bytes")
	}
}

// TestChaosQuarantineContainsPermanentFault: a permanent fault pinned
// to one trial quarantines only its point — the run finishes, the
// record lands in the checkpoint — and a fault-free resume recomputes
// the point, converging to the reference result and journal bytes.
func TestChaosQuarantineContainsPermanentFault(t *testing.T) {
	g := testGrid()
	dir := t.TempDir()
	refPath := filepath.Join(dir, "ref.json")
	refRes, err := Runner{Seed: 7, Workers: 4, Checkpoint: refPath}.RunGrid(g)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "ck.json")
	inj := resilience.NewSeededInjector(1, resilience.Rule{Site: trialSite(3, 2), Permanent: true})
	res, err := Runner{Seed: 7, Workers: 4, Checkpoint: path, Inject: inj}.RunGrid(g)
	if err != nil {
		t.Fatalf("permanent fault on one trial must quarantine, not abort: %v", err)
	}
	if !reflect.DeepEqual(res.Quarantined, []int{3}) {
		t.Fatalf("quarantined %v, want exactly point 3", res.Quarantined)
	}
	pr := res.Points[3]
	if pr.Error == nil || !pr.Error.Permanent || pr.Error.Trial != 2 {
		t.Fatalf("quarantine record %+v, want permanent at trial 2", pr.Error)
	}
	if pr.Trials != 0 || pr.Successes != 0 {
		t.Fatalf("quarantined point carries statistics %+v; they must be zeroed", pr)
	}
	// Fault-free resume: the quarantine record reads as a miss, point 3
	// is recomputed, and both result and journal converge to reference.
	resumed, err := Runner{Seed: 7, Workers: 4, Checkpoint: path}.RunGrid(g)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(refRes, resumed) {
		t.Fatal("resume after quarantine differs from the fault-free reference")
	}
	if !bytes.Equal(mustRead(t, path), mustRead(t, refPath)) {
		t.Fatal("journal after quarantine resume differs from reference bytes")
	}
}

// TestChaosTrialPanicQuarantinesOnFirstAttempt: a trial replays
// identically, so a panicking trial is never retried — even when its
// fault site's budget would let a second attempt pass. The site fires
// exactly once, the point is quarantined with the failing trial
// recorded, and a fault-free resume converges to the reference result
// and journal bytes.
func TestChaosTrialPanicQuarantinesOnFirstAttempt(t *testing.T) {
	g := testGrid()
	dir := t.TempDir()
	refPath := filepath.Join(dir, "ref.json")
	refRes, err := Runner{Seed: 7, Workers: 4, Checkpoint: refPath}.RunGrid(g)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "ck.json")
	inj := resilience.NewSeededInjector(1, resilience.Rule{Site: trialSite(3, 2), Fails: 4, Panic: true})
	res, err := Runner{Seed: 7, Workers: 4, Checkpoint: path, Inject: inj}.RunGrid(g)
	if err != nil {
		t.Fatalf("a panicking trial must quarantine its point, not abort: %v", err)
	}
	if inj.Fired() != 1 {
		t.Fatalf("trial site fired %d times, want exactly 1 (no trial retry)", inj.Fired())
	}
	if !reflect.DeepEqual(res.Quarantined, []int{3}) {
		t.Fatalf("quarantined %v, want exactly point 3", res.Quarantined)
	}
	if pe := res.Points[3].Error; pe == nil || pe.Trial != 2 || !strings.Contains(pe.Msg, "panicked") {
		t.Fatalf("quarantine record %+v, want the panic at trial 2", pe)
	}
	resumed, err := Runner{Seed: 7, Workers: 4, Checkpoint: path}.RunGrid(g)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(refRes, resumed) {
		t.Fatal("resume after a trial panic differs from the fault-free reference")
	}
	if !bytes.Equal(mustRead(t, path), mustRead(t, refPath)) {
		t.Fatal("journal after the panic resume differs from reference bytes")
	}
}

// TestChaosBreakerAbortsSystemicFailure: when every point fails, the
// breaker aborts the run after BreakAfter consecutive quarantines
// instead of quarantining the whole sweep.
func TestChaosBreakerAbortsSystemicFailure(t *testing.T) {
	g := testGrid()
	inj := resilience.NewSeededInjector(1, resilience.Rule{Site: "trial/", Permanent: true, Fails: 1 << 20})
	_, err := Runner{Seed: 7, Workers: 2, BreakAfter: 3, Inject: inj}.RunGrid(g)
	if err == nil || !strings.Contains(err.Error(), "breaker") {
		t.Fatalf("systemic failure returned %v, want a breaker abort", err)
	}
}

// TestChaosBisectQuarantineAborts: bisection cannot step past a failed
// evaluation — a quarantined eval is a loud abort, with the record
// persisted for the re-run.
func TestChaosBisectQuarantineAborts(t *testing.T) {
	b := testBisect(40)
	inj := resilience.NewSeededInjector(1, resilience.Rule{Site: trialSite(0, 0), Permanent: true})
	_, err := Runner{Seed: 21, Workers: 2, Inject: inj}.RunBisect(b)
	if err == nil || !strings.Contains(err.Error(), "quarantined") {
		t.Fatalf("quarantined bisect eval returned %v, want an abort naming the quarantine", err)
	}
}

package analyzers

import (
	"fmt"
	"path/filepath"
	"strings"
	"testing"
)

func TestFactsEncodeDecodeRoundTrip(t *testing.T) {
	f := NewFacts()
	f.SetFunc("example.com/p.Tainted", FuncFact{Tainted: true, TaintReason: "ranges over a map at x.go:3"})
	f.SetFunc("example.com/p.(Eng).ErrorBudget", FuncFact{BudgetResults: []int{0}})
	f.SetFunc("example.com/p.Drain", FuncFact{HasBudgetParam: true, SinksBudget: true})
	data, err := f.Encode()
	if err != nil {
		t.Fatal(err)
	}
	g, err := DecodeFacts(data)
	if err != nil {
		t.Fatal(err)
	}
	if g.Len() != f.Len() {
		t.Fatalf("round trip changed length: %d != %d", g.Len(), f.Len())
	}
	for _, key := range []string{"example.com/p.Tainted", "example.com/p.(Eng).ErrorBudget", "example.com/p.Drain"} {
		want, _ := f.Func(key)
		got, ok := g.Func(key)
		if !ok {
			t.Fatalf("key %q lost in round trip", key)
		}
		if got.Tainted != want.Tainted || got.TaintReason != want.TaintReason ||
			got.HasBudgetParam != want.HasBudgetParam || got.SinksBudget != want.SinksBudget ||
			len(got.BudgetResults) != len(want.BudgetResults) {
			t.Fatalf("key %q: round trip %+v != %+v", key, got, want)
		}
	}
	// Encoding is deterministic (encoding/json sorts map keys).
	data2, err := g.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != string(data2) {
		t.Fatalf("encoding not deterministic:\n%s\n%s", data, data2)
	}
}

// TestFactKeyShapes pins the key grammar on a real loaded package:
// package functions, methods (keyed by receiver type name), and
// generic functions (keyed by origin, so instantiated call edges in
// dependents resolve to the declaration's summary).
func TestFactKeyShapes(t *testing.T) {
	dir := filepath.Join("testdata", "src", "determinism", "helper")
	loader, err := NewLoader(dir)
	if err != nil {
		t.Fatal(err)
	}
	results, err := loader.RunDirs([]string{dir}, []*Analyzer{DeterminismAnalyzer})
	if err != nil {
		t.Fatal(err)
	}
	pkgPath := results[0].Pkg.Path
	// Reconstruct the fact store the run produced by re-running the
	// Facts hook through the public driver: the summaries of helper's
	// functions must be recorded under the expected keys when the
	// deterministic fixture package consumes them. Drive the full
	// two-package DAG and inspect through a probe analyzer.
	var probed *Facts
	probe := &Analyzer{Name: "probe", Facts: func(p *Pass) error { probed = p.Facts; return nil }}
	fixtureDir := filepath.Join("testdata", "src", "determinism")
	if _, err := loader.RunDirs([]string{fixtureDir, dir}, []*Analyzer{DeterminismAnalyzer, probe}); err != nil {
		t.Fatal(err)
	}
	for key, wantTainted := range map[string]bool{
		pkgPath + ".SumVals":         true,
		pkgPath + ".Stamp":           true,
		pkgPath + ".Wrap":            true,
		pkgPath + ".Vals":            true, // generic: origin key, no type args
		pkgPath + ".(Table).Flatten": true, // method: receiver in parens
		pkgPath + ".Sorted":          false,
		pkgPath + ".Pure":            false,
		pkgPath + ".(Table).Size":    false,
	} {
		fact, ok := probed.Func(key)
		if !ok {
			t.Errorf("no fact recorded under %q", key)
			continue
		}
		if fact.Tainted != wantTainted {
			t.Errorf("%q: Tainted = %v, want %v (%s)", key, fact.Tainted, wantTainted, fact.TaintReason)
		}
	}
}

// TestSyntacticPassesMissCrossPackageCases is the golden contrast:
// with their Facts hooks stripped, determinism and budget keep every
// in-package finding but go silent on the fixture cases that only
// cross-package summaries can see, and the obswrite fixture is
// invisible to every other pass. Without it, the helper fixtures
// would not prove the facts see anything an in-package check could
// not.
func TestSyntacticPassesMissCrossPackageCases(t *testing.T) {
	run := func(dir string, as []*Analyzer) map[string]bool {
		t.Helper()
		loader, err := NewLoader(dir)
		if err != nil {
			t.Fatal(err)
		}
		dirs, err := PackageDirs(dir)
		if err != nil {
			t.Fatal(err)
		}
		results, err := loader.RunDirs(dirs, as)
		if err != nil {
			t.Fatal(err)
		}
		seen := map[string]bool{}
		for _, res := range results {
			for _, d := range res.Diags {
				p := loader.Fset.Position(d.Pos)
				seen[fmt.Sprintf("%s:%d: %s", filepath.Base(p.Filename), p.Line, d.Message)] = true
			}
		}
		return seen
	}
	for _, tc := range []struct {
		a       *Analyzer
		factsOf []string // fragments of the findings only facts can see
	}{
		{DeterminismAnalyzer, []string{"call into nondeterministic helper.SumVals", "call into nondeterministic helper.Wrap",
			"call into nondeterministic helper.Stamp", "call into nondeterministic helper.Backoff",
			"call into nondeterministic helper.Vals", "call into nondeterministic helper.(Table).Flatten"}},
		{BudgetAnalyzer, []string{"result of helper.AccruedMass is discarded", "captured in x ",
			"captured in z ", "captured in g ", "captured in a "}},
	} {
		dir := filepath.Join("testdata", "src", tc.a.Name)
		full := run(dir, []*Analyzer{tc.a})
		syntactic := run(dir, []*Analyzer{{Name: tc.a.Name, Run: tc.a.Run}})
		for d := range syntactic {
			if !full[d] {
				t.Errorf("%s: fact-free run reports what the full run does not: %s", tc.a.Name, d)
			}
		}
		for _, frag := range tc.factsOf {
			inFull, inSyntactic := false, false
			for d := range full {
				inFull = inFull || strings.Contains(d, frag)
			}
			for d := range syntactic {
				inSyntactic = inSyntactic || strings.Contains(d, frag)
			}
			if !inFull || inSyntactic {
				t.Errorf("%s: %q found with facts = %v, without = %v; want true, false", tc.a.Name, frag, inFull, inSyntactic)
			}
		}
	}
	// obswrite fixture: the other passes are blind to instrument reads.
	for d := range run(filepath.Join("testdata", "src", "obswrite"),
		[]*Analyzer{DeterminismAnalyzer, OverflowAnalyzer, RngForkAnalyzer, BudgetAnalyzer}) {
		t.Errorf("obswrite fixture: another pass unexpectedly sees %s", d)
	}
}

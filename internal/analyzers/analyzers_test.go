package analyzers

import (
	"path/filepath"
	"testing"
)

// Each analyzer's fixture package demonstrates at least one caught
// violation (`// want`) and one deliberately-allowed negative case
// (sorted keys, round-trip guards, transfers, justified allows); see
// testdata/src/<analyzer>/. The determinism and budget fixtures are
// multi-package: a helper/ subpackage WITHOUT the directive supplies
// the cross-package shape only the facts can see.

func TestDeterminismFixture(t *testing.T) {
	RunFixture(t, []*Analyzer{DeterminismAnalyzer}, filepath.Join("testdata", "src", "determinism"))
}

// TestDetCallFixture pins the determinism fixture's cross-package
// cases (calls.go): calls into helper functions whose taint is visible
// only through the interprocedural facts.
func TestDetCallFixture(t *testing.T) {
	RunFixtureFile(t, []*Analyzer{DeterminismAnalyzer}, filepath.Join("testdata", "src", "determinism"), "calls.go")
}

func TestOverflowFixture(t *testing.T) {
	RunFixture(t, []*Analyzer{OverflowAnalyzer}, filepath.Join("testdata", "src", "overflow"))
}

func TestBudgetFixture(t *testing.T) {
	RunFixture(t, []*Analyzer{BudgetAnalyzer}, filepath.Join("testdata", "src", "budget"))
}

// TestBudgetFlowFixture pins the budget fixture's flow cases
// (flow.go): budget values from helper calls that are captured in
// locals and must be discharged before scope ends.
func TestBudgetFlowFixture(t *testing.T) {
	RunFixtureFile(t, []*Analyzer{BudgetAnalyzer}, filepath.Join("testdata", "src", "budget"), "flow.go")
}

func TestRngForkFixture(t *testing.T) {
	RunFixture(t, []*Analyzer{RngForkAnalyzer}, filepath.Join("testdata", "src", "rngfork"))
}

func TestObsWriteFixture(t *testing.T) {
	RunFixture(t, []*Analyzer{ObsWriteAnalyzer}, filepath.Join("testdata", "src", "obswrite"))
}

func TestSuiteRegistry(t *testing.T) {
	all := All()
	if len(all) != 5 {
		t.Fatalf("All() = %d analyzers, want 5", len(all))
	}
	for _, name := range []string{"budget", "determinism", "obswrite", "overflow", "rngfork"} {
		if ByName(name) == nil {
			t.Errorf("ByName(%q) = nil", name)
		}
	}
	if ByName("nosuch") != nil {
		t.Error("ByName(nosuch) should be nil")
	}
}

// TestUnannotatedPackageIsExempt pins the opt-in rule: the
// determinism/overflow/rngfork passes keep quiet on packages without
// the //nrlint:deterministic directive (the budget pass is the
// repo-wide exception, exercised by its fixture).
func TestUnannotatedPackageIsExempt(t *testing.T) {
	dir := filepath.Join("testdata", "src", "unannotated")
	loader, err := NewLoader(dir)
	if err != nil {
		t.Fatal(err)
	}
	_, diags, err := loader.Run(dir, []*Analyzer{DeterminismAnalyzer, OverflowAnalyzer, RngForkAnalyzer})
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 0 {
		t.Fatalf("unannotated package got %d diagnostics, want 0: %v", len(diags), diags)
	}
}

package analyzers

import (
	"encoding/json"
	"fmt"
	"go/ast"
	"go/types"
)

// This file is the interprocedural layer of nrlint: per-function
// facts computed bottom-up over the module's import DAG, so a pass
// analyzing package P can ask about the functions P calls in packages
// already analyzed. The driver (Loader.RunDirs) orders packages
// dependencies-first, runs every analyzer's Facts hook before any Run
// hook, and serializes the store between packages — facts survive an
// encode/decode round trip by construction, so the in-memory store
// could be swapped for an on-disk cache without changing analyzer
// semantics (the shape a real go/analysis facts file would take).
//
// Keys must be stable across separately type-checked views of the
// same package: the source importer materializes its own
// types.Object for census.Engine.ErrorBudget when sweep imports
// census, distinct from the object created when census itself is
// checked. FactKey therefore canonicalizes to a string —
// "pkgpath.Func" for package functions, "pkgpath.(Recv).Method" for
// methods — and generic functions are keyed by their origin (the
// uninstantiated declaration), so every instantiated call edge shares
// the origin's summary.

// A FuncFact is the interprocedural summary of one function. The
// zero value means "nothing known", which analyzers must treat as
// "assume safe / assume sinking" — facts only ever make checks
// stricter where a summary proves a violation, never looser.
type FuncFact struct {
	// Tainted: the function transitively reaches a source on the
	// determinism pass's one list — time.Now/Since/Sleep, math/rand,
	// map-range iteration (the sorted-keys key-collection loop is
	// exempt), goroutine append fan-in, or an obs.WallClock literal.
	// TaintReason is the human-readable chain for diagnostics.
	Tainted     bool   `json:"tainted,omitempty"`
	TaintReason string `json:"taint_reason,omitempty"`

	// Deterministic: the defining package carries the
	// //nrlint:deterministic directive. The determinism pass does not
	// report calls into tainted functions of such packages: it already
	// reports the source site where it sits.
	Deterministic bool `json:"deterministic,omitempty"`

	// BudgetResults lists result indices whose return expressions
	// carry budget mass, looking through conversions — the
	// cross-package wrapper that erases the Budget type. It is one of
	// the three inputs of the budget pass's carrier test, next to the
	// Budget type and the canonical ErrorBudget/QuantBudget name,
	// which the test reads at the call site.
	BudgetResults []int `json:"budget_results,omitempty"`

	// HasBudgetParam / SinksBudget summarize the parameter side:
	// whether the function takes a Budget-typed parameter, and
	// whether every such parameter provably reaches a sink (a
	// return, a += onto a budget accumulator, or a further sinking
	// call) before scope ends. A call passing a budget value to a
	// function with HasBudgetParam && !SinksBudget does NOT
	// discharge the caller's obligation to ledger that value.
	HasBudgetParam bool `json:"has_budget_param,omitempty"`
	SinksBudget    bool `json:"sinks_budget,omitempty"`
}

// Facts is the cross-package store, keyed by FactKey strings.
type Facts struct {
	funcs map[string]FuncFact
}

// NewFacts returns an empty store.
func NewFacts() *Facts { return &Facts{funcs: map[string]FuncFact{}} }

// Func returns the fact for key, and whether one was recorded.
func (f *Facts) Func(key string) (FuncFact, bool) {
	if f == nil || key == "" {
		return FuncFact{}, false
	}
	fact, ok := f.funcs[key]
	return fact, ok
}

// SetFunc records fact under key (no-op on an empty key, which
// FactKey returns for functions that cannot be named stably).
func (f *Facts) SetFunc(key string, fact FuncFact) {
	if key == "" {
		return
	}
	f.funcs[key] = fact
}

// Len returns the number of recorded function facts.
func (f *Facts) Len() int { return len(f.funcs) }

// Encode serializes the store. encoding/json sorts map keys, so the
// encoding is deterministic — byte-identical across runs and worker
// counts for the same analyzed set.
func (f *Facts) Encode() ([]byte, error) {
	return json.Marshal(f.funcs)
}

// DecodeFacts rebuilds a store from Encode output.
func DecodeFacts(data []byte) (*Facts, error) {
	funcs := map[string]FuncFact{}
	if err := json.Unmarshal(data, &funcs); err != nil {
		return nil, fmt.Errorf("analyzers: decoding facts: %w", err)
	}
	return &Facts{funcs: funcs}, nil
}

// FactKey canonicalizes a function object to its cross-package key,
// or "" when no stable key exists (interface methods, builtins).
// Generic functions and methods are keyed by their origin, so facts
// computed on the declaration cover every instantiation.
func FactKey(fn *types.Func) string {
	if fn == nil {
		return ""
	}
	fn = fn.Origin()
	if fn.Pkg() == nil {
		return ""
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return ""
	}
	recv := ""
	if r := sig.Recv(); r != nil {
		t := r.Type()
		if ptr, isPtr := t.(*types.Pointer); isPtr {
			t = ptr.Elem()
		}
		named, isNamed := types.Unalias(t).(*types.Named)
		if !isNamed {
			return "" // interface or otherwise unnamed receiver
		}
		recv = "(" + named.Obj().Name() + ")."
	}
	return fn.Pkg().Path() + "." + recv + fn.Name()
}

// calleeFunc resolves the static callee of call to a function object,
// unwrapping generic instantiation syntax (F[T](…)). It returns nil
// for calls through function values, builtins, conversions and
// interface-method dispatch — sites with no statically known body,
// which the interprocedural passes treat as unknown (assume safe /
// assume sinking).
func calleeFunc(pass *Pass, call *ast.CallExpr) *types.Func {
	fun := ast.Unparen(call.Fun)
	switch f := fun.(type) {
	case *ast.IndexExpr:
		fun = ast.Unparen(f.X)
	case *ast.IndexListExpr:
		fun = ast.Unparen(f.X)
	}
	var fn *types.Func
	switch f := fun.(type) {
	case *ast.Ident:
		fn, _ = pass.Info.Uses[f].(*types.Func)
	case *ast.SelectorExpr:
		if sel, ok := pass.Info.Selections[f]; ok {
			fn, _ = sel.Obj().(*types.Func)
		} else {
			// Package-qualified function: pkg.F.
			fn, _ = pass.Info.Uses[f.Sel].(*types.Func)
		}
	}
	if fn == nil {
		return nil
	}
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		if _, isIface := sig.Recv().Type().Underlying().(*types.Interface); isIface {
			return nil // dynamic dispatch: no statically known body
		}
	}
	return fn.Origin()
}

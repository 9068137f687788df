package analyzers

import (
	"go/ast"
	"go/types"
	"strings"
)

// DeterminismAnalyzer enforces the repo's bit-identical-results
// contract inside //nrlint:deterministic packages (core, census,
// sweep, model): results must be a pure function of (spec, seed),
// identical at any -workers count. It flags the four ways scheduler
// or runtime nondeterminism historically leaks into such code:
//
//  1. ranging over a map — iteration order is randomized, so any
//     output, accumulation or rng fork keyed by it diverges run to
//     run;
//  2. importing math/rand (global, seed-shared state; the repo's
//     streams come from internal/rng and fork deterministically);
//  3. calling time.Now / time.Since / time.Sleep on result paths —
//     wall-clock values must never reach results, and wall-clock
//     pauses gate result production on the scheduler (harness timing
//     and any waiting live outside deterministic packages);
//  4. goroutine fan-in that appends to a shared slice — completion
//     order decides element order; workers must write index-keyed
//     slots instead;
//  5. constructing obs.WallClock — the internal/obs type that reads
//     the wall clock. Deterministic packages may hold and use an
//     injected obs.Clock (timing through obs.Now/obs.SinceSeconds is
//     the blessed pattern, write-only by the DESIGN.md §2 contract),
//     but choosing the wall implementation is the harness's call,
//     made outside these packages.
//
// Floating-point accumulation order is NOT checked here: the repo's
// parallel merges are already index-keyed, and a sound check needs
// value-flow analysis. Suppress legitimately order-free sites with
// `//nrlint:allow determinism -- <why order cannot reach output>`.
var DeterminismAnalyzer = &Analyzer{
	Name: "determinism",
	Doc:  "flag map-range iteration, global math/rand, wall-clock reads and append fan-in in //nrlint:deterministic packages",
	Run:  runDeterminism,
}

func runDeterminism(pass *Pass) error {
	if !HasDeterministicDirective(pass.Files) {
		return nil
	}
	for _, file := range pass.Files {
		for _, imp := range file.Imports {
			switch imp.Path.Value {
			case `"math/rand"`, `"math/rand/v2"`:
				pass.Reportf(imp.Pos(), "deterministic package imports %s: global rand state is seed-shared across the process; draw from an internal/rng stream forked for this scope instead", imp.Path.Value)
			}
		}
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.RangeStmt:
				if isMapType(pass.TypeOf(n.X)) && !isKeyCollectionLoop(pass, n) {
					pass.Reportf(n.Pos(), "range over map %s iterates in randomized order inside a deterministic package; iterate a sorted key slice, or justify with //nrlint:allow determinism -- <reason>", exprString(n.X))
				}
			case *ast.CallExpr:
				switch name := qualifiedCallee(pass, n); name {
				case "time.Now", "time.Since":
					pass.Reportf(n.Pos(), "%s in a deterministic package: wall-clock values must not reach results; accept an injected obs.Clock and read it via obs.Now / obs.SinceSeconds, leaving obs.WallClock to the harness", name)
				case "time.Sleep":
					pass.Reportf(n.Pos(), "time.Sleep in a deterministic package: wall-clock pauses gate results on the scheduler; leave any waiting to the harness")
				}
			case *ast.CompositeLit:
				if isObsWallClock(pass.TypeOf(n)) {
					pass.Reportf(n.Pos(), "obs.WallClock constructed in a deterministic package: the wall implementation is the harness's choice; accept an injected obs.Clock instead")
				}
			case *ast.GoStmt:
				checkGoroutineAppend(pass, n)
			}
			return true
		})
	}
	return nil
}

// isKeyCollectionLoop recognizes the first half of the sorted-keys
// idiom — `for k := range m { keys = append(keys, k) }` — whose order
// sensitivity is resolved by the sort that idiomatically follows.
// Flagging it would make the recommended fix suppress itself; the
// key slice's use sites remain subject to every other check.
func isKeyCollectionLoop(pass *Pass, rs *ast.RangeStmt) bool {
	key, ok := rs.Key.(*ast.Ident)
	if !ok || key.Name == "_" || rs.Value != nil || len(rs.Body.List) != 1 {
		return false
	}
	as, ok := rs.Body.List[0].(*ast.AssignStmt)
	if !ok || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
		return false
	}
	call, ok := as.Rhs[0].(*ast.CallExpr)
	if !ok || !isBuiltinAppend(pass, call) || len(call.Args) != 2 {
		return false
	}
	arg, ok := call.Args[1].(*ast.Ident)
	return ok && pass.Info.ObjectOf(arg) == pass.Info.ObjectOf(key)
}

// checkGoroutineAppend flags `x = append(x, ...)` inside a goroutine
// body when x is declared outside the goroutine's function literal:
// the classic fan-in whose element order depends on goroutine
// completion order.
func checkGoroutineAppend(pass *Pass, g *ast.GoStmt) {
	for _, shared := range goroutineSharedAppends(pass, g) {
		pass.Reportf(shared.stmt.Pos(), "goroutine appends to shared slice %s: element order depends on scheduling; write each worker's result to an index-keyed slot", shared.name)
	}
}

// sharedAppend is one append-to-shared-slice site inside a goroutine
// literal, shared between the determinism pass (which reports it
// in-package) and the detcall taint summary (which records it as a
// nondeterminism source of the enclosing function).
type sharedAppend struct {
	stmt *ast.AssignStmt
	name string
}

func goroutineSharedAppends(pass *Pass, g *ast.GoStmt) []sharedAppend {
	lit, ok := g.Call.Fun.(*ast.FuncLit)
	if !ok {
		return nil
	}
	var out []sharedAppend
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for i, rhs := range as.Rhs {
			call, ok := rhs.(*ast.CallExpr)
			if !ok || !isBuiltinAppend(pass, call) || i >= len(as.Lhs) {
				continue
			}
			id, ok := as.Lhs[i].(*ast.Ident)
			if !ok {
				continue
			}
			obj := pass.Info.ObjectOf(id)
			if obj == nil || obj.Pos() == 0 {
				continue
			}
			if obj.Pos() < lit.Pos() || obj.Pos() >= lit.End() {
				out = append(out, sharedAppend{stmt: as, name: id.Name})
			}
		}
		return true
	})
	return out
}

// isObsWallClock reports whether t is internal/obs's wall-clock
// implementation, recognized by name and defining package so the
// check survives vendoring or module renames.
func isObsWallClock(t types.Type) bool {
	named, ok := types.Unalias(t).(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "WallClock" && obj.Pkg() != nil && strings.HasSuffix(obj.Pkg().Path(), "internal/obs")
}

func isBuiltinAppend(pass *Pass, call *ast.CallExpr) bool {
	id, ok := call.Fun.(*ast.Ident)
	if !ok {
		return false
	}
	b, ok := pass.Info.ObjectOf(id).(*types.Builtin)
	return ok && b.Name() == "append"
}

// qualifiedCallee returns "pkg.Func" for a direct call through a
// package selector, or "".
func qualifiedCallee(pass *Pass, call *ast.CallExpr) string {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return ""
	}
	if pkg, ok := pass.Info.ObjectOf(id).(*types.PkgName); ok {
		return pkg.Imported().Name() + "." + sel.Sel.Name
	}
	return ""
}

func exprString(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return exprString(e.X) + "." + e.Sel.Name
	default:
		return "expression"
	}
}

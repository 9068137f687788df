package analyzers

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"strings"
)

// DeterminismAnalyzer enforces the repo's bit-identical-results
// contract inside //nrlint:deterministic packages (core, census,
// sweep, model): results must be a pure function of (spec, seed),
// identical at any -workers count. One source list (nondetSites)
// names the ways scheduler or runtime nondeterminism historically
// leaks into such code:
//
//  1. ranging over a map — iteration order is randomized, so any
//     output, accumulation or rng fork keyed by it diverges run to
//     run (the key-collection half of the sorted-keys idiom is
//     exempt);
//  2. math/rand (global, seed-shared state; the repo's streams come
//     from internal/rng and fork deterministically);
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
// The same list drives both halves of the pass. The Facts hook
// summarizes every function of every analyzed package, bottom-up over
// the import DAG: tainted iff its body reaches a source or calls a
// tainted function. The Run hook, inside deterministic packages,
// reports each source site in the package, and each call into a
// tainted function of a package NOT bound by the directive — the
// cross-package escape hatch an in-package check alone leaves open.
// Tainted callees inside deterministic packages are not re-reported:
// their source site is already a finding where it sits.
//
// Unknown callees (interface dispatch, function values, stdlib
// functions other than the explicit sources) are assumed clean, so
// the injected-clock pattern stays permitted by construction:
// obs.Now/obs.SinceSeconds read the clock through an interface,
// which taint does not cross. Floating-point accumulation order is
// NOT checked: the repo's parallel merges are already index-keyed,
// and a sound check needs value-flow analysis. Suppress legitimately
// order-free sites with
// `//nrlint:allow determinism -- <why order cannot reach output>`.
var DeterminismAnalyzer = &Analyzer{
	Name:  "determinism",
	Doc:   "flag map-range iteration, math/rand, wall-clock reads and append fan-in in //nrlint:deterministic packages, and calls into functions that transitively reach them (interprocedural taint via facts)",
	Run:   runDeterminism,
	Facts: determinismFacts,
}

func runDeterminism(pass *Pass) error {
	if !HasDeterministicDirective(pass.Files) {
		return nil
	}
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			for _, s := range nondetSites(pass, n) {
				if s.msg != "" {
					pass.Reportf(s.pos, "%s", s.msg)
				}
			}
			if call, ok := n.(*ast.CallExpr); ok {
				checkTaintedCall(pass, call)
			}
			return true
		})
	}
	return nil
}

// checkTaintedCall flags a call into a tainted function of a package
// not bound by the directive. Local callees are skipped: their
// sources are reported in place.
func checkTaintedCall(pass *Pass, call *ast.CallExpr) {
	callee := calleeFunc(pass, call)
	if callee == nil || callee.Pkg() == pass.Pkg {
		return
	}
	fact, ok := pass.Facts.Func(FactKey(callee))
	if !ok || !fact.Tainted || fact.Deterministic {
		return
	}
	pass.Reportf(call.Pos(), "call into nondeterministic %s (%s): the callee's package is not //nrlint:deterministic, so its source site is never reported where it sits; fix the helper, move the call to the harness, or justify with //nrlint:allow determinism -- <reason>",
		calleeLabel(callee), fact.TaintReason)
}

// A nondetSite is one nondeterminism source: reason is the short
// form a taint summary records, msg the in-package finding ("" when
// the finding sits elsewhere: a math/rand call is reported at its
// import).
type nondetSite struct {
	pos         token.Pos
	reason, msg string
}

// nondetSites is the source list: the sites node n itself
// contributes (a go statement contributes one per shared append in
// its literal).
func nondetSites(pass *Pass, n ast.Node) []nondetSite {
	switch n := n.(type) {
	case *ast.ImportSpec:
		switch n.Path.Value {
		case `"math/rand"`, `"math/rand/v2"`:
			return []nondetSite{{n.Pos(), "imports " + n.Path.Value,
				fmt.Sprintf("deterministic package imports %s: global rand state is seed-shared across the process; draw from an internal/rng stream forked for this scope instead", n.Path.Value)}}
		}
	case *ast.RangeStmt:
		if isMapType(pass.TypeOf(n.X)) && !isKeyCollectionLoop(pass, n) {
			return []nondetSite{{n.Pos(), "ranges over a map",
				fmt.Sprintf("range over map %s iterates in randomized order inside a deterministic package; iterate a sorted key slice, or justify with //nrlint:allow determinism -- <reason>", exprString(n.X))}}
		}
	case *ast.CallExpr:
		if fn := calleeFunc(pass, n); fn != nil && fn.Pkg() != nil {
			if s, ok := stdlibSite(fn); ok {
				s.pos = n.Pos()
				return []nondetSite{s}
			}
		}
	case *ast.CompositeLit:
		if isObsWallClock(pass.TypeOf(n)) {
			return []nondetSite{{n.Pos(), "constructs obs.WallClock",
				"obs.WallClock constructed in a deterministic package: the wall implementation is the harness's choice; accept an injected obs.Clock instead"}}
		}
	case *ast.GoStmt:
		var out []nondetSite
		for _, shared := range goroutineSharedAppends(pass, n) {
			out = append(out, nondetSite{shared.stmt.Pos(), "appends to a shared slice from a goroutine",
				fmt.Sprintf("goroutine appends to shared slice %s: element order depends on scheduling; write each worker's result to an index-keyed slot", shared.name)})
		}
		return out
	}
	return nil
}

// stdlibSite classifies calls into the out-of-module sources by
// package path, so dot imports and renamed imports cannot hide them:
// the wall clock and the global math/rand state.
func stdlibSite(fn *types.Func) (nondetSite, bool) {
	switch path := fn.Pkg().Path(); path {
	case "time":
		switch fn.Name() {
		case "Now", "Since":
			return nondetSite{reason: "reads the wall clock via time." + fn.Name(),
				msg: "time." + fn.Name() + " in a deterministic package: wall-clock values must not reach results; accept an injected obs.Clock and read it via obs.Now / obs.SinceSeconds, leaving obs.WallClock to the harness"}, true
		case "Sleep":
			return nondetSite{reason: "pauses on the wall clock via time.Sleep",
				msg: "time.Sleep in a deterministic package: wall-clock pauses gate results on the scheduler; leave any waiting to the harness"}, true
		}
	case "math/rand", "math/rand/v2":
		return nondetSite{reason: "draws from global " + path + " state"}, true
	}
	return nondetSite{}, false
}

// determinismFacts computes and exports the taint summary of every
// function declared in the package. Intra-package call edges are
// resolved by fixpoint iteration; cross-package edges read the facts
// of already-analyzed dependencies.
func determinismFacts(pass *Pass) error {
	type funcInfo struct {
		obj     *types.Func
		reason  string        // "" while untainted
		callees []*types.Func // intra-package edges
	}
	var infos []*funcInfo
	byObj := map[*types.Func]*funcInfo{}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, ok := pass.Info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			info := &funcInfo{obj: fn}
			var external []*types.Func
			seen := map[*types.Func]bool{}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				for _, s := range nondetSites(pass, n) {
					if info.reason == "" {
						p := pass.Fset.Position(s.pos)
						info.reason = fmt.Sprintf("%s at %s:%d", s.reason, filepath.Base(p.Filename), p.Line)
					}
				}
				if call, ok := n.(*ast.CallExpr); ok {
					if callee := calleeFunc(pass, call); callee != nil && !seen[callee] {
						seen[callee] = true
						if callee.Pkg() == pass.Pkg {
							info.callees = append(info.callees, callee)
						} else {
							external = append(external, callee)
						}
					}
				}
				return true
			})
			for _, callee := range external {
				if info.reason != "" {
					break
				}
				if fact, ok := pass.Facts.Func(FactKey(callee)); ok && fact.Tainted {
					info.reason = fmt.Sprintf("calls %s, which %s", calleeLabel(callee), fact.TaintReason)
				}
			}
			infos = append(infos, info)
			byObj[fn] = info
		}
	}
	// Intra-package fixpoint: propagate taint along local call edges
	// until stable (recursion-safe; each iteration taints at least one
	// more function or stops).
	for changed := true; changed; {
		changed = false
		for _, info := range infos {
			if info.reason != "" {
				continue
			}
			for _, callee := range info.callees {
				if c, ok := byObj[callee]; ok && c.reason != "" {
					info.reason = fmt.Sprintf("calls %s, which %s", calleeLabel(callee), c.reason)
					changed = true
					break
				}
			}
		}
	}
	det := HasDeterministicDirective(pass.Files)
	for _, info := range infos {
		key := FactKey(info.obj)
		fact, _ := pass.Facts.Func(key)
		fact.Tainted = info.reason != ""
		fact.TaintReason = info.reason
		fact.Deterministic = det
		pass.Facts.SetFunc(key, fact)
	}
	return nil
}

// calleeLabel names a function for diagnostics: pkg.F or
// pkg.(T).Method, with the package's base name for brevity.
func calleeLabel(fn *types.Func) string {
	name := fn.Name()
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		if recv := namedTypeName(sig.Recv().Type()); recv != "" {
			name = "(" + recv + ")." + name
		}
	}
	if fn.Pkg() != nil {
		return fn.Pkg().Name() + "." + name
	}
	return name
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

// sharedAppend is one append-to-shared-slice site inside a goroutine
// literal.
type sharedAppend struct {
	stmt *ast.AssignStmt
	name string
}

// goroutineSharedAppends finds `x = append(x, ...)` inside g's
// function literal where x is declared outside it: the classic
// fan-in whose element order depends on goroutine completion order.
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

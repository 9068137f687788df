package analyzers

import (
	"fmt"
	"go/ast"
	"go/types"
	"path/filepath"
)

// DetCallAnalyzer closes the cross-package escape hatch the syntactic
// determinism pass leaves open: that pass flags nondeterminism
// sources (map ranges, wall-clock reads and sleeps, math/rand, append
// fan-in, obs.WallClock literals) only in the file that
// contains them, so a
// deterministic package calling a helper in an un-annotated package
// that ranges a map was invisible. detcall computes a
// nondeterminism-taint summary for every function of every analyzed
// package (its Facts hook, run bottom-up over the import DAG) —
// tainted iff the body reaches a source directly or calls a function
// whose summary is tainted — and its Run hook flags, inside
// //nrlint:deterministic packages, every call into a tainted function
// of a package NOT bound by the directive. Tainted callees inside
// deterministic packages are not re-reported: the determinism pass
// already flags the source site itself, and the fix belongs there.
//
// Unknown callees (interface dispatch, function values, stdlib
// functions other than the explicit sources) are assumed clean —
// facts only ever make the check stricter where a body was actually
// analyzed. The blessed injected-clock pattern stays permitted by
// construction: obs.Now/obs.SinceSeconds read the clock through an
// interface, which taint does not cross.
var DetCallAnalyzer = &Analyzer{
	Name:  "detcall",
	Doc:   "flag calls from //nrlint:deterministic packages into functions whose bodies transitively reach a nondeterminism source (interprocedural taint via facts)",
	Run:   runDetCall,
	Facts: detCallFacts,
}

// detCallFacts computes and exports the taint summary of every
// function declared in the package. Intra-package call edges are
// resolved by fixpoint iteration; cross-package edges read the facts
// of already-analyzed dependencies.
func detCallFacts(pass *Pass) error {
	det := HasDeterministicDirective(pass.Files)
	type funcInfo struct {
		obj     *types.Func
		tainted bool
		reason  string
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
			info.tainted, info.reason = directTaint(pass, fd.Body)
			for _, callee := range collectCallees(pass, fd.Body) {
				if callee.Pkg() == pass.Pkg {
					info.callees = append(info.callees, callee)
					continue
				}
				if info.tainted {
					continue
				}
				if fact, ok := pass.Facts.Func(FactKey(callee)); ok && fact.Tainted {
					info.tainted = true
					info.reason = fmt.Sprintf("calls %s, which %s", calleeLabel(callee), fact.TaintReason)
				} else if reason, bad := stdlibTaint(callee); bad {
					info.tainted = true
					info.reason = reason
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
			if info.tainted {
				continue
			}
			for _, callee := range info.callees {
				if c, ok := byObj[callee]; ok && c.tainted {
					info.tainted = true
					info.reason = fmt.Sprintf("calls %s, which %s", calleeLabel(callee), c.reason)
					changed = true
					break
				}
			}
		}
	}
	for _, info := range infos {
		key := FactKey(info.obj)
		fact, _ := pass.Facts.Func(key)
		fact.Tainted = info.tainted
		fact.TaintReason = info.reason
		fact.Deterministic = det
		pass.Facts.SetFunc(key, fact)
	}
	return nil
}

// directTaint reports whether body contains a nondeterminism source
// itself, with a reason naming the first one found (in source order).
func directTaint(pass *Pass, body *ast.BlockStmt) (bool, string) {
	tainted := false
	reason := ""
	mark := func(pos ast.Node, r string) {
		if !tainted {
			tainted = true
			p := pass.Fset.Position(pos.Pos())
			reason = fmt.Sprintf("%s at %s:%d", r, filepath.Base(p.Filename), p.Line)
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.RangeStmt:
			if isMapType(pass.TypeOf(n.X)) && !isKeyCollectionLoop(pass, n) {
				mark(n, "ranges over a map")
			}
		case *ast.CallExpr:
			if callee := calleeFunc(pass, n); callee != nil && callee.Pkg() != pass.Pkg {
				if r, bad := stdlibTaint(callee); bad {
					mark(n, r)
				}
			}
		case *ast.CompositeLit:
			if isObsWallClock(pass.TypeOf(n)) {
				mark(n, "constructs obs.WallClock")
			}
		case *ast.GoStmt:
			for _, shared := range goroutineSharedAppends(pass, n) {
				mark(shared.stmt, "appends to a shared slice from a goroutine")
			}
		}
		return true
	})
	return tainted, reason
}

// stdlibTaint classifies calls into the explicit out-of-module taint
// sources: the wall clock and the global math/rand state.
func stdlibTaint(fn *types.Func) (string, bool) {
	pkg := fn.Pkg()
	if pkg == nil {
		return "", false
	}
	switch pkg.Path() {
	case "time":
		switch fn.Name() {
		case "Now", "Since":
			return "reads the wall clock via time." + fn.Name(), true
		case "Sleep":
			return "pauses on the wall clock via time.Sleep", true
		}
	case "math/rand", "math/rand/v2":
		return "draws from global " + pkg.Path() + " state", true
	}
	return "", false
}

// collectCallees resolves every statically known callee in body,
// deduplicated, in source order.
func collectCallees(pass *Pass, body *ast.BlockStmt) []*types.Func {
	var out []*types.Func
	seen := map[*types.Func]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if fn := calleeFunc(pass, call); fn != nil && !seen[fn] {
			seen[fn] = true
			out = append(out, fn)
		}
		return true
	})
	return out
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

// runDetCall flags calls from a deterministic package into tainted
// functions of packages not bound by the directive.
func runDetCall(pass *Pass) error {
	if !HasDeterministicDirective(pass.Files) {
		return nil
	}
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			callee := calleeFunc(pass, call)
			if callee == nil || callee.Pkg() == pass.Pkg {
				// Unknown callee, or local: the determinism pass owns
				// in-package sources.
				return true
			}
			fact, ok := pass.Facts.Func(FactKey(callee))
			if !ok || !fact.Tainted || fact.Deterministic {
				return true
			}
			pass.Reportf(call.Pos(), "call into nondeterministic %s (%s): the callee's package is not //nrlint:deterministic, so this taint is invisible to the in-package determinism pass; fix the helper, move the call to the harness, or justify with //nrlint:allow detcall -- <reason>",
				calleeLabel(callee), fact.TaintReason)
			return true
		})
	}
	return nil
}

package analyzers

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
)

// BudgetAnalyzer enforces the Lemma-3 accounting contract repo-wide:
// every approximation mass an engine accrues must travel with the
// result, never be dropped on the floor. One predicate, budgetResults,
// decides which call results carry budget: the named type Budget
// (census.Budget and anything mirroring it), the canonical accessor
// names ErrorBudget and QuantBudget (so the check also binds code
// written before the named type existed, and self-contained test
// fixtures), and the callee's BudgetResults fact (a wrapper that
// erases the type at a package boundary still returns the mass).
// Every kind of drop is judged by it. The pass flags:
//
//   - a budget-carrying call result discarded as a bare statement or
//     assigned to the blank identifier;
//   - a budget-carrying call result captured in a local that never
//     reaches a return, a `+=` onto an accumulator, or a sinking call
//     before its scope ends. Reading a budget FIELD into a local is
//     not an obligation — the mass still lives in the source struct —
//     but a call result (an accessor snapshot, a trial's returned
//     budget) is the only copy;
//   - plain `=` assignment to a budget field from a raw (non-budget)
//     non-zero expression: accumulators compose with `+=` (or by
//     transferring an already-budget-typed value, e.g. snapshotting
//     eng.ErrorBudget() into a result field); a raw overwrite is the
//     PR-5 vacuous-certificate bug class, where accrued mass vanishes
//     from the ledger. Zeroing (`= 0`) is reset, always allowed.
//
// The Facts hook summarizes every function: which result positions
// return budget mass, and whether its Budget-typed parameters reach a
// sink. A call does not count as a discharge when the callee's
// summary says the parameter goes nowhere: `helper.Mag(b)` with
// `func Mag(b Budget) bool { return b > 0.5 }` drops b's mass.
// Unknown callees (stdlib, function values, un-analyzed packages) are
// assumed to sink — the CLIs legitimately hand budgets to fmt — so
// facts only tighten the check where a body was analyzed.
var BudgetAnalyzer = &Analyzer{
	Name:  "budget",
	Doc:   "flag dropped budget-carrying values (bare or _ discards, locals that never reach a return, += or sinking call; interprocedural via facts) and raw overwrites of budget accumulators",
	Run:   runBudget,
	Facts: budgetFacts,
}

// budgetNames are the canonical budget accessor/field identifiers.
var budgetNames = map[string]bool{
	"ErrorBudget": true,
	"QuantBudget": true,
}

// budgetFieldNames additionally covers unexported accumulator fields.
var budgetFieldNames = map[string]bool{
	"ErrorBudget": true, "QuantBudget": true,
	"budget": true, "qbudget": true,
}

func runBudget(pass *Pass) error {
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.ExprStmt:
				if call, ok := ast.Unparen(n.X).(*ast.CallExpr); ok && carriesBudget(pass, call) {
					pass.Reportf(n.Pos(), "budget-carrying result of %s is discarded: every approximation mass must reach the caller's ledger (assign and propagate it, or justify with //nrlint:allow budget -- <reason>)", calleeName(call))
				}
			case *ast.AssignStmt:
				checkBudgetAssign(pass, n)
			case *ast.FuncDecl:
				if n.Body != nil {
					for obj, pos := range flowBudget(pass, n.Body, budgetCallObligations(pass, n.Body)) {
						pass.Reportf(pos, "budget value captured in %s never reaches a return, a += accumulator, or a sinking call before scope ends: the accrued mass is dropped from the ledger (propagate it, or justify with //nrlint:allow budget -- <reason>)", obj.Name())
					}
				}
			}
			return true
		})
	}
	return nil
}

// budgetResults is the one budget-carrier test. It reports, per
// result position of call, whether the value carries budget mass:
// typed Budget, the single result of a canonical accessor, or a
// position the callee's BudgetResults fact names. Conversions are not
// call results and yield nil.
func budgetResults(pass *Pass, call *ast.CallExpr) []bool {
	if tv, ok := pass.Info.Types[call.Fun]; ok && tv.IsType() {
		return nil
	}
	var carry []bool
	switch t := pass.TypeOf(call).(type) {
	case *types.Tuple:
		for i := 0; i < t.Len(); i++ {
			carry = append(carry, namedTypeName(t.At(i).Type()) == "Budget")
		}
	default:
		carry = []bool{namedTypeName(t) == "Budget" || budgetNames[calleeBase(call)]}
	}
	if fact, ok := pass.Facts.Func(FactKey(calleeFunc(pass, call))); ok {
		for _, i := range fact.BudgetResults {
			if i < len(carry) {
				carry[i] = true
			}
		}
	}
	return carry
}

// carriesBudget reports whether any result of call carries budget.
func carriesBudget(pass *Pass, call *ast.CallExpr) bool {
	for _, c := range budgetResults(pass, call) {
		if c {
			return true
		}
	}
	return false
}

// checkBudgetAssign flags blank-discards of budget values and raw
// overwrites of budget fields.
func checkBudgetAssign(pass *Pass, as *ast.AssignStmt) {
	// Blank discard: `_ = budgetExpr` or `v, _ := callReturningBudget()`.
	if len(as.Rhs) == 1 && len(as.Lhs) > 1 {
		if call, ok := ast.Unparen(as.Rhs[0]).(*ast.CallExpr); ok {
			for i, carry := range budgetResults(pass, call) {
				if carry && i < len(as.Lhs) && isBlank(as.Lhs[i]) {
					pass.Reportf(as.Lhs[i].Pos(), "budget result %d of %s is discarded into _; propagate it or justify with //nrlint:allow budget -- <reason>", i, calleeName(call))
				}
			}
		}
	} else {
		for i, lhs := range as.Lhs {
			if i < len(as.Rhs) && isBlank(lhs) && isBudgetExpr(pass, as.Rhs[i]) {
				pass.Reportf(lhs.Pos(), "budget value discarded into _; propagate it or justify with //nrlint:allow budget -- <reason>")
			}
		}
	}
	// Raw overwrite: plain `=` to a budget field from a non-budget,
	// non-zero RHS.
	if as.Tok != token.ASSIGN {
		return
	}
	for i, lhs := range as.Lhs {
		if i >= len(as.Rhs) || !isBudgetLHS(pass, lhs) {
			continue
		}
		rhs := as.Rhs[i]
		if isZeroConst(pass, rhs) || isBudgetExpr(pass, rhs) {
			continue
		}
		pass.Reportf(as.Pos(), "plain = overwrites budget accumulator %s with a raw value; the contract is += (or assigning an already-budget-typed expression)", exprString(lhs))
	}
}

// isBudgetExpr reports whether e carries budget mass: a Budget-typed
// expression, a read of a field named like a budget accumulator, a
// budget-carrying call, or a sum of such terms.
func isBudgetExpr(pass *Pass, e ast.Expr) bool {
	e = ast.Unparen(e)
	if tv, ok := pass.Info.Types[e]; ok && tv.Value != nil {
		// A constant is a raw number even when context gives it the
		// Budget type; only zero (reset) is allowed, checked earlier.
		return false
	}
	if namedTypeName(pass.TypeOf(e)) == "Budget" {
		return true
	}
	switch e := e.(type) {
	case *ast.SelectorExpr:
		return budgetFieldNames[e.Sel.Name]
	case *ast.Ident:
		return budgetFieldNames[e.Name]
	case *ast.CallExpr:
		return carriesBudget(pass, e)
	case *ast.BinaryExpr:
		if e.Op == token.ADD {
			return isBudgetExpr(pass, e.X) || isBudgetExpr(pass, e.Y)
		}
	}
	return false
}

// isBudgetLHS reports whether lhs denotes a budget accumulator: a
// field or variable with a canonical budget name, or of type Budget.
func isBudgetLHS(pass *Pass, lhs ast.Expr) bool {
	if namedTypeName(pass.TypeOf(lhs)) == "Budget" {
		return true
	}
	switch lhs := ast.Unparen(lhs).(type) {
	case *ast.SelectorExpr:
		return budgetFieldNames[lhs.Sel.Name]
	case *ast.Ident:
		return budgetFieldNames[lhs.Name]
	}
	return false
}

func isBlank(e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == "_"
}

func isZeroConst(pass *Pass, e ast.Expr) bool {
	tv, ok := pass.Info.Types[e]
	if !ok || tv.Value == nil {
		return false
	}
	switch tv.Value.Kind() {
	case constant.Int, constant.Float:
		v, _ := constant.Float64Val(tv.Value)
		return v == 0
	}
	return false
}

// calleeBase returns the bare method/function name of call.
func calleeBase(call *ast.CallExpr) string {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return fun.Name
	case *ast.SelectorExpr:
		return fun.Sel.Name
	}
	return ""
}

// calleeName returns a readable callee for messages.
func calleeName(call *ast.CallExpr) string {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return fun.Name
	case *ast.SelectorExpr:
		return exprString(fun)
	}
	return "call"
}

// budgetFacts summarizes every declared function: the result
// positions whose return expressions carry budget mass, and whether
// Budget-typed parameters sink.
func budgetFacts(pass *Pass) error {
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			fn, ok := pass.Info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			key := FactKey(fn)
			fact, _ := pass.Facts.Func(key)
			fact.BudgetResults = budgetResultIndices(pass, fd, fn)
			fact.HasBudgetParam, fact.SinksBudget = paramSinkSummary(pass, fd, fn)
			pass.Facts.SetFunc(key, fact)
		}
	}
	return nil
}

// budgetResultIndices returns the result positions of fn whose return
// expressions carry budget mass, looking through conversions —
// `return float64(e.ErrorBudget())` still returns the mass — so a
// wrapper that erases the type at the boundary is summarized.
// Positions typed Budget or named canonically need no fact:
// budgetResults sees them at the call site.
func budgetResultIndices(pass *Pass, fd *ast.FuncDecl, fn *types.Func) []int {
	n := fn.Type().(*types.Signature).Results().Len()
	if n == 0 || fd.Body == nil {
		return nil
	}
	carry := make([]bool, n)
	ast.Inspect(fd.Body, func(node ast.Node) bool {
		if _, isLit := node.(*ast.FuncLit); isLit {
			return false // nested literals return to their own scope
		}
		ret, ok := node.(*ast.ReturnStmt)
		if !ok || len(ret.Results) != n {
			return true
		}
		for i, res := range ret.Results {
			carry[i] = carry[i] || isBudgetSourceExpr(pass, res)
		}
		return true
	})
	var out []int
	for i, c := range carry {
		if c {
			out = append(out, i)
		}
	}
	return out
}

// isBudgetSourceExpr extends isBudgetExpr through conversions.
func isBudgetSourceExpr(pass *Pass, e ast.Expr) bool {
	e = ast.Unparen(e)
	if call, ok := e.(*ast.CallExpr); ok && len(call.Args) == 1 {
		if tv, ok := pass.Info.Types[call.Fun]; ok && tv.IsType() {
			return isBudgetSourceExpr(pass, call.Args[0])
		}
	}
	return isBudgetExpr(pass, e)
}

// paramSinkSummary reports whether fn takes Budget-typed parameters
// and, if so, whether every one of them is discharged by the body.
// Bodiless functions (externally linked, or interface-shaped decls)
// are conservatively assumed to sink.
func paramSinkSummary(pass *Pass, fd *ast.FuncDecl, fn *types.Func) (hasParam, sinks bool) {
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return false, false
	}
	obligations := map[types.Object]token.Pos{}
	for i := 0; i < sig.Params().Len(); i++ {
		p := sig.Params().At(i)
		if namedTypeName(p.Type()) == "Budget" && p.Name() != "" && p.Name() != "_" {
			obligations[p] = p.Pos()
		}
	}
	if len(obligations) == 0 {
		return false, false
	}
	if fd.Body == nil {
		return true, true
	}
	undischarged := flowBudget(pass, fd.Body, obligations)
	return true, len(undischarged) == 0
}

// budgetCallObligations finds locals initialized or assigned from
// budget-carrying call results anywhere in body.
func budgetCallObligations(pass *Pass, body *ast.BlockStmt) map[types.Object]token.Pos {
	obligations := map[types.Object]token.Pos{}
	handlePair := func(lhs []ast.Expr, rhs ast.Expr) {
		call, ok := ast.Unparen(rhs).(*ast.CallExpr)
		if !ok {
			return
		}
		for i, carry := range budgetResults(pass, call) {
			if !carry || i >= len(lhs) {
				continue
			}
			id, ok := lhs[i].(*ast.Ident)
			if !ok || id.Name == "_" {
				continue // blank discards are reported by checkBudgetAssign
			}
			obj := pass.Info.ObjectOf(id)
			if obj == nil || obj.Pos() < body.Pos() || obj.Pos() >= body.End() {
				continue // package-level or parameter: reachable elsewhere
			}
			obligations[obj] = id.Pos()
		}
	}
	bind := func(lhs, rhs []ast.Expr) {
		if len(rhs) == 1 {
			handlePair(lhs, rhs[0])
			return
		}
		for i := range rhs {
			if i < len(lhs) {
				handlePair(lhs[i:i+1], rhs[i])
			}
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if n.Tok == token.DEFINE || n.Tok == token.ASSIGN {
				bind(n.Lhs, n.Rhs)
			}
		case *ast.ValueSpec:
			lhs := make([]ast.Expr, len(n.Names))
			for i, name := range n.Names {
				lhs[i] = name
			}
			bind(lhs, n.Values)
		}
		return true
	})
	return obligations
}

// useKind classifies one appearance of an obligated object.
type useKind int

const (
	useNeutral  useKind = iota // comparison, blank discard: neither sinks nor transfers
	useSink                    // return, ledger, sinking call, escape
	useTransfer                // copied into another local: obligation moves
)

// flowBudget runs the def-use walk: given obligated objects (locals
// holding budget call results, or Budget-typed parameters), it
// returns the subset that never reaches a sink, mapped to their
// report positions. Transfers (`y := x`) move the obligation to the
// destination local; discharge propagates backward through transfer
// edges to fixpoint.
func flowBudget(pass *Pass, body *ast.BlockStmt, obligations map[types.Object]token.Pos) map[types.Object]token.Pos {
	if len(obligations) == 0 {
		return nil
	}
	parents := buildParents(body)

	// Discover transfer targets iteratively: a plain `y := x` (or
	// `y = x`) whose RHS mentions an obligated object makes y
	// obligated too, which can enable further transfers.
	type edge struct{ from, to types.Object }
	var edges []edge
	tracked := map[types.Object]token.Pos{}
	for obj, pos := range obligations {
		tracked[obj] = pos
	}
	for changed := true; changed; {
		changed = false
		ast.Inspect(body, func(n ast.Node) bool {
			as, ok := n.(*ast.AssignStmt)
			if !ok || (as.Tok != token.DEFINE && as.Tok != token.ASSIGN) {
				return true
			}
			if len(as.Lhs) != len(as.Rhs) {
				return true
			}
			for i, rhs := range as.Rhs {
				id, ok := as.Lhs[i].(*ast.Ident)
				if !ok || id.Name == "_" {
					continue
				}
				toObj := pass.Info.ObjectOf(id)
				if toObj == nil || toObj.Pos() < body.Pos() || toObj.Pos() >= body.End() {
					continue // writing to a field/package var is a sink, handled below
				}
				// A fresh local is a transfer even when it is
				// Budget-typed (`c := b` infers Budget): the obligation
				// moves with the copy, it is not yet ledgered.
				for fromObj := range mentionedTracked(pass, rhs, tracked) {
					if fromObj == toObj {
						continue
					}
					if _, known := tracked[toObj]; !known {
						tracked[toObj] = id.Pos()
						changed = true
					}
					edges = append(edges, edge{from: fromObj, to: toObj})
				}
			}
			return true
		})
	}

	// Classify every use of every tracked object.
	sunk := map[types.Object]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj := pass.Info.ObjectOf(id)
		if obj == nil {
			return true
		}
		if _, isTracked := tracked[obj]; !isTracked {
			return true
		}
		if id.Pos() == obj.Pos() {
			return true // the definition itself
		}
		if classifyUse(pass, parents, id) == useSink {
			sunk[obj] = true
		}
		return true
	})

	// Discharge propagates backward through transfers: x is sunk if
	// any local it was copied into is sunk.
	for changed := true; changed; {
		changed = false
		for _, e := range edges {
			if sunk[e.to] && !sunk[e.from] {
				sunk[e.from] = true
				changed = true
			}
		}
	}

	undischarged := map[types.Object]token.Pos{}
	for obj, pos := range obligations {
		if !sunk[obj] {
			undischarged[obj] = pos
		}
	}
	return undischarged
}

// mentionedTracked returns the tracked objects appearing in e.
func mentionedTracked(pass *Pass, e ast.Expr, tracked map[types.Object]token.Pos) map[types.Object]bool {
	out := map[types.Object]bool{}
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if obj := pass.Info.ObjectOf(id); obj != nil {
				if _, isTracked := tracked[obj]; isTracked {
					out[obj] = true
				}
			}
		}
		return true
	})
	return out
}

// buildParents records each node's parent within body.
func buildParents(body *ast.BlockStmt) map[ast.Node]ast.Node {
	parents := map[ast.Node]ast.Node{}
	var stack []ast.Node
	ast.Inspect(body, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		if len(stack) > 0 {
			parents[n] = stack[len(stack)-1]
		}
		stack = append(stack, n)
		return true
	})
	return parents
}

// classifyUse walks from a use of a tracked object up the enclosing
// expression tree and decides whether the use discharges the
// obligation. Conservative in both directions by design: comparisons
// and blank discards never discharge; unknown constructs (escapes,
// stores into arbitrary structures, calls with no summary) always do,
// so only provable drops are reported.
func classifyUse(pass *Pass, parents map[ast.Node]ast.Node, id *ast.Ident) useKind {
	var child ast.Node = id
	for n := parents[child]; n != nil; child, n = n, parents[n] {
		switch n := n.(type) {
		case *ast.ParenExpr:
			continue
		case *ast.BinaryExpr:
			switch n.Op {
			case token.EQL, token.NEQ, token.LSS, token.GTR, token.LEQ, token.GEQ,
				token.LAND, token.LOR:
				return useNeutral // the mass does not travel through a bool
			}
			continue // arithmetic: the composite value carries the mass
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				return useSink // address escapes: assume reachable
			}
			continue
		case *ast.CallExpr:
			if tv, ok := pass.Info.Types[n.Fun]; ok && tv.IsType() {
				continue // conversion: the converted value still carries mass
			}
			if inCallFun(n, child) {
				return useSink // method call on the value: assume ledger-like
			}
			return classifyCallArg(pass, n)
		case *ast.ReturnStmt:
			return useSink
		case *ast.AssignStmt:
			return classifyAssignUse(pass, n, child)
		case *ast.ValueSpec:
			return useTransfer // var y = x: transfer edges handle it
		case *ast.KeyValueExpr, *ast.CompositeLit, *ast.SendStmt,
			*ast.IndexExpr, *ast.SliceExpr, *ast.StarExpr:
			return useSink // stored or forwarded somewhere: assume reachable
		case *ast.IncDecStmt, *ast.RangeStmt:
			return useSink
		case ast.Stmt:
			// Reached a bare statement (if/for condition fragments fall
			// out via the comparison case above): conservative.
			return useSink
		}
	}
	return useSink
}

// inCallFun reports whether child sits inside call's Fun (receiver /
// callee position) rather than its arguments.
func inCallFun(call *ast.CallExpr, child ast.Node) bool {
	return child.Pos() >= call.Fun.Pos() && child.End() <= call.Fun.End()
}

// classifyCallArg decides whether passing a tracked value to call
// discharges the obligation. Only a summarized callee whose
// Budget-typed parameters provably go nowhere refuses the discharge;
// everything else — stdlib, function values, un-analyzed packages,
// callees that take the value as a raw float — is assumed to sink.
func classifyCallArg(pass *Pass, call *ast.CallExpr) useKind {
	fn := calleeFunc(pass, call)
	if fn == nil {
		return useSink
	}
	fact, ok := pass.Facts.Func(FactKey(fn))
	if !ok {
		return useSink
	}
	if fact.HasBudgetParam && !fact.SinksBudget {
		return useNeutral
	}
	return useSink
}

// classifyAssignUse handles a tracked value on either side of an
// assignment.
func classifyAssignUse(pass *Pass, as *ast.AssignStmt, child ast.Node) useKind {
	// Locate which position child occupies.
	for _, lhs := range as.Lhs {
		if within(lhs, child) {
			return useNeutral // overwritten / re-bound: not a discharge
		}
	}
	for i, rhs := range as.Rhs {
		if !within(rhs, child) {
			continue
		}
		if as.Tok != token.DEFINE && as.Tok != token.ASSIGN {
			return useSink // += onto an accumulator (the contract) or any other store
		}
		lhs := as.Lhs[0]
		if len(as.Lhs) == len(as.Rhs) {
			lhs = as.Lhs[i]
		}
		if isBlank(lhs) {
			return useNeutral // `_ = x` does not ledger the mass
		}
		if id, ok := lhs.(*ast.Ident); ok {
			if obj := pass.Info.ObjectOf(id); obj != nil {
				if _, isVar := obj.(*types.Var); isVar && obj.Pkg() != nil && obj.Parent() != obj.Pkg().Scope() {
					// Copied into another local — even a Budget-typed
					// one: the transfer edges decide whether the copy
					// is eventually ledgered.
					return useTransfer
				}
			}
		}
		return useSink // stored into a budget field, map, slice, …: assume reachable
	}
	return useSink
}

// within reports whether child's span lies inside node's.
func within(node ast.Node, child ast.Node) bool {
	return child.Pos() >= node.Pos() && child.End() <= node.End()
}

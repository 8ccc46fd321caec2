package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// DetRange flags map iteration whose body has order-bearing effects. Go
// randomises map iteration order per run, so a `for k := range m` whose body
// schedules kernel events, calls into simulation state, sends on a channel,
// or appends to a slice produces a different event interleaving every
// execution — the exact nondeterminism the replay guarantee forbids.
//
// Order-insensitive bodies stay legal: pure reads, commutative aggregation
// (sums, maxima), writes into another map keyed by the iteration variable,
// and the collect-then-sort idiom (append the keys, sort them after the
// loop, then iterate the slice). A maximum stops being order-insensitive
// once the body also remembers *which* key attained it: storing the
// iteration key in a variable declared outside the loop (the argmax idiom)
// picks among tied values in iteration order, so it is flagged.
var DetRange = &Analyzer{
	Name: "detrange",
	Doc: "flag range-over-map whose body schedules events, calls into simulation state, sends, " +
		"appends order-bearing slices, or keeps the key of an argmax; sort the keys first " +
		"(waive with //lint:allow-maprange)",
	Run: runDetRange,
}

func runDetRange(pass *Pass) {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				rs, ok := n.(*ast.RangeStmt)
				if !ok {
					return true
				}
				tv, ok := pass.Info.Types[rs.X]
				if !ok {
					return true
				}
				if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
					return true
				}
				if pass.Allowed("allow-maprange", rs.Pos()) {
					return true
				}
				if effect := pass.mapRangeEffect(fd, rs); effect != "" {
					pass.Reportf(rs.Pos(),
						"map iteration order is random but the loop body %s; iterate sorted keys instead (or annotate //lint:allow-maprange <reason>)",
						effect)
				}
				return true
			})
		}
	}
}

// mapRangeEffect describes the first order-bearing effect in the body of a
// map-range statement, or "" when the body is order-insensitive.
func (pass *Pass) mapRangeEffect(fn *ast.FuncDecl, rs *ast.RangeStmt) string {
	var key types.Object
	if id, ok := rs.Key.(*ast.Ident); ok {
		key = pass.Info.Defs[id]
		if key == nil {
			key = pass.Info.Uses[id]
		}
	}
	effect := ""
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		if effect != "" {
			return false
		}
		switch n := n.(type) {
		case *ast.SendStmt:
			effect = "sends on a channel"
		case *ast.AssignStmt:
			if dest := appendDest(pass.Info, n); dest != nil && pass.destOutlivesLoop(dest, rs) &&
				!pass.sortedAfter(fn, rs, dest) {
				effect = "appends to a slice that outlives the loop (and is not sorted afterwards)"
			} else if dest := pass.keyStore(n, key, rs); dest != "" {
				effect = "stores the iteration key in " + dest +
					", declared outside the loop, so tied values resolve in iteration order"
			}
		case *ast.CallExpr:
			if tv, ok := pass.Info.Types[n.Fun]; ok && tv.IsType() {
				return true // type conversion, not a call
			}
			if fnObj := callee(pass.Info, n); fnObj != nil {
				if pkg := fnObj.Pkg(); pkg != nil && pass.isLocal(pkg.Path()) {
					effect = "calls " + fnObj.Name() + ", which can reach simulation or placement state"
				}
			} else if builtinName(pass.Info, n) == "" {
				// A call through a function value could do anything; the
				// type system cannot prove it order-insensitive.
				effect = "calls through a function value"
			}
		}
		return effect == ""
	})
	return effect
}

// keyStore returns the destination of a plain assignment in a map-range body
// that copies the iteration key into a location declared outside the loop,
// or "". Writes indexed by the key, and writes through variables declared in
// the loop, are per-key rather than a single winner and stay legal.
func (pass *Pass) keyStore(as *ast.AssignStmt, key types.Object, rs *ast.RangeStmt) string {
	if key == nil || as.Tok != token.ASSIGN || len(as.Lhs) != len(as.Rhs) {
		return ""
	}
	for i, rhs := range as.Rhs {
		if !pass.isKey(rhs, key) {
			continue
		}
		lhs := ast.Unparen(as.Lhs[i])
		if ix, ok := lhs.(*ast.IndexExpr); ok && pass.isKey(ix.Index, key) {
			continue
		}
		if root := rootIdent(lhs); root != nil && root.Name != "_" && pass.destOutlivesLoop(root, rs) {
			return types.ExprString(lhs)
		}
	}
	return ""
}

// isKey reports whether e is the iteration key, possibly converted.
func (pass *Pass) isKey(e ast.Expr, key types.Object) bool {
	e = ast.Unparen(e)
	if call, ok := e.(*ast.CallExpr); ok && len(call.Args) == 1 {
		if tv, ok := pass.Info.Types[call.Fun]; ok && tv.IsType() {
			e = ast.Unparen(call.Args[0])
		}
	}
	id, ok := e.(*ast.Ident)
	return ok && pass.Info.Uses[id] == key
}

// rootIdent returns the variable an assignable expression writes through:
// x for x, x.f, x[i] and *x.
func rootIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			return x
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// appendDest returns the assignment destination expression of an
// `x = append(x, ...)` statement, or nil.
func appendDest(info *types.Info, as *ast.AssignStmt) ast.Expr {
	for i, rhs := range as.Rhs {
		call, ok := ast.Unparen(rhs).(*ast.CallExpr)
		if !ok || builtinName(info, call) != "append" {
			continue
		}
		if i < len(as.Lhs) {
			return as.Lhs[i]
		}
	}
	return nil
}

// destOutlivesLoop reports whether the assignment destination was declared
// outside the range statement (so iteration order leaks out through it).
// Field selectors and index expressions always outlive the loop.
func (pass *Pass) destOutlivesLoop(dest ast.Expr, rs *ast.RangeStmt) bool {
	id, ok := ast.Unparen(dest).(*ast.Ident)
	if !ok {
		return true
	}
	obj := pass.Info.Uses[id]
	if obj == nil {
		obj = pass.Info.Defs[id]
	}
	if obj == nil {
		return true
	}
	return obj.Pos() < rs.Pos() || obj.Pos() >= rs.End()
}

// sortedAfter reports whether dest is handed to a sort/slices sorting call
// after the loop within the same function — the collect-then-sort idiom that
// restores a deterministic order before anyone observes the slice.
func (pass *Pass) sortedAfter(fn *ast.FuncDecl, rs *ast.RangeStmt, dest ast.Expr) bool {
	id, ok := ast.Unparen(dest).(*ast.Ident)
	if !ok {
		return false
	}
	obj := pass.Info.Uses[id]
	if obj == nil {
		obj = pass.Info.Defs[id]
	}
	if obj == nil {
		return false
	}
	sorted := false
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		if sorted {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < rs.End() || len(call.Args) == 0 {
			return true
		}
		sortFn := callee(pass.Info, call)
		if sortFn == nil || sortFn.Pkg() == nil {
			return true
		}
		if p := sortFn.Pkg().Path(); p != "sort" && p != "slices" {
			return true
		}
		if argID, ok := ast.Unparen(call.Args[0]).(*ast.Ident); ok && pass.Info.Uses[argID] == obj {
			sorted = true
		}
		return !sorted
	})
	return sorted
}

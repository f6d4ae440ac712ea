package main_test

import (
	"go/ast"
	"go/types"
	"strings"
	"testing"
)

// TestMapRangeOrder fails on a range over a map in a non-test file of
// internal/mdcc, whose actors must be functions of their state and input
// (ROADMAP item 27), or of internal/core and internal/simnet, which run on
// the same deterministic virtual clock: Go randomizes map order, so a loop
// that emits outputs, numbers them or draws from a stream in map order
// makes two copies of an actor in one state, or two same-seed runs, part
// ways. A map range passes when its body only
// appends to a slice that the statement right after the loop sorts, or
// when it carries a "// order-free: <reason>" comment on its line or on the
// line above.
func TestMapRangeOrder(t *testing.T) {
	p := loadTyped(t)
	for _, path := range []string{"planet/internal/mdcc", "planet/internal/core", "planet/internal/simnet"} {
		checkMapRanges(t, p, p.pkgs[path])
	}
}

// checkMapRanges reports every unsorted, unmarked map range in tp's
// non-test files.
func checkMapRanges(t *testing.T, p *typedProgram, tp *typedPkg) {
	for _, f := range tp.files {
		marked := make(map[int]bool) // lines an order-free comment covers
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if reason, ok := strings.CutPrefix(c.Text, "// order-free:"); ok && strings.TrimSpace(reason) != "" {
					marked[p.fset.Position(c.Slash).Line] = true
					marked[p.fset.Position(cg.End()).Line] = true
				}
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			var list []ast.Stmt
			switch b := n.(type) {
			case *ast.BlockStmt:
				list = b.List
			case *ast.CaseClause:
				list = b.Body
			case *ast.CommClause:
				list = b.Body
			}
			for i, st := range list {
				if l, ok := st.(*ast.LabeledStmt); ok {
					st = l.Stmt
				}
				rs, ok := st.(*ast.RangeStmt)
				if !ok {
					continue
				}
				if _, isMap := tp.info.TypeOf(rs.X).Underlying().(*types.Map); !isMap {
					continue
				}
				pos := p.fset.Position(rs.For)
				if marked[pos.Line] || marked[pos.Line-1] || i+1 < len(list) && sortsCollected(rs, list[i+1]) {
					continue
				}
				t.Errorf("%s: range over map %s in map order (collect and sort its keys, or mark the loop // order-free: <reason>)",
					pos, types.ExprString(rs.X))
			}
			return true
		})
	}
}

// sortsCollected reports whether rs's body is one s = append(s, …) and
// next sorts s with a function of package sort or slices.
func sortsCollected(rs *ast.RangeStmt, next ast.Stmt) bool {
	if len(rs.Body.List) != 1 {
		return false
	}
	as, ok := rs.Body.List[0].(*ast.AssignStmt)
	if !ok || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
		return false
	}
	app, ok := as.Rhs[0].(*ast.CallExpr)
	if !ok || types.ExprString(app.Fun) != "append" || len(app.Args) < 2 {
		return false
	}
	s := types.ExprString(as.Lhs[0])
	if types.ExprString(app.Args[0]) != s {
		return false
	}
	es, ok := next.(*ast.ExprStmt)
	if !ok {
		return false
	}
	call, ok := es.X.(*ast.CallExpr)
	if !ok || len(call.Args) == 0 || types.ExprString(call.Args[0]) != s {
		return false
	}
	fn := types.ExprString(call.Fun)
	return strings.HasPrefix(fn, "sort.") || strings.HasPrefix(fn, "slices.Sort")
}

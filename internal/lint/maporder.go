package lint

import (
	"go/ast"
	"go/types"
)

// MapOrder flags `range` over a map whose loop body writes to an
// output-bearing sink: Go randomises map iteration order per run, so any
// CSV row, printed line, escaping append, or field write produced inside
// such a loop lands in a different order on every execution — exactly the
// nondeterminism the repository's byte-identical-results guarantee
// forbids.
//
// Sinks:
//   - fmt printing (Print/Printf/Println/Fprint/Fprintf/Fprintln),
//   - writer-shaped method calls (Write, WriteString, WriteAll, WriteRow,
//     WriteByte, WriteRune, Print, Printf, Println, Record, Emit —
//     telemetry events carry sequence numbers, so emission order is
//     output order),
//   - append whose destination is declared outside the loop (the slice
//     escapes carrying map-ordered elements),
//   - assignment to a field or slice/array element of a variable declared
//     outside the loop (last-writer-wins in map order).
//
// The one recognised idiom is collect-then-sort: an escaping append is
// exempt when the destination slice is later passed to a sort.* /
// slices.* call in the same function. Anything else needs sorted keys
// first, or a //simlint:ignore maporder <reason> annotation.
var MapOrder = &Analyzer{
	Name: mapOrderName,
	Run:  runMapOrder,
}

// mapOrderName is referenced from the interprocedural core (summary.go);
// a named constant keeps the Analyzer var out of its own init cycle.
const mapOrderName = "maporder"

// writerMethods are method names that emit ordered output.
var writerMethods = map[string]bool{
	"Write": true, "WriteString": true, "WriteAll": true, "WriteRow": true,
	"WriteByte": true, "WriteRune": true, "Print": true, "Printf": true,
	"Println": true, "Record": true, "Emit": true,
}

// fmtPrinters are the fmt package functions that write output.
var fmtPrinters = map[string]bool{
	"Print": true, "Printf": true, "Println": true,
	"Fprint": true, "Fprintf": true, "Fprintln": true,
}

func runMapOrder(p *Pass) {
	for _, file := range p.Pkg.Files {
		imports := pkgImports(file)
		// funcs stacks the enclosing function bodies so the
		// collect-then-sort exemption can scan the innermost one.
		var funcs []ast.Node
		var walk func(n ast.Node) bool
		walk = func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl, *ast.FuncLit:
				funcs = append(funcs, n)
				ast.Inspect(childrenOf(n), walk)
				funcs = funcs[:len(funcs)-1]
				return false
			case *ast.RangeStmt:
				p.checkMapRange(imports, n, enclosing(funcs))
			}
			return true
		}
		ast.Inspect(file, walk)
	}
}

// childrenOf returns the body to recurse into for a function node.
func childrenOf(n ast.Node) ast.Node {
	switch n := n.(type) {
	case *ast.FuncDecl:
		if n.Body != nil {
			return n.Body
		}
	case *ast.FuncLit:
		return n.Body
	}
	return &ast.BlockStmt{}
}

// enclosing returns the innermost enclosing function node, or nil.
func enclosing(funcs []ast.Node) ast.Node {
	if len(funcs) == 0 {
		return nil
	}
	return funcs[len(funcs)-1]
}

// checkMapRange reports rs when it iterates a map and its body reaches an
// output sink.
func (p *Pass) checkMapRange(imports map[string]string, rs *ast.RangeStmt, fn ast.Node) {
	t := p.typeOf(rs.X)
	if t == nil {
		return // type info unavailable: stay silent rather than guess
	}
	if _, isMap := t.Underlying().(*types.Map); !isMap {
		return
	}
	if sink, chain := p.findSink(imports, rs, fn); sink != "" {
		if len(chain) > 0 {
			p.reportChain(rs.Pos(), chain, "map iterated in nondeterministic order %s; sort the keys first", sink)
		} else {
			p.Reportf(rs.Pos(), "map iterated in nondeterministic order %s; sort the keys first", sink)
		}
	}
}

// findSink scans the loop body for the first output-bearing sink and
// describes it ("" when none). Sinks may be a call away: a call to a
// module function whose summarized closure emits output counts, with the
// emission chain returned for declaration-level suppression.
func (p *Pass) findSink(imports map[string]string, rs *ast.RangeStmt, fn ast.Node) (string, []*types.Func) {
	var sink string
	var chain []*types.Func
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		if sink != "" {
			return false
		}
		switch n := n.(type) {
		case *ast.CallExpr:
			if path, sel, ok := p.selectorPackage(imports, n.Fun); ok {
				if path == "fmt" && fmtPrinters[sel] {
					sink = "into fmt." + sel
					return true
				}
			} else if s, ok := n.Fun.(*ast.SelectorExpr); ok && writerMethods[s.Sel.Name] {
				sink = "into a ." + s.Sel.Name + " call"
				return true
			}
			// Interprocedural: the loop body calls a module function
			// whose call closure emits output.
			if node := p.graph.nodeFor(calleeFunc(p.Pkg, n)); node != nil {
				if f := p.graph.emitFact(node); f != nil {
					desc, fns := p.graph.chainFrom(node, f.key)
					sink, chain = "into a call whose closure emits output ("+desc+")", fns
				}
			}
		case *ast.AssignStmt:
			sink = p.assignSink(rs, fn, n)
		}
		return true
	})
	return sink, chain
}

// assignSink classifies an assignment inside the loop body.
func (p *Pass) assignSink(rs *ast.RangeStmt, fn ast.Node, as *ast.AssignStmt) string {
	// Escaping append: x = append(x, ...) with x declared outside the
	// loop. Exempt when x is sorted later in the enclosing function
	// (the collect-then-sort idiom).
	for i, rhs := range as.Rhs {
		call, ok := rhs.(*ast.CallExpr)
		if !ok || len(as.Lhs) <= i {
			continue
		}
		if id, ok := call.Fun.(*ast.Ident); !ok || id.Name != "append" {
			continue
		}
		dst, ok := as.Lhs[i].(*ast.Ident)
		if !ok || !p.declaredOutside(dst, rs) {
			continue
		}
		if p.sortedLater(dst, fn) {
			continue
		}
		return "into an append to " + dst.Name + ", which escapes the loop unsorted"
	}
	for _, lhs := range as.Lhs {
		switch l := lhs.(type) {
		case *ast.SelectorExpr:
			if root := rootIdent(l.X); root != nil && p.declaredOutside(root, rs) {
				return "into field " + root.Name + "." + l.Sel.Name
			}
		case *ast.IndexExpr:
			// Writing m2[k] = v builds a map (order-free); writing a
			// slice/array element in map order is a sink.
			if t := p.typeOf(l.X); t != nil {
				if _, isMap := t.Underlying().(*types.Map); isMap {
					continue
				}
			}
			if root := rootIdent(l.X); root != nil && p.declaredOutside(root, rs) {
				return "into an element of " + root.Name
			}
		}
	}
	return ""
}

// rootIdent unwraps x.y.z / x[i] chains to the base identifier.
func rootIdent(e ast.Expr) *ast.Ident {
	for {
		switch v := e.(type) {
		case *ast.Ident:
			return v
		case *ast.SelectorExpr:
			e = v.X
		case *ast.IndexExpr:
			e = v.X
		case *ast.ParenExpr:
			e = v.X
		case *ast.StarExpr:
			e = v.X
		default:
			return nil
		}
	}
}

// declaredOutside reports whether id's declaration lies outside the range
// statement (true also when type info is unavailable: without it the
// conservative reading is that the value escapes).
func (p *Pass) declaredOutside(id *ast.Ident, rs *ast.RangeStmt) bool {
	obj := p.objectOf(id)
	if obj == nil {
		return true
	}
	return obj.Pos() < rs.Pos() || obj.Pos() > rs.End()
}

// sortedLater reports whether slice is passed to a sort.* or slices.*
// call anywhere in the enclosing function — the collect-then-sort idiom.
func (p *Pass) sortedLater(slice *ast.Ident, fn ast.Node) bool {
	if fn == nil {
		return false
	}
	target := p.objectOf(slice)
	found := false
	ast.Inspect(childrenOf(fn), func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		pkg, ok := sel.X.(*ast.Ident)
		if !ok || (pkg.Name != "sort" && pkg.Name != "slices") {
			return true
		}
		for _, arg := range call.Args {
			if id, ok := arg.(*ast.Ident); ok {
				if target == nil && id.Name == slice.Name {
					found = true
				}
				if target != nil && p.objectOf(id) == target {
					found = true
				}
			}
		}
		return true
	})
	return found
}

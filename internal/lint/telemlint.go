package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// TelemLint keeps the telemetry schema closed. The golden-snapshot tests
// diff full metric dumps byte-for-byte, which only works when the set of
// metric keys is fixed at compile time and every handle is visible to the
// Registry. Outside the telemetry package itself:
//
//   - telemetry handles (Counter, Gauge, Histogram) and the Registry are
//     never constructed literally — a literal handle is invisible to
//     Snapshot, and a literal Registry has no metrics map and panics on
//     first use; handles come from Sink.Counter/Gauge/Histogram and
//     registries from telemetry.NewRegistry;
//   - the subsystem and name arguments of Counter/Gauge/Histogram calls
//     are compile-time constants (the scope argument is legitimately
//     per-instance: a VF name, an NVMe namespace). One level of
//     forwarding is understood: a helper that passes its own parameter
//     into the name position is checked at each of its call sites
//     instead, so the bumpHealth(name) pattern stays ergonomic without
//     opening the schema.
var TelemLint = &Analyzer{
	Name: "telemlint",
	Run:  runTelemLint,
}

// telemHandleTypes are the telemetry types that must not be constructed
// literally outside their package.
var telemHandleTypes = map[string]bool{
	"Counter": true, "Gauge": true, "Histogram": true, "Registry": true,
}

// telemMetricMethods are the Sink/Registry methods whose subsystem and
// name arguments define the metric schema.
var telemMetricMethods = map[string]bool{"Counter": true, "Gauge": true, "Histogram": true}

// telemCheckedArgs are the argument positions of
// Counter/Gauge/Histogram(subsystem, scope, name, ...) that must be
// constant, by human-readable role.
var telemCheckedArgs = []struct {
	index int
	role  string
}{{0, "subsystem"}, {2, "name"}}

// telemetryPackage reports whether path is a telemetry implementation
// package (exempt: it legitimately builds its own handles).
func telemetryPackage(path string) bool {
	return path == "telemetry" || strings.HasSuffix(path, "/telemetry")
}

func runTelemLint(p *Pass) {
	if telemetryPackage(p.Pkg.Path) || p.graph == nil {
		return
	}
	for _, file := range p.Pkg.Files {
		for _, decl := range file.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				fn, _ := p.Pkg.Info.Defs[fd.Name].(*types.Func)
				p.telemInspect(fd.Body, fn)
				continue
			}
			p.telemInspect(decl, nil) // package-level initialisers
		}
	}
}

// telemInspect walks one region with a known enclosing function (nil at
// package level).
func (p *Pass) telemInspect(root ast.Node, enclosing *types.Func) {
	ast.Inspect(root, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CompositeLit:
			if name := p.telemHandleType(n); name != "" {
				p.reportLiteral(n.Pos(), name)
			}
		case *ast.CallExpr:
			p.checkTelemCall(n, enclosing)
		}
		return true
	})
}

// telemHandleType names the telemetry handle type a composite literal
// builds, or "".
func (p *Pass) telemHandleType(lit *ast.CompositeLit) string {
	t := p.typeOf(lit)
	if t == nil {
		return ""
	}
	named, ok := t.(*types.Named)
	if !ok {
		return ""
	}
	obj := named.Obj()
	if obj.Pkg() == nil || !telemetryPackage(obj.Pkg().Path()) || !telemHandleTypes[obj.Name()] {
		return ""
	}
	return obj.Pkg().Name() + "." + obj.Name()
}

func (p *Pass) reportLiteral(pos token.Pos, name string) {
	if strings.HasSuffix(name, ".Registry") {
		p.Reportf(pos, "literal %s has no metrics map and panics on first use; construct it with telemetry.NewRegistry", name)
		return
	}
	p.Reportf(pos, "literal %s is invisible to Snapshot; obtain the handle from the Registry (Sink.Counter/Gauge/Histogram)", name)
}

// checkTelemCall handles the two call-shaped rules: new(telemetry.T), and
// constant subsystem/name arguments (directly or through one forwarding
// level).
func (p *Pass) checkTelemCall(call *ast.CallExpr, enclosing *types.Func) {
	// new(telemetry.Counter) builds a handle just like a literal.
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "new" && len(call.Args) == 1 {
		if b, ok := p.objectOf(id).(*types.Builtin); ok && b.Name() == "new" {
			if t := p.typeOf(call.Args[0]); t != nil {
				if named, ok := t.(*types.Named); ok {
					obj := named.Obj()
					if obj.Pkg() != nil && telemetryPackage(obj.Pkg().Path()) && telemHandleTypes[obj.Name()] {
						p.reportLiteral(call.Pos(), obj.Pkg().Name()+"."+obj.Name())
					}
				}
			}
		}
		return
	}

	if fn := p.telemMetricCallee(call); fn != nil {
		for _, pos := range telemCheckedArgs {
			if pos.index >= len(call.Args) {
				continue
			}
			arg := call.Args[pos.index]
			if p.constValue(arg) {
				continue
			}
			if p.paramIndex(enclosing, arg) >= 0 {
				continue // forwarded parameter: checked at the call sites
			}
			p.Reportf(arg.Pos(),
				"telemetry %s (argument of %s.%s) must be a compile-time constant so the snapshot schema stays closed",
				pos.role, "Sink", fn.Name())
		}
		return
	}

	// One forwarding level: a call to a module function that passes one
	// of its parameters into a metric subsystem/name position.
	callee := calleeFunc(p.Pkg, call)
	for _, w := range p.graph.telemWrapperParams(callee) {
		if w.param >= len(call.Args) {
			continue
		}
		arg := call.Args[w.param]
		if p.constValue(arg) {
			continue
		}
		p.Reportf(arg.Pos(),
			"telemetry %s forwarded through %s must be a compile-time constant at the call site (simlint follows one forwarding level)",
			w.role, funcDisplayName(callee))
	}
}

// telemMetricCallee resolves call to a telemetry Counter/Gauge/Histogram
// method (Registry or the Sink interface), or nil.
func (p *Pass) telemMetricCallee(call *ast.CallExpr) *types.Func {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || p.Pkg.Info == nil {
		return nil
	}
	fn, _ := p.Pkg.Info.Uses[sel.Sel].(*types.Func)
	if fn == nil || fn.Pkg() == nil {
		return nil
	}
	if !telemetryPackage(fn.Pkg().Path()) || !telemMetricMethods[fn.Name()] {
		return nil
	}
	sig, _ := fn.Type().(*types.Signature)
	if sig == nil || sig.Recv() == nil {
		return nil
	}
	return fn
}

// paramIndex returns the index of arg within fn's parameters, or -1 when
// arg is not a bare parameter of fn.
func (p *Pass) paramIndex(fn *types.Func, arg ast.Expr) int {
	if fn == nil {
		return -1
	}
	id, ok := ast.Unparen(arg).(*ast.Ident)
	if !ok {
		return -1
	}
	obj := p.objectOf(id)
	if obj == nil {
		return -1
	}
	sig, _ := fn.Type().(*types.Signature)
	if sig == nil {
		return -1
	}
	for i := 0; i < sig.Params().Len(); i++ {
		if sig.Params().At(i) == obj {
			return i
		}
	}
	return -1
}

// telemWrapper records one forwarded metric-name parameter of a wrapper
// function.
type telemWrapper struct {
	param int
	role  string
}

// telemWrapperParams returns the parameter positions of fn that flow into
// a telemetry subsystem/name argument inside fn's own body. The map over
// the whole module is built once, on first use.
func (g *Graph) telemWrapperParams(fn *types.Func) []telemWrapper {
	if g == nil || fn == nil {
		return nil
	}
	if g.telemWrappers == nil {
		g.buildTelemWrappers()
	}
	return g.telemWrappers[fn]
}

func (g *Graph) buildTelemWrappers() {
	g.telemWrappers = map[*types.Func][]telemWrapper{}
	for _, n := range g.order {
		if telemetryPackage(n.pkg.Path) {
			continue
		}
		pass := &Pass{Fset: g.mod.Fset, Pkg: n.pkg, graph: g}
		node := n
		ast.Inspect(n.decl.Body, func(x ast.Node) bool {
			call, ok := x.(*ast.CallExpr)
			if !ok || pass.telemMetricCallee(call) == nil {
				return true
			}
			for _, pos := range telemCheckedArgs {
				if pos.index >= len(call.Args) {
					continue
				}
				if i := pass.paramIndex(node.fn, call.Args[pos.index]); i >= 0 {
					g.telemWrappers[node.fn] = append(g.telemWrappers[node.fn],
						telemWrapper{param: i, role: pos.role})
				}
			}
			return true
		})
		sort.Slice(g.telemWrappers[n.fn], func(i, j int) bool {
			return g.telemWrappers[n.fn][i].param < g.telemWrappers[n.fn][j].param
		})
	}
}

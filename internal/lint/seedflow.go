package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// SeedFlow enforces the repository's seeding contract in simulation
// packages: every RNG stream derives from a seed that was threaded in as
// a parameter or computed from an id (harness.DeriveSeed, a splitmix64
// offset), never hard-coded and never shared process-wide. Concretely:
//
//   - a compile-time-constant argument passed to any parameter whose name
//     contains "seed" is flagged — a literal seed makes every instance
//     draw the same stream, which silently decorrelates nothing and
//     masks per-host divergence the fleet experiments rely on;
//   - a package-level variable of a math/rand (or /v2) stream type
//     (Rand, Source, Zipf) is flagged — a shared global stream couples
//     the draw order of otherwise independent components, so adding a
//     draw in one place perturbs results everywhere.
//
// Seed parameters are recognised by name (case-insensitive substring
// "seed"), which matches both the module's constructors
// (faults.NewInjector(seed uint64), pkt.NewFlowSet(n, vlan, seed)) and
// the standard library (rand.NewSource(seed int64)).
var SeedFlow = &Analyzer{
	Name: "seedflow",
	Run:  runSeedFlow,
}

// randStreamTypes are the math/rand type names that hold stream state.
var randStreamTypes = map[string]bool{"Rand": true, "Source": true, "Source64": true, "Zipf": true}

func runSeedFlow(p *Pass) {
	if !simulationPackage(p.Pkg.Path) {
		return
	}
	for _, file := range p.Pkg.Files {
		for _, decl := range file.Decls {
			if gd, ok := decl.(*ast.GenDecl); ok {
				p.checkGlobalStreams(gd)
			}
		}
		ast.Inspect(file, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				p.checkSeedArgs(call)
			}
			return true
		})
	}
}

// checkGlobalStreams flags package-level vars of RNG stream type.
func (p *Pass) checkGlobalStreams(gd *ast.GenDecl) {
	for _, spec := range gd.Specs {
		vs, ok := spec.(*ast.ValueSpec)
		if !ok {
			continue
		}
		for _, name := range vs.Names {
			obj := p.objectOf(name)
			v, isVar := obj.(*types.Var)
			if !isVar || v.Parent() != p.Pkg.Types.Scope() {
				continue // only package scope; consts and locals are fine
			}
			if tn := randStreamType(v.Type()); tn != "" {
				p.Reportf(name.Pos(),
					"package-level %s is a shared RNG stream: draws from unrelated call sites interleave, so any code change reorders everyone's randomness; make it per-instance state seeded from a parameter", tn)
			}
		}
	}
}

// randStreamType names the math/rand stream type behind t ("" when t is
// not one), unwrapping one level of pointer.
func randStreamType(t types.Type) string {
	if pt, ok := t.(*types.Pointer); ok {
		t = pt.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return ""
	}
	obj := named.Obj()
	if obj.Pkg() == nil {
		return ""
	}
	path := obj.Pkg().Path()
	if (path == "math/rand" || path == "math/rand/v2") && randStreamTypes[obj.Name()] {
		return "*" + obj.Pkg().Name() + "." + obj.Name()
	}
	return ""
}

// checkSeedArgs flags compile-time-constant arguments bound to seed-named
// parameters of the callee.
func (p *Pass) checkSeedArgs(call *ast.CallExpr) {
	sigType := p.typeOf(call.Fun)
	if sigType == nil {
		return
	}
	sig, ok := sigType.Underlying().(*types.Signature)
	if !ok {
		return // conversion or type-info gap
	}
	params := sig.Params()
	for i, arg := range call.Args {
		if i >= params.Len() {
			break
		}
		if sig.Variadic() && i == params.Len()-1 {
			break // variadic tail: positional mapping ends here
		}
		param := params.At(i)
		if !strings.Contains(strings.ToLower(param.Name()), "seed") {
			continue
		}
		if p.constValue(arg) {
			p.Reportf(arg.Pos(),
				"constant seed for parameter %q of %s: every instance draws the identical stream; derive it from the run seed (harness.DeriveSeed) or an id-based offset", param.Name(), calleeName(call))
		}
	}
}

// calleeName renders the called expression for a finding message.
func calleeName(call *ast.CallExpr) string {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return fun.Name
	case *ast.SelectorExpr:
		if id, ok := fun.X.(*ast.Ident); ok {
			return id.Name + "." + fun.Sel.Name
		}
		return fun.Sel.Name
	}
	return "the call"
}

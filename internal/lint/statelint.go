package lint

import (
	"go/ast"
	"go/types"
	"sort"
	"strings"
)

// StateLint enforces switch exhaustiveness over the module's FSM types.
// A type opts in by carrying a //simlint:enum marker on its declaration
// (the control FSM's policy.State, the fault injector's faults.Kind); its
// members are the package-level constants of exactly that type, so an
// untyped sentinel like NumKinds int is automatically excluded.
//
// Every switch whose tag has an enum type must either list every member
// or carry an explicit default clause. Adding a state or fault kind then
// breaks lint at each switch that forgot to handle it — the failure the
// daemon FSM previously only hit at runtime, as a silently-ignored
// transition. Switches containing a case expression statelint cannot
// resolve to a constant stay un-flagged: without the full case set the
// analyzer cannot claim non-exhaustiveness.
var StateLint = &Analyzer{
	Name: "statelint",
	Run:  runStateLint,
}

func runStateLint(p *Pass) {
	if p.graph == nil {
		return
	}
	for _, file := range p.Pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			if sw, ok := n.(*ast.SwitchStmt); ok && sw.Tag != nil {
				p.checkEnumSwitch(sw)
			}
			return true
		})
	}
}

func (p *Pass) checkEnumSwitch(sw *ast.SwitchStmt) {
	t := p.typeOf(sw.Tag)
	if t == nil {
		return
	}
	named, ok := t.(*types.Named)
	if !ok {
		return
	}
	info := p.graph.enums[named.Obj()]
	if info == nil {
		return
	}
	covered := map[string]bool{}
	hasDefault := false
	for _, stmt := range sw.Body.List {
		cc, ok := stmt.(*ast.CaseClause)
		if !ok {
			continue
		}
		if cc.List == nil {
			hasDefault = true
			continue
		}
		for _, e := range cc.List {
			tv, ok := p.Pkg.Info.Types[e]
			if !ok || tv.Value == nil {
				return // unresolvable case: cannot prove non-exhaustiveness
			}
			covered[tv.Value.String()] = true
		}
	}
	if hasDefault {
		return
	}
	var missing []string
	for _, m := range info.members {
		if !covered[m.Val().String()] {
			missing = append(missing, m.Name())
		}
	}
	if len(missing) == 0 {
		return
	}
	sort.Strings(missing)
	p.Reportf(sw.Pos(),
		"switch over %s does not handle %s; add the missing cases or an explicit default (the type is marked //simlint:enum)",
		enumDisplayName(p, named.Obj()), strings.Join(missing, ", "))
}

// enumDisplayName qualifies the enum type with its package name unless it
// is local to the package under analysis.
func enumDisplayName(p *Pass, obj *types.TypeName) string {
	if obj.Pkg() != nil && p.Pkg.Types != nil && obj.Pkg() != p.Pkg.Types {
		return obj.Pkg().Name() + "." + obj.Name()
	}
	return obj.Name()
}

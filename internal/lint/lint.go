package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer is one invariant checker.
type Analyzer struct {
	// Name is the analyzer's identifier, used in "[name]" finding tags
	// and in //simlint:ignore directives.
	Name string
	// Run reports findings on one package through the pass.
	Run func(*Pass)
}

// Analyzers returns the full simlint suite in reporting order.
func Analyzers() []*Analyzer {
	return []*Analyzer{DetLint, MapOrder, MSRLint, SeedFlow, StateLint, TelemLint}
}

// MetaAnalyzer tags findings produced by the machinery itself: malformed
// or unused //simlint:ignore comments, and files the parser could not
// load (syntax errors are findings, not crashes).
const MetaAnalyzer = "simlint"

// Finding is one reported violation, or one that a directive
// suppressed (the suppression count is part of simlint's summary).
type Finding struct {
	Pos      token.Position
	Analyzer string
	Message  string
	Package  string
	// Suppressed is set when a //simlint:ignore directive covers the
	// finding; Reason carries the directive's mandatory justification.
	Suppressed bool
	Reason     string

	// chain holds, for interprocedural findings, the functions on the
	// offending call chain (outermost first). A declaration-level
	// directive on any of them suppresses the finding.
	chain []*types.Func
}

// String renders the canonical "file:line: [analyzer] message" form.
// Findings without a position (module-level conditions) or without a
// line (directive machinery on synthesized positions) degrade gracefully
// instead of printing ":0".
func (f Finding) String() string {
	switch {
	case f.Pos.Filename == "":
		return fmt.Sprintf("[%s] %s", f.Analyzer, f.Message)
	case f.Pos.Line == 0:
		return fmt.Sprintf("%s: [%s] %s", f.Pos.Filename, f.Analyzer, f.Message)
	}
	return fmt.Sprintf("%s:%d: [%s] %s", f.Pos.Filename, f.Pos.Line, f.Analyzer, f.Message)
}

// Pass carries one analyzer over one package.
type Pass struct {
	Fset *token.FileSet
	Pkg  *Package

	analyzer *Analyzer
	findings *[]Finding
	graph    *Graph
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.findings = append(*p.findings, Finding{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
		Package:  p.Pkg.Path,
	})
}

// reportChain records an interprocedural finding at pos whose message
// carries the call chain; the chain's functions participate in
// declaration-level suppression.
func (p *Pass) reportChain(pos token.Pos, chain []*types.Func, format string, args ...any) {
	*p.findings = append(*p.findings, Finding{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
		Package:  p.Pkg.Path,
		chain:    chain,
	})
}

// typeOf returns the type of e, or nil when type information is missing
// or invalid (analyzers then degrade conservatively).
func (p *Pass) typeOf(e ast.Expr) types.Type {
	if p.Pkg.Info == nil {
		return nil
	}
	t := p.Pkg.Info.TypeOf(e)
	if t == nil || t == types.Typ[types.Invalid] {
		return nil
	}
	return t
}

// objectOf resolves an identifier to its object (defs or uses), or nil.
func (p *Pass) objectOf(id *ast.Ident) types.Object {
	if p.Pkg.Info == nil {
		return nil
	}
	return p.Pkg.Info.ObjectOf(id)
}

// constValue reports whether e is a compile-time constant expression.
func (p *Pass) constValue(e ast.Expr) bool {
	if p.Pkg.Info == nil {
		return false
	}
	tv, ok := p.Pkg.Info.Types[e]
	return ok && tv.Value != nil
}

// pkgImports maps the local name of each import of file to its path
// ("rand" or an alias -> "math/rand"). Dot and blank imports are skipped.
func pkgImports(file *ast.File) map[string]string {
	m := map[string]string{}
	for _, imp := range file.Imports {
		path := strings.Trim(imp.Path.Value, `"`)
		name := ""
		if imp.Name != nil {
			name = imp.Name.Name
		} else if i := strings.LastIndexByte(path, '/'); i >= 0 {
			name = path[i+1:]
		} else {
			name = path
		}
		if name == "." || name == "_" {
			continue
		}
		m[name] = path
	}
	return m
}

// selectorPackage reports the imported package path and selector name
// when expr is a qualified identifier like time.Now. When type info is
// available the identifier must resolve to a package name (a local
// variable shadowing the import does not count); without it the check is
// purely syntactic against the file's import table.
func (p *Pass) selectorPackage(imports map[string]string, expr ast.Expr) (path, sel string, ok bool) {
	return qualifiedSelector(p.Pkg, imports, expr)
}

// directive is one parsed //simlint:ignore comment.
type directive struct {
	pos      token.Position
	pkg      string
	analyzer string
	reason   string
	used     bool
}

const directiveName = "simlint:ignore"

// directiveIndex holds every well-formed directive of the module, keyed
// for line lookups.
type directiveIndex struct {
	all    []*directive
	byFile map[string][]*directive
}

// covering returns the directives that cover a finding (or declaration)
// at file:line: a directive suppresses its own line (trailing comment)
// and the line directly below (comment above the statement).
func (ix *directiveIndex) covering(file string, line int) []*directive {
	var out []*directive
	for _, d := range ix.byFile[file] {
		if d.pos.Line == line || d.pos.Line == line-1 {
			out = append(out, d)
		}
	}
	return out
}

// collectDirectives parses every //simlint:ignore comment in the package.
// Malformed directives (unknown analyzer — including analyzers from a
// newer simlint than this build — or missing reason) are reported as
// findings of the meta analyzer rather than silently dropped.
func collectDirectives(fset *token.FileSet, pkg *Package, known map[string]bool, findings *[]Finding) []*directive {
	var dirs []*directive
	for _, file := range pkg.Files {
		for _, cg := range file.Comments {
			for _, c := range cg.List {
				text, isLine := strings.CutPrefix(c.Text, "//")
				if !isLine {
					continue
				}
				text = strings.TrimSpace(text)
				rest, isDir := strings.CutPrefix(text, directiveName)
				if !isDir {
					continue
				}
				pos := fset.Position(c.Pos())
				fields := strings.Fields(rest)
				if len(fields) == 0 || !known[fields[0]] {
					name := "(none)"
					if len(fields) > 0 {
						name = fields[0]
					}
					*findings = append(*findings, Finding{
						Pos: pos, Analyzer: MetaAnalyzer, Package: pkg.Path,
						Message: fmt.Sprintf("directive names unknown analyzer %s: want //%s <analyzer> <reason> with analyzer in %s",
							name, directiveName, knownList(known)),
					})
					continue
				}
				reason := strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(rest), fields[0]))
				if reason == "" {
					*findings = append(*findings, Finding{
						Pos: pos, Analyzer: MetaAnalyzer, Package: pkg.Path,
						Message: fmt.Sprintf("ignore directive for %q needs a written reason: //%s %s <reason>",
							fields[0], directiveName, fields[0]),
					})
					continue
				}
				dirs = append(dirs, &directive{pos: pos, pkg: pkg.Path, analyzer: fields[0], reason: reason})
			}
		}
	}
	return dirs
}

func knownList(known map[string]bool) string {
	names := make([]string, 0, len(known))
	for n := range known {
		names = append(names, n)
	}
	sort.Strings(names)
	return strings.Join(names, "|")
}

// RunAnalyzers runs the analyzers over every package of m and returns
// all findings (suppressed ones included, marked), sorted by position.
// The directives are collected before any analyzer runs, so the call
// graph's summaries respect sanctioned origins; malformed directives and
// the loader's parse failures are meta findings.
func RunAnalyzers(m *Module, analyzers []*Analyzer) []Finding {
	known := map[string]bool{}
	for _, a := range analyzers {
		known[a.Name] = true
	}
	var findings []Finding
	dirs := &directiveIndex{byFile: map[string][]*directive{}}
	for _, pkg := range m.Pkgs {
		for _, d := range collectDirectives(m.Fset, pkg, known, &findings) {
			dirs.all = append(dirs.all, d)
			dirs.byFile[d.pos.Filename] = append(dirs.byFile[d.pos.Filename], d)
		}
	}
	graph := buildGraph(m, dirs)
	for _, a := range analyzers {
		for _, pkg := range m.Pkgs {
			a.Run(&Pass{Fset: m.Fset, Pkg: pkg, analyzer: a, findings: &findings, graph: graph})
		}
	}
	for _, pe := range m.ParseErrors {
		findings = append(findings, Finding{
			Pos: pe.Pos, Analyzer: MetaAnalyzer, Package: pe.Package,
			Message: "syntax error: " + pe.Msg,
		})
	}
	findings = suppress(findings, dirs, graph)

	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
	return findings
}

// suppress marks the findings the directives cover and appends one meta
// finding per unused directive. Line-level directives suppress findings
// on their own line or the line directly below; declaration-level
// directives additionally suppress interprocedural findings whose chain
// passes through the annotated function. An unused directive is a
// finding: a suppression that no longer masks anything must be deleted,
// so enforcement cannot silently drift.
func suppress(findings []Finding, dirs *directiveIndex, graph *Graph) []Finding {
	for i := range findings {
		f := &findings[i]
		if f.Analyzer == MetaAnalyzer {
			continue
		}
		for _, d := range dirs.covering(f.Pos.Filename, f.Pos.Line) {
			if d.analyzer == f.Analyzer {
				f.Suppressed, f.Reason = true, d.reason
				d.used = true
			}
		}
		if f.Suppressed || len(f.chain) == 0 {
			continue
		}
		for _, fn := range f.chain {
			node := graph.nodeFor(fn)
			if node == nil {
				continue
			}
			if d := node.declIgnore[f.Analyzer]; d != nil {
				f.Suppressed, f.Reason = true, d.reason
				d.used = true
				break
			}
		}
	}
	for _, d := range dirs.all {
		if !d.used {
			findings = append(findings, Finding{
				Pos: d.pos, Analyzer: MetaAnalyzer, Package: d.pkg,
				Message: fmt.Sprintf("unused suppression: no %s finding on this or the next line (or reachable call chain for a declaration directive); delete the directive", d.analyzer),
			})
		}
	}
	return findings
}

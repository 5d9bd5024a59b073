// Package lint implements simlint, the repository's custom static-analysis
// suite. It encodes the invariants the reproduction's headline guarantee
// rests on — byte-identical output at any -jobs value on the simulated
// Xeon platform — as analyzers that run over every package in the module:
//
//   - detlint:   no wall-clock time, no global math/rand, no goroutines in
//     simulation packages (internal/...), outside an explicit allowlist —
//     enforced interprocedurally: a sim-package function whose call
//     closure reaches a violation is flagged with the offending chain
//     (sim.Step -> helper -> time.Now).
//   - maporder:  no map iteration feeding an output-bearing sink (CSV
//     rows, printed lines, escaping appends, fields) without sorting
//     first — including sinks a call away (a helper whose closure emits).
//   - msrlint:   no raw architectural MSR addresses outside internal/msr;
//     register traffic flows through the typed msr.File / internal/rdt API.
//   - seedflow:  RNG streams in internal/ derive from a seed parameter or
//     id-derived offset — never a constant seed or a package-level shared
//     stream (the fleet per-host seeding contract).
//   - statelint: switches over //simlint:enum-marked FSM types (the
//     control FSM's policy.State, the fault injector's faults.Kind) must be
//     exhaustive or carry an explicit default.
//   - telemlint: telemetry handles come from the Registry, never literal
//     construction, and registry metric names are compile-time constants
//     (the golden-snapshot schema stays closed).
//
// The suite is deliberately stdlib-only (go/parser, go/ast, go/types, and
// the GOROOT source importer) so it builds and runs offline with no module
// dependencies, matching the repository's "stdlib only" constraint.
//
// Findings print as "file:line: [analyzer] message" and can be suppressed
// with a trailing or preceding comment:
//
//	//simlint:ignore <analyzer> <reason>
//
// The reason is mandatory, and unused suppressions are themselves findings,
// so stale annotations cannot accumulate. A directive on a function
// declaration additionally suppresses interprocedural findings whose call
// chain passes through that function.
package lint

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/scanner"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// Package is one parsed and type-checked package of the module under
// analysis. Type errors are tolerated (TypeErrors records them): analyzers
// degrade to syntactic checks where type information is missing, so the
// linter stays useful on a tree that is mid-refactor.
type Package struct {
	// Path is the import path, e.g. "iatsim/internal/cache".
	Path string
	// Dir is the absolute directory the files were read from.
	Dir        string
	Files      []*ast.File
	Filenames  []string // parallel to Files
	Types      *types.Package
	Info       *types.Info
	TypeErrors []error
}

// Module is a loaded module: every non-test package under its root.
type Module struct {
	// Path is the module path from go.mod (e.g. "iatsim").
	Path string
	// Dir is the module root directory.
	Dir  string
	Fset *token.FileSet
	// Pkgs is sorted by import path.
	Pkgs []*Package
	// ParseErrors records files the parser rejected. The files are
	// excluded from analysis; the errors surface as meta findings (a
	// broken tree must fail lint loudly, not crash it or hide packages).
	ParseErrors []ParseError
}

// ParseError is one syntax error the loader tolerated.
type ParseError struct {
	Pos     token.Position
	Msg     string
	Package string
}

// sharedFset is the process-wide FileSet. The GOROOT source importer
// type-checks the standard library once per process and is bound to one
// FileSet, so the loader shares a single set across all loads.
var (
	sharedFset *token.FileSet
	sharedStd  types.Importer
	sharedOnce sync.Once
)

func stdImporter() (*token.FileSet, types.Importer) {
	sharedOnce.Do(func() {
		sharedFset = token.NewFileSet()
		sharedStd = importer.ForCompiler(sharedFset, "source", nil)
	})
	return sharedFset, sharedStd
}

// FindModuleRoot walks up from dir to the nearest directory containing
// go.mod.
func FindModuleRoot(dir string) (string, error) {
	d, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(d, "go.mod")); err == nil {
			return d, nil
		}
		parent := filepath.Dir(d)
		if parent == d {
			return "", fmt.Errorf("lint: no go.mod at or above %s", dir)
		}
		d = parent
	}
}

// modulePath extracts the module path from a go.mod file.
func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("lint: no module line in %s", gomod)
}

// LoadModule parses and type-checks every non-test package under the
// module rooted at dir. Test files (_test.go) and testdata/ trees are
// excluded: the invariants guard the simulation paths that produce
// results, and tests legitimately use wall-clock timeouts and fixtures
// legitimately contain seeded violations.
func LoadModule(dir string) (*Module, error) {
	root, err := FindModuleRoot(dir)
	if err != nil {
		return nil, err
	}
	path, err := modulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	fset, std := stdImporter()
	m := &Module{Path: path, Dir: root, Fset: fset}

	pkgDirs, err := packageDirs(root)
	if err != nil {
		return nil, err
	}

	for _, d := range pkgDirs {
		rel, err := filepath.Rel(root, d)
		if err != nil {
			return nil, err
		}
		importPath := path
		if rel != "." {
			importPath = path + "/" + filepath.ToSlash(rel)
		}
		pkg, perrs, err := parseDir(fset, d)
		if err != nil {
			return nil, err
		}
		for _, pe := range perrs {
			pe.Package = importPath
			m.ParseErrors = append(m.ParseErrors, pe)
		}
		if pkg == nil {
			continue // no (parseable) non-test Go files
		}
		pkg.Path = importPath
		m.Pkgs = append(m.Pkgs, pkg)
	}

	ld := &loader{mod: m, std: std, byPath: map[string]*Package{}, state: map[string]int{}}
	for _, p := range m.Pkgs {
		ld.byPath[p.Path] = p
	}
	for _, p := range m.Pkgs {
		if err := ld.ensure(p); err != nil {
			return nil, fmt.Errorf("lint: type-check %s: %w", p.Path, err)
		}
	}
	return m, nil
}

// LoadDir parses and type-checks a single directory as a standalone
// package under the given import path. Fixture tests use it to analyze
// testdata packages while choosing the import path (and with it the
// analyzers' package-scope rules) freely.
func LoadDir(dir, importPath string) (*Module, error) {
	fset, std := stdImporter()
	pkg, perrs, err := parseDir(fset, dir)
	if err != nil {
		return nil, err
	}
	m := &Module{Path: strings.SplitN(importPath, "/", 2)[0], Dir: dir, Fset: fset}
	for _, pe := range perrs {
		pe.Package = importPath
		m.ParseErrors = append(m.ParseErrors, pe)
	}
	if pkg == nil {
		if len(perrs) > 0 {
			return m, nil // every file broken: the findings carry the story
		}
		return nil, fmt.Errorf("lint: no Go files in %s", dir)
	}
	pkg.Path = importPath
	m.Pkgs = []*Package{pkg}
	ld := &loader{mod: m, std: std, byPath: map[string]*Package{importPath: pkg}, state: map[string]int{}}
	if err := ld.ensure(pkg); err != nil {
		return nil, fmt.Errorf("lint: type-check %s: %w", importPath, err)
	}
	return m, nil
}

// packageDirs walks root and returns every directory that may hold a
// package, excluding testdata/vendor/hidden trees. LoadModule and the
// fixture test helpers share this walk so their notion of "the module's
// packages" cannot drift apart.
func packageDirs(root string) ([]string, error) {
	var dirs []string
	err := filepath.WalkDir(root, func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if p != root && (name == "testdata" || name == "vendor" ||
			strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		dirs = append(dirs, p)
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(dirs)
	return dirs, nil
}

// goSourceFiles lists the non-test Go files of one directory in sorted
// order — the single definition of which files the linter reads, shared
// by the loader and the fixture test helpers.
func goSourceFiles(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") ||
			strings.HasSuffix(name, "_test.go") || strings.HasPrefix(name, ".") {
			continue
		}
		files = append(files, filepath.Join(dir, name))
	}
	return files, nil
}

// parseDir parses the non-test Go files of one directory; nil if none
// parse. Files with syntax errors are reported in the ParseError slice
// and excluded (the remaining files still type-check best-effort).
func parseDir(fset *token.FileSet, dir string) (*Package, []ParseError, error) {
	files, err := goSourceFiles(dir)
	if err != nil {
		return nil, nil, err
	}
	pkg := &Package{Dir: dir}
	var perrs []ParseError
	for _, full := range files {
		f, err := parser.ParseFile(fset, full, nil, parser.ParseComments)
		if err != nil {
			perrs = append(perrs, parseErrors(fset, full, err)...)
			continue
		}
		pkg.Files = append(pkg.Files, f)
		pkg.Filenames = append(pkg.Filenames, full)
	}
	if len(pkg.Files) == 0 {
		return nil, perrs, nil
	}
	return pkg, perrs, nil
}

// parseErrors flattens a parser error (usually a scanner.ErrorList) into
// positioned ParseErrors.
func parseErrors(fset *token.FileSet, file string, err error) []ParseError {
	if list, ok := err.(scanner.ErrorList); ok {
		out := make([]ParseError, 0, len(list))
		for _, e := range list {
			out = append(out, ParseError{Pos: e.Pos, Msg: e.Msg})
		}
		return out
	}
	return []ParseError{{Pos: token.Position{Filename: file}, Msg: err.Error()}}
}

// loader type-checks module packages in dependency order, resolving
// intra-module imports from its own package set and everything else (the
// standard library) through the GOROOT source importer.
type loader struct {
	mod    *Module
	std    types.Importer
	byPath map[string]*Package
	state  map[string]int // 0 = unloaded, 1 = checking, 2 = done
}

// Import implements types.Importer.
func (l *loader) Import(path string) (*types.Package, error) {
	if p, ok := l.byPath[path]; ok {
		if l.state[path] == 1 {
			return nil, fmt.Errorf("import cycle through %s", path)
		}
		if err := l.ensure(p); err != nil {
			return nil, err
		}
		return p.Types, nil
	}
	return l.std.Import(path)
}

// ensure type-checks p (and, via Import, its intra-module dependencies).
// Type errors are collected on the package, not returned: analyzers run
// on best-effort type information.
func (l *loader) ensure(p *Package) error {
	if l.state[p.Path] == 2 {
		return nil
	}
	l.state[p.Path] = 1
	defer func() { l.state[p.Path] = 2 }()
	conf := types.Config{
		Importer: l,
		Error: func(err error) {
			p.TypeErrors = append(p.TypeErrors, err)
		},
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	tpkg, err := conf.Check(p.Path, l.mod.Fset, p.Files, info)
	p.Types, p.Info = tpkg, info
	if tpkg == nil {
		return err
	}
	return nil
}

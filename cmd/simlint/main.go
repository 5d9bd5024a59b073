// Command simlint runs the repository's static-analysis suite: custom
// analyzers (internal/lint) that enforce the determinism and
// hardware-model invariants the reproduction's results depend on,
// interprocedurally (a call whose closure reaches a violation is flagged
// with the offending chain).
//
// Usage:
//
//	simlint                        # lint the module
//	simlint -dir path/to/module    # lint another module root
//
// Each active finding prints as "file:line: [analyzer] message"; an
// interprocedural finding's message carries its call chain. A clean run
// prints one summary line and exits 0, any active finding exits 1, and a
// usage or load error exits 2. A finding is suppressed by an adjacent
// comment with a mandatory reason:
//
//	//simlint:ignore <analyzer> <reason>
//
// A directive on a function declaration additionally suppresses
// interprocedural findings whose call chain passes through it. The
// repository's own suppressions are listed in internal/lint's
// TestModuleIsCleanAtHead. See EXPERIMENTS.md ("Static analysis").
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"iatsim/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("simlint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	dir := fs.String("dir", ".", "module root to lint (any directory inside it works)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "simlint: unexpected argument %q (name the module with -dir)\n", fs.Arg(0))
		return 2
	}

	mod, err := lint.LoadModule(*dir)
	if err != nil {
		fmt.Fprintf(stderr, "simlint: %v\n", err)
		return 2
	}
	analyzers := lint.Analyzers()
	active, suppressed := 0, 0
	for _, f := range lint.RunAnalyzers(mod, analyzers) {
		if f.Suppressed {
			suppressed++
			continue
		}
		active++
		f.Pos.Filename = relPath(mod.Dir, f.Pos.Filename)
		fmt.Fprintln(stdout, f.String())
	}
	if active > 0 {
		fmt.Fprintf(stderr, "simlint: %d finding(s) in %s\n", active, mod.Path)
		return 1
	}
	fmt.Fprintf(stdout, "simlint: clean — %d packages, %d analyzers, %d suppression(s)\n",
		len(mod.Pkgs), len(analyzers), suppressed)
	return 0
}

// relPath shortens filenames to module-relative form for stable output.
func relPath(root, path string) string {
	if rel, err := filepath.Rel(root, path); err == nil && !filepath.IsAbs(rel) {
		return rel
	}
	return path
}

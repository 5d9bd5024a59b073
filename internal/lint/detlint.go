package lint

import (
	"go/ast"
	"strings"
)

// DetLint forbids the three classic determinism leaks in simulation
// packages (everything under internal/), both directly and through any
// chain of module-internal calls (the interprocedural pass flags a call
// site whose closure reaches a violation, naming the chain):
//
//   - wall-clock reads (time.Now / time.Since) — simulated time comes
//     from the platform clock; host time may only appear in the harness,
//     whose wall-time accounting is explicitly outside the determinism
//     guarantee, and at sites annotated for the Fig. 15 overhead
//     measurement (the daemon code path is the artifact under test).
//   - package-level math/rand functions (rand.Intn, rand.Float64, ...) —
//     they draw from the process-global, run-dependent source; only
//     seeded *rand.Rand constructors (rand.New(rand.NewSource(seed)))
//     are allowed.
//   - go statements — the simulation is single-threaded by design; only
//     internal/harness may spawn goroutines (its worker pool reassembles
//     results in submission order).
var DetLint = &Analyzer{
	Name: detLintName,
	Run:  runDetLint,
}

// detLintName is referenced from the interprocedural core (summary.go);
// a named constant keeps the Analyzer var out of its own init cycle.
const detLintName = "detlint"

// timeAllowedPkgs may read the wall clock: the harness owns per-job
// wall-time, the progress line, and manifest timestamps, all documented
// as outside the determinism guarantee.
var timeAllowedPkgs = map[string]bool{
	"iatsim/internal/harness": true,
}

// goAllowedPkgs may spawn goroutines: the harness worker pool is the one
// sanctioned concurrency site (results reassembled in submission order).
var goAllowedPkgs = map[string]bool{
	"iatsim/internal/harness": true,
}

// wallClockFuncs are the time package functions that read the host clock.
var wallClockFuncs = map[string]bool{"Now": true, "Since": true, "Until": true}

// globalRandFuncs are the math/rand package-level functions backed by the
// process-global source. Constructors (New, NewSource, NewZipf) and type
// names (Rand, Source) are absent: the seeded-receiver path is the
// sanctioned one.
var globalRandFuncs = map[string]bool{
	"Seed": true, "Int": true, "Intn": true, "Int31": true, "Int31n": true,
	"Int63": true, "Int63n": true, "Uint32": true, "Uint64": true,
	"Float32": true, "Float64": true, "ExpFloat64": true, "NormFloat64": true,
	"Perm": true, "Shuffle": true, "Read": true,
}

// globalRandV2Funcs is the math/rand/v2 equivalent (its top-level
// functions use a runtime-seeded global).
var globalRandV2Funcs = map[string]bool{
	"Int": true, "IntN": true, "Int32": true, "Int32N": true,
	"Int64": true, "Int64N": true, "Uint": true, "UintN": true,
	"Uint32": true, "Uint32N": true, "Uint64": true, "Uint64N": true,
	"Float32": true, "Float64": true, "ExpFloat64": true, "NormFloat64": true,
	"Perm": true, "Shuffle": true, "N": true,
}

// simulationPackage reports whether path is under the module's internal/
// tree — the packages whose behaviour feeds the recorded results.
func simulationPackage(path string) bool {
	return strings.Contains(path, "/internal/") || strings.HasSuffix(path, "/internal")
}

func runDetLint(p *Pass) {
	if !simulationPackage(p.Pkg.Path) {
		return
	}
	for _, file := range p.Pkg.Files {
		imports := pkgImports(file)
		for _, imp := range file.Imports {
			path := strings.Trim(imp.Path.Value, `"`)
			if imp.Name != nil && imp.Name.Name == "." &&
				(path == "time" || path == "math/rand" || path == "math/rand/v2") {
				p.Reportf(imp.Pos(), "dot import of %q hides wall-clock/global-rand call sites from detlint; use a named import", path)
			}
		}
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.GoStmt:
				if !goAllowedPkgs[p.Pkg.Path] {
					p.Reportf(n.Pos(), "go statement outside internal/harness: the simulation is single-threaded by design (parallelism belongs to the harness worker pool)")
				}
			case *ast.SelectorExpr:
				path, sel, ok := p.selectorPackage(imports, n)
				if !ok {
					return true
				}
				switch {
				case path == "time" && wallClockFuncs[sel] && !timeAllowedPkgs[p.Pkg.Path]:
					p.Reportf(n.Pos(), "time.%s reads the host wall clock in a simulation package; use the platform's simulated clock (p.NowNS)", sel)
				case path == "math/rand" && globalRandFuncs[sel]:
					p.Reportf(n.Pos(), "rand.%s draws from the process-global source; use a seeded *rand.Rand (rand.New(rand.NewSource(seed)))", sel)
				case path == "math/rand/v2" && globalRandV2Funcs[sel]:
					p.Reportf(n.Pos(), "rand/v2.%s draws from the runtime-seeded global source; use a seeded *rand.Rand", sel)
				}
			}
			return true
		})
	}
	runDetLintChains(p)
}

// runDetLintChains is the interprocedural half: any call site in this
// package whose callee's summarized closure reaches a wall-clock read,
// a global-rand draw, or a goroutine spawn (from a non-allowlisted,
// non-sanctioned origin) is flagged with the offending chain. Direct
// violations in this package are the intra-procedural pass's job and are
// not re-reported here.
func runDetLintChains(p *Pass) {
	if p.graph == nil {
		return
	}
	for _, n := range p.graph.order {
		if n.pkg != p.Pkg {
			continue
		}
		for _, e := range n.edges {
			for _, f := range p.graph.visibleFacts(e) {
				var hint string
				switch f.key.kind {
				case FactWallClock:
					if timeAllowedPkgs[p.Pkg.Path] {
						continue
					}
					hint = "simulated time must come from the platform clock (p.NowNS)"
				case FactGlobalRand:
					hint = "use a seeded *rand.Rand threaded through the call"
				case FactGoroutine:
					if goAllowedPkgs[p.Pkg.Path] {
						continue
					}
					hint = "parallelism belongs to the harness worker pool"
				default:
					continue // FactEmit is maporder's business
				}
				chain, fns := p.graph.chain(n, e, f.key)
				p.reportChain(e.call.Pos(), fns,
					"call closure reaches %s (%s); %s", f.desc, chain, hint)
			}
		}
	}
}

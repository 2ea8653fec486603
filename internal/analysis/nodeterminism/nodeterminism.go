// Package nodeterminism forbids the constructs that would break the
// simulator's bit-identity guarantees in the deterministic packages
// (internal/noc, internal/congestion, internal/sim):
//
//   - wall-clock reads (time.Now, time.Since, ...): cycle time is the only
//     clock the simulator may observe;
//   - global math/rand functions: all randomness must flow from the
//     seeded sim.RNG so identical configs reproduce identical runs
//     (methods on a locally seeded *rand.Rand are tolerated — the ban is
//     on process-global, seed-uncontrolled streams);
//   - map-range bodies that mutate simulation state or call methods on
//     state reached from outside the loop: Go map iteration order is
//     random, so such loops make cycle results order-dependent (the
//     canonical fix — collect keys, sort, then act — still trips the
//     check and documents itself with a //lint:ignore);
//   - `go` statements: Network.Step is single-threaded, and concurrency
//     lives only across sweep points (internal/runner), so no goroutine
//     may start inside a simulation.
package nodeterminism

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"github.com/catnap-noc/catnap/internal/analysis"
)

// Analyzer is the nodeterminism pass.
var Analyzer = &analysis.Analyzer{
	Name: "nodeterminism",
	Doc:  "forbid wall-clock, global rand, mutating map iteration, and goroutines in deterministic simulator packages",
	Run:  run,
}

// scope lists the package-path suffixes the analyzer polices.
var scope = []string{"internal/noc", "internal/congestion", "internal/sim"}

// bannedTime is the set of wall-clock entry points in package time.
var bannedTime = map[string]bool{
	"Now": true, "Since": true, "Until": true, "Sleep": true,
	"After": true, "Tick": true, "NewTimer": true, "NewTicker": true,
	"AfterFunc": true,
}

// randConstructors are the math/rand entry points that build an
// explicitly seeded generator rather than touching the process-global
// stream; they are how sanctioned determinism is constructed.
var randConstructors = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true,
	"NewPCG": true, "NewChaCha8": true,
}

func run(pass *analysis.Pass) error {
	if !analysis.PackageInScope(pass.Pkg.Path(), scope...) {
		return nil
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.CallExpr:
					checkCall(pass, n)
				case *ast.GoStmt:
					pass.Reportf(n.Pos(),
						"go statement in a deterministic package: simulations step on one goroutine; run concurrent work across sweep points instead")
				case *ast.RangeStmt:
					checkMapRange(pass, n)
				}
				return true
			})
		}
	}
	return nil
}

// checkCall flags wall-clock and global-rand calls.
func checkCall(pass *analysis.Pass, call *ast.CallExpr) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return
	}
	// Package-qualified calls only: a method call (Selections entry
	// present) is rand.Rand-style seeded usage, which is allowed.
	if pass.TypesInfo.Selections[sel] != nil {
		return
	}
	fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil {
		return
	}
	switch fn.Pkg().Path() {
	case "time":
		if bannedTime[fn.Name()] {
			pass.Reportf(call.Pos(),
				"time.%s reads the wall clock: cycle time is the only clock deterministic code may observe", fn.Name())
		}
	case "math/rand", "math/rand/v2":
		if randConstructors[fn.Name()] {
			return // building a locally seeded generator is the sanctioned use
		}
		pass.Reportf(call.Pos(),
			"global %s.%s bypasses the seeded sim.RNG: derive randomness from the experiment seed", fn.Pkg().Name(), fn.Name())
	}
}

// checkMapRange flags range-over-map bodies that touch state declared
// outside the loop: iteration order is random, so any such effect is
// order-dependent.
func checkMapRange(pass *analysis.Pass, rng *ast.RangeStmt) {
	t := pass.TypesInfo.TypeOf(rng.X)
	if t == nil {
		return
	}
	if _, ok := t.Underlying().(*types.Map); !ok {
		return
	}
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if n.Tok == token.DEFINE {
				return true
			}
			for _, lhs := range n.Lhs {
				if declaredOutside(pass, rng, lhs) {
					pass.Reportf(n.Pos(),
						"assignment to state outside a range over a map: iteration order is nondeterministic")
					return true
				}
			}
		case *ast.IncDecStmt:
			if declaredOutside(pass, rng, n.X) {
				pass.Reportf(n.Pos(),
					"mutation of state outside a range over a map: iteration order is nondeterministic")
			}
		case *ast.CallExpr:
			if sel, ok := n.Fun.(*ast.SelectorExpr); ok {
				if s := pass.TypesInfo.Selections[sel]; s != nil && s.Kind() == types.MethodVal {
					if isTracerLike(s.Recv()) {
						pass.Reportf(n.Pos(),
							"tracer/policy callback inside a range over a map: event order would be nondeterministic")
					} else if hasPointerReceiver(s.Obj()) && declaredOutside(pass, rng, sel.X) {
						pass.Reportf(n.Pos(),
							"pointer-receiver call on state outside a range over a map: effect order is nondeterministic")
					}
				}
			}
		}
		return true
	})
}

// declaredOutside reports whether expr's root identifier resolves to an
// object declared outside the range statement (or cannot be resolved at
// all, which is treated conservatively as outside).
func declaredOutside(pass *analysis.Pass, rng *ast.RangeStmt, expr ast.Expr) bool {
	id := rootIdent(expr)
	if id == nil {
		return true
	}
	if id.Name == "_" {
		return false
	}
	obj := pass.TypesInfo.Uses[id]
	if obj == nil {
		obj = pass.TypesInfo.Defs[id]
	}
	if obj == nil {
		return true
	}
	return obj.Pos() < rng.Pos() || obj.Pos() > rng.End()
}

// rootIdent peels selectors, indexing, derefs and parens down to the base
// identifier, or nil when the base is not an identifier.
func rootIdent(expr ast.Expr) *ast.Ident {
	for {
		switch e := expr.(type) {
		case *ast.Ident:
			return e
		case *ast.SelectorExpr:
			expr = e.X
		case *ast.IndexExpr:
			expr = e.X
		case *ast.StarExpr:
			expr = e.X
		case *ast.ParenExpr:
			expr = e.X
		default:
			return nil
		}
	}
}

// isTracerLike reports whether t is (a pointer to) an interface whose
// name ends in Tracer or Policy — the simulator's callback surfaces.
func isTracerLike(t types.Type) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	if _, ok := n.Underlying().(*types.Interface); !ok {
		return false
	}
	name := n.Obj().Name()
	return strings.HasSuffix(name, "Tracer") || strings.HasSuffix(name, "Policy")
}

// hasPointerReceiver reports whether obj is a method with a pointer
// receiver.
func hasPointerReceiver(obj types.Object) bool {
	fn, ok := obj.(*types.Func)
	if !ok {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	_, isPtr := sig.Recv().Type().(*types.Pointer)
	return isPtr
}

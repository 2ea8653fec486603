// Package contractflow propagates catnap's annotation contracts along
// the call graph. hotpathalloc checks only annotated bodies, so a helper
// extracted from Step silently escaped the 0 B/cycle contract the bench
// guards depend on. contractflow closes that hole: obligations flow
// along calls, the way they flow at runtime.
//
// Over the callgraph package's graph (universe: internal/noc,
// internal/congestion, internal/telemetry — the packages on the
// per-cycle path) it enforces:
//
//   - hotpath: every function a //catnap:hotpath function calls must
//     itself be //catnap:hotpath (and is then scanned by hotpathalloc),
//     transitively;
//   - quiescent-only: no //catnap:quiescent-only function may be
//     reachable from (*Network).Step in internal/noc, on any path — the
//     idle fast-forward entry points assume the network sits between
//     cycles, and Step is where every mid-cycle phase runs.
//
// Function literals are pass-through: a literal cannot carry a doc
// comment, so the obligation lands on the declared functions it calls,
// and the literal appears in the reported chain (`(*Network).Step →
// func@network.go:120 → stepBand`). Diagnostics carry the full call
// chain from an entry root so violations are actionable, and are
// anchored at the frontier call site, where a //lint:ignore contractflow
// <reason> both suppresses the finding and stops propagation through
// that edge — the sanctioned way to mark an intentionally-cold callee
// (error paths, one-time growth).
//
// The pass also flags stale annotations: an unexported, never
// go-spawned function annotated hotpath that no hotpath function still
// calls. Annotations assert membership in a checked closure; when a
// refactor severs the call, the annotation is a lie and must go (or the
// call restored).
package contractflow

import (
	"go/token"
	"sort"

	"github.com/catnap-noc/catnap/internal/analysis"
	"github.com/catnap-noc/catnap/internal/analysis/callgraph"
)

// Analyzer is the contractflow pass. It is the suite's only module
// analyzer: the call graph spans packages, so it runs once over the
// whole loaded set.
var Analyzer = &analysis.Analyzer{
	Name:      "contractflow",
	Doc:       "propagate //catnap: contract obligations along the call graph",
	RunModule: runModule,
}

// universe lists the package-path suffixes the call graph covers: the
// packages that execute on the per-cycle path. Everything outside
// (internal/stats, the root package, CLIs) is beyond the propagation
// boundary by design.
var universe = []string{
	"internal/noc",
	"internal/congestion",
	"internal/telemetry",
}

// hotpathFix is appended to every hotpath frontier diagnostic.
const hotpathFix = "annotate it //catnap:hotpath (hotpathalloc will then scan it) or mark this call //lint:ignore contractflow <why the callee is cold>"

func runModule(mp *analysis.ModulePass) error {
	inUniverse := func(path string) bool {
		return analysis.PackageInScope(path, universe...)
	}
	g := callgraph.Build(mp.Pkgs, inUniverse)
	if len(g.Nodes) == 0 {
		return nil
	}
	propagate(mp, g, indirectEntries(g))
	checkQuiescentOnly(mp, g)
	return nil
}

// indirectEntries computes the nodes invocable without a static
// in-universe caller: targets of func-value and go edges, plus — through
// literal pass-through — the static callees of indirectly-dispatched
// literals (a closure stored in a func field runs wherever its caller
// invokes it, which no caller annotation can witness). Staleness cannot
// be decided statically for these, so they are exempt.
func indirectEntries(g *callgraph.Graph) map[*callgraph.Node]bool {
	entry := make(map[*callgraph.Node]bool)
	var queue []*callgraph.Node
	for _, n := range g.Nodes {
		for _, e := range n.In {
			if e.Kind == callgraph.KindFuncValue || e.Kind == callgraph.KindGo {
				entry[n] = true
				queue = append(queue, n)
				break
			}
		}
	}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		if !n.IsLiteral() {
			continue
		}
		for _, e := range n.Out {
			if !entry[e.To] {
				entry[e.To] = true
				queue = append(queue, e.To)
			}
		}
	}
	return entry
}

// annotated reports whether the node is a declared function carrying
// //catnap:<name>.
func annotated(n *callgraph.Node, name string) bool {
	return n.Decl != nil && analysis.HasAnnotation(n.Decl, name)
}

// propagate walks the hotpath closure and reports the frontier: edges
// from covered code into functions that lack the annotation. Literals
// are covered by pass-through; traversal stops at unannotated declared
// functions (annotating them extends the closure on the next run, an
// ignore at the call site prunes it permanently). It then reports stale
// annotations: members no covered caller still reaches.
func propagate(mp *analysis.ModulePass, g *callgraph.Graph, entries map[*callgraph.Node]bool) {
	covered := make(map[*callgraph.Node]bool)
	var queue []*callgraph.Node
	for _, n := range g.Nodes {
		if annotated(n, "hotpath") {
			covered[n] = true
			queue = append(queue, n)
		}
	}
	type frontier struct {
		from, to *callgraph.Node
		pos      token.Pos
	}
	var front []frontier
	seen := make(map[[2]*callgraph.Node]bool)
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		for _, e := range n.Out {
			m := e.To
			if covered[m] {
				continue
			}
			if m.IsLiteral() {
				covered[m] = true
				queue = append(queue, m)
				continue
			}
			if m.Decl == nil {
				continue // synthetic init node: runs once, cold
			}
			if annotated(m, "hotpath") {
				covered[m] = true
				queue = append(queue, m)
				continue
			}
			key := [2]*callgraph.Node{n, m}
			if seen[key] {
				continue
			}
			seen[key] = true
			front = append(front, frontier{from: n, to: m, pos: e.Pos})
		}
	}
	sort.Slice(front, func(i, j int) bool { return front[i].pos < front[j].pos })
	for _, f := range front {
		chain := chainTo(f.from, covered)
		chain = append(chain, f.to)
		mp.Reportf(f.pos,
			"%s is reachable from //catnap:hotpath code (%s) but is not annotated: %s",
			f.to.Name(), callgraph.ChainString(chain), hotpathFix)
	}
	reportStale(mp, g, covered, entries)
}

// chainTo builds the call chain from an entry root down to n through
// covered nodes, walking caller links upward deterministically (the
// first covered in-edge in position order) with a depth bound. n's
// chain always ends at n.
func chainTo(n *callgraph.Node, covered map[*callgraph.Node]bool) []*callgraph.Node {
	chain := []*callgraph.Node{n}
	onChain := map[*callgraph.Node]bool{n: true}
	for len(chain) < 12 {
		cur := chain[0]
		var up *callgraph.Node
		for _, e := range cur.In {
			if covered[e.From] && !onChain[e.From] {
				up = e.From
				break
			}
		}
		if up == nil {
			break
		}
		chain = append([]*callgraph.Node{up}, chain...)
		onChain[up] = true
	}
	return chain
}

// reportStale flags hotpath members no covered caller reaches:
// unexported functions whose annotation asserts a closure membership
// nothing establishes anymore. Exempt are exported functions (callable
// from outside the universe), go-spawned functions and indirect entry
// points (the dynamic dispatch context, not a caller's annotation,
// decides where they run).
func reportStale(mp *analysis.ModulePass, g *callgraph.Graph, covered map[*callgraph.Node]bool, entries map[*callgraph.Node]bool) {
	for _, n := range g.Nodes {
		if !annotated(n, "hotpath") {
			continue
		}
		if n.Decl.Name.IsExported() || n.GoSpawned || entries[n] {
			continue
		}
		reached := false
		for _, e := range n.In {
			if e.From != n && covered[e.From] {
				reached = true
				break
			}
		}
		if !reached {
			mp.Reportf(n.Decl.Name.Pos(),
				"stale //catnap:hotpath on %s: unexported and no hotpath-annotated function still calls it — delete the annotation or restore the call",
				n.Name())
		}
	}
}

// checkQuiescentOnly verifies no quiescent-only function is reachable
// from the network's per-cycle entry point, traversing every edge
// (annotated or not): the phases Step runs are mid-cycle, and
// quiescent-only functions assume the clock sits between cycles.
func checkQuiescentOnly(mp *analysis.ModulePass, g *callgraph.Graph) {
	type hit struct {
		pos    token.Pos
		root   *callgraph.Node
		target *callgraph.Node
		chain  []*callgraph.Node
	}
	var hits []hit
	reported := make(map[[2]token.Pos]bool)
	for _, root := range g.Nodes {
		if root.Name() != "(*Network).Step" || !analysis.PackageInScope(root.PkgPath, "internal/noc") {
			continue
		}
		parent := map[*callgraph.Node]*callgraph.Edge{}
		queue := []*callgraph.Node{root}
		visited := map[*callgraph.Node]bool{root: true}
		for len(queue) > 0 {
			n := queue[0]
			queue = queue[1:]
			for _, e := range n.Out {
				if visited[e.To] {
					continue
				}
				visited[e.To] = true
				parent[e.To] = e
				if annotated(e.To, "quiescent-only") {
					// Reconstruct root → ... → target and anchor the
					// diagnostic at the first call on the path (the edge
					// leaving the root).
					var chain []*callgraph.Node
					for m := e.To; m != nil; {
						chain = append([]*callgraph.Node{m}, chain...)
						pe := parent[m]
						if pe == nil {
							break
						}
						m = pe.From
					}
					first := parent[chain[1]]
					key := [2]token.Pos{first.Pos, e.To.Pos}
					if !reported[key] {
						reported[key] = true
						hits = append(hits, hit{pos: first.Pos, root: root, target: e.To, chain: chain})
					}
					continue // no need to traverse past the target
				}
				queue = append(queue, e.To)
			}
		}
	}
	sort.Slice(hits, func(i, j int) bool {
		if hits[i].pos != hits[j].pos {
			return hits[i].pos < hits[j].pos
		}
		return hits[i].target.Key < hits[j].target.Key
	})
	for _, h := range hits {
		mp.Reportf(h.pos,
			"//catnap:quiescent-only %s is reachable from %s (%s): quiescent-only functions assume the network sits between cycles",
			h.target.Name(), h.root.Name(), callgraph.ChainString(h.chain))
	}
}

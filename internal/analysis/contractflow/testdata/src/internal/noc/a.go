// Package noc is contractflow's golden test package: one example per
// propagation mechanism (direct call, method call, interface call,
// function value), the quiescent-only reachability check from
// (*Network).Step, stale-annotation detection, and call-site
// suppression.
package noc

// --- direct calls -----------------------------------------------------

// Step is a hotpath root; its direct callees must join the closure.
//
//catnap:hotpath
func Step() {
	covered()
	helper() // want `helper is reachable from //catnap:hotpath code \(Step → helper\) but is not annotated`
}

//catnap:hotpath
func covered() {}

func helper() {}

// --- method calls -----------------------------------------------------

type ring struct{ n int }

//catnap:hotpath
func (r *ring) Advance() {
	r.bump() // want `\(\*ring\)\.bump is reachable from //catnap:hotpath code`
}

func (r *ring) bump() { r.n++ }

// --- interface calls (sound over-approximation) -----------------------

type ticker interface{ Tick() }

type clock struct{}

func (clock) Tick() {}

// Drive dispatches through an interface: the closure must cover every
// in-universe implementation with a matching method.
//
//catnap:hotpath
func Drive(t ticker) {
	t.Tick() // want `\(clock\)\.Tick is reachable from //catnap:hotpath code`
}

// --- function values --------------------------------------------------

// Dispatch invokes through a function value: every address-taken
// function with the same signature is a possible callee.
//
//catnap:hotpath
func Dispatch() {
	fn := target
	fn() // want `target is reachable from //catnap:hotpath code \(Dispatch → target\)`
}

func target() {}

// --- suppression prunes the frontier ----------------------------------

//catnap:hotpath
func Grow() {
	//lint:ignore contractflow one-time growth; amortised over the run
	expand()
}

func expand() {}

// --- quiescent-only must not be reachable from (*Network).Step --------

//catnap:quiescent-only assumes the clock sits between cycles
func drain() {}

//catnap:quiescent-only
func flush() {}

//catnap:quiescent-only
func skipAhead() {}

// Network mirrors the simulator's network: Step is the per-cycle entry
// point, so every function it reaches runs mid-cycle.
type Network struct{}

// Step reaches one quiescent-only function directly and another through
// an unannotated helper; both are reported at the call leaving Step.
func (n *Network) Step() {
	drain() // want `//catnap:quiescent-only drain is reachable from \(\*Network\)\.Step \(\(\*Network\)\.Step → drain\)`
	phase() // want `//catnap:quiescent-only flush is reachable from \(\*Network\)\.Step \(\(\*Network\)\.Step → phase → flush\)`
}

func phase() { flush() }

// TrySkip is a between-cycles entry point that Step never reaches, so
// its quiescent-only call is fine.
func (n *Network) TrySkip() { skipAhead() }

// --- stale annotations ------------------------------------------------

// orphan's annotation asserts membership in the hotpath closure, but no
// hotpath function calls it anymore.
//
//catnap:hotpath
func orphan() {} // want `stale //catnap:hotpath on orphan`

// exported functions are never stale: external callers are invisible.
//
//catnap:hotpath
func Exported() {}

package traffic

import (
	"sync"
	"sync/atomic"

	"github.com/catnap-noc/catnap/internal/sim"
)

// Interned arrival streams (see DESIGN.md "Arrival-stream interning"):
// sweeps and explore campaigns run many designs under the same seed,
// load, mesh and run length, and each would redraw the same open-loop
// arrival sequence. A generator that knows its horizon (Intern) instead
// looks the sequence up in a process-wide table, recording it once per
// key, and replays it into the network.
//
// Replay is exact because the generator is open loop: what a node offers
// depends only on its own RNG stream (the coin, then Dest right after it
// on heads) and the schedule's load, never on the network. Under a
// constant schedule the load is the same every cycle, so the k-th Tick's
// arrivals depend on k alone and the stream is keyed by Tick count, not
// by the start cycle. Each stream also stores every node's RNG state
// after its last Tick; replay copies them back there, so ticking on past
// the horizon continues the live sequence exactly.

// Stream caps: a stream is recorded only when it is expected to hold at
// most maxStreamArrivals arrivals (load × nodes × horizon), and the whole
// table holds at most maxTableBytes; anything larger runs live.
const (
	maxStreamArrivals = 1 << 16
	maxTableBytes     = 32 << 20
)

// streamKey identifies one arrival stream: the generator's pattern,
// constant load, seed and topology shape, and the number of Ticks
// recorded.
type streamKey struct {
	pattern           Pattern
	load              float64
	seed              uint64
	rows, cols, nodes int
	horizon           uint32
}

// arrival is one recorded packet: the Tick it was offered on (counted
// from the stream's first Tick) and its endpoints.
type arrival struct {
	tick     uint32
	src, dst int32
}

// stream is one interned arrival sequence. once guards the recording;
// after it, every field is immutable and shared by all replaying
// generators.
type stream struct {
	once     sync.Once
	horizon  uint32
	arrivals []arrival
	end      []sim.RNG
}

var (
	streams     sync.Map // streamKey -> *stream
	streamBytes atomic.Int64
)

// arrivalBytes and rngBytes size a stream's storage for the table cap.
const (
	arrivalBytes = 12
	rngBytes     = 32
)

// recorder collects a stream's arrivals during the recording pass.
type recorder struct {
	tick     uint32
	arrivals []arrival
}

// arrive records one arrival on the current tick.
func (r *recorder) arrive(src, dst int) {
	r.arrivals = append(r.arrivals, arrival{tick: r.tick, src: int32(src), dst: int32(dst)})
}

// Intern makes the generator replay an interned copy of its next horizon
// Ticks instead of drawing them, recording the copy first if no earlier
// generator with the same key has. It reports whether the generator
// replays; false leaves it live. Only a generator that has not ticked
// yet, runs a Constant schedule with a positive load and one of this
// package's patterns (stateless values), and stays under the stream caps
// is interned; Piecewise and ScheduleFunc schedules always run live.
// Results are identical either way.
func (g *Generator) Intern(horizon int64) bool {
	load, ok := g.schedule.(constant)
	if !ok || load <= 0 || g.ticked || g.replay != nil || horizon <= 0 || horizon >= 1<<32 {
		return false
	}
	switch g.pattern.(type) {
	case UniformRandom, Transpose, BitComplement:
	default:
		return false
	}
	nodes := len(g.rngs)
	if min(float64(load), 1)*float64(nodes)*float64(horizon) > maxStreamArrivals {
		return false
	}
	k := streamKey{pattern: g.pattern, load: float64(load), seed: g.seed, rows: g.rows, cols: g.cols, nodes: nodes, horizon: uint32(horizon)}
	st := internStream(k, g.rngs)
	if st == nil {
		return false
	}
	g.replay, g.tick, g.pos = st, 0, 0
	return true
}

// internStream returns the stream for k, recording it from the seeded
// node RNGs rngs on first use, or nil when the table is full. Concurrent
// callers with one key share one stream and one recording pass.
func internStream(k streamKey, rngs []sim.RNG) *stream {
	v, ok := streams.Load(k)
	if !ok {
		// Reserve the worst case before publishing, so concurrent inserts
		// cannot overshoot the cap; the recording pass trues it up.
		reserve := streamReserve(k.nodes)
		if streamBytes.Add(reserve) > maxTableBytes {
			streamBytes.Add(-reserve)
			return nil
		}
		if v, ok = streams.LoadOrStore(k, &stream{}); ok {
			streamBytes.Add(-reserve)
		}
	}
	st := v.(*stream)
	st.once.Do(func() { st.record(k, rngs) })
	return st
}

// streamReserve is the table bytes a stream over nodes may take at most:
// every expected arrival (plus slack) and the nodes' end states.
func streamReserve(nodes int) int64 {
	return 2*maxStreamArrivals*arrivalBytes + int64(nodes)*rngBytes
}

// record runs the draw loop for the key's horizon over a copy of the
// seeded node RNGs, keeping every arrival and the RNGs' end states.
func (st *stream) record(k streamKey, rngs []sim.RNG) {
	end := append([]sim.RNG(nil), rngs...)
	expected := min(k.load, 1) * float64(k.nodes) * float64(k.horizon)
	rec := recorder{arrivals: make([]arrival, 0, int(expected*1.05)+64)}
	for rec.tick = 0; rec.tick < k.horizon; rec.tick++ {
		drawCycle(end, k.pattern, k.load, k.rows, k.cols, &rec)
	}
	st.horizon = k.horizon
	st.arrivals = rec.arrivals[:len(rec.arrivals):len(rec.arrivals)]
	st.end = end
	streamBytes.Add(int64(cap(rec.arrivals))*arrivalBytes + int64(len(end))*rngBytes - streamReserve(k.nodes))
}

// replayTick emits the replayed stream's arrivals for the next Tick and,
// after the stream's last Tick, restores the node RNGs to the stream's
// end states and returns the generator to live drawing.
//
//catnap:hotpath runs once per simulated cycle while a stream replays
func (g *Generator) replayTick() {
	st := g.replay
	for g.pos < len(st.arrivals) && st.arrivals[g.pos].tick == g.tick {
		a := st.arrivals[g.pos]
		g.arrive(int(a.src), int(a.dst))
		g.pos++
	}
	g.tick++
	if g.tick == st.horizon {
		copy(g.rngs, st.end)
		g.replay = nil
		g.ticked = true
	}
}

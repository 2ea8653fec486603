package traffic

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/catnap-noc/catnap/internal/noc"
	"github.com/catnap-noc/catnap/internal/sim"
)

// created is one packet as the network saw it at creation: ID is the
// network's creation order, CreateTime the cycle of the NewPacket call.
type created struct {
	id         uint64
	src, dst   int
	class      noc.MsgClass
	bits       int
	createTime int64
}

// genRun is everything a differential compares about one generator run.
type genRun struct {
	interned bool
	packets  []created
	offered  []int64   // Offered after every cycle
	horizon  []sim.RNG // node RNG states after the horizon's last Tick
	end      []sim.RNG // node RNG states after the continuation
}

// runGenerator ticks a generator (interned or live) for horizon cycles
// plus a live continuation of extra cycles, stepping the network in
// lockstep, then drains the network so every created packet is seen.
func runGenerator(t *testing.T, pattern Pattern, sched Schedule, seed uint64, intern bool, horizon, extra int64) genRun {
	t.Helper()
	net := newTestNet(t)
	var r genRun
	net.AddSink(func(now int64, p *noc.Packet) {
		r.packets = append(r.packets, created{p.ID, p.Src, p.Dst, p.Class, p.SizeBits, p.CreateTime})
	})
	gen := NewGenerator(net, pattern, sched, seed)
	gen.SetPacket(noc.ClassRequest, 200)
	if intern {
		r.interned = gen.Intern(horizon)
	}
	for c := int64(0); c < horizon+extra; c++ {
		gen.Tick(c)
		net.Step()
		r.offered = append(r.offered, gen.Offered)
		if c == horizon-1 {
			r.horizon = append([]sim.RNG(nil), gen.rngs...)
		}
	}
	r.end = append([]sim.RNG(nil), gen.rngs...)
	for i := 0; i < 1_000_000; i++ {
		if c, _, e := net.Counts(); c == e {
			break
		}
		net.Step()
	}
	if c, _, e := net.Counts(); c != e || int64(len(r.packets)) != c {
		t.Fatalf("network did not drain: created %d, ejected %d, sunk %d", c, e, len(r.packets))
	}
	return r
}

// TestInternReplayMatchesLive: for every pattern and loads 0, 0.002, 0.3
// and 1, a replayed stream creates the live run's packets (endpoints,
// class, size, creation cycle and order), offers the same count on every
// cycle, leaves every node RNG in the live state at the horizon, and
// continues identically for 500 cycles past it.
func TestInternReplayMatchesLive(t *testing.T) {
	const horizon, extra = 300, 500
	for _, pattern := range []Pattern{UniformRandom{}, Transpose{}, BitComplement{}} {
		for _, load := range []float64{0, 0.002, 0.3, 1} {
			t.Run(fmt.Sprintf("%s/%g", pattern.Name(), load), func(t *testing.T) {
				// Two interned runs: the first may record the stream, the
				// second must find it in the table.
				live := runGenerator(t, pattern, Constant(load), 23, false, horizon, extra)
				for pass := 0; pass < 2; pass++ {
					rep := runGenerator(t, pattern, Constant(load), 23, true, horizon, extra)
					if rep.interned != (load > 0) {
						t.Fatalf("pass %d: Intern = %v at load %g", pass, rep.interned, load)
					}
					compareRuns(t, live, rep)
				}
				if load > 0 && len(live.packets) == 0 {
					t.Fatal("no packets offered: the comparison is vacuous")
				}
			})
		}
	}
}

// compareRuns fails on the first difference between two generator runs.
func compareRuns(t *testing.T, want, got genRun) {
	t.Helper()
	if len(got.packets) != len(want.packets) {
		t.Fatalf("%d packets, live run %d", len(got.packets), len(want.packets))
	}
	for i := range want.packets {
		if got.packets[i] != want.packets[i] {
			t.Fatalf("packet %d = %+v, live run %+v", i, got.packets[i], want.packets[i])
		}
	}
	for c := range want.offered {
		if got.offered[c] != want.offered[c] {
			t.Fatalf("cycle %d: Offered %d, live run %d", c, got.offered[c], want.offered[c])
		}
	}
	for i := range want.horizon {
		if got.horizon[i] != want.horizon[i] {
			t.Fatalf("node %d RNG state at the horizon differs from the live run", i)
		}
		if got.end[i] != want.end[i] {
			t.Fatalf("node %d RNG state after the continuation differs from the live run", i)
		}
	}
}

// TestInternFallsBackToLive: schedules other than Constant, patterns
// outside this package, over-cap streams, a full table, and a generator
// that has already ticked all run live — and still match the live run.
func TestInternFallsBackToLive(t *testing.T) {
	var now int64
	var log []injection
	cases := []struct {
		name    string
		pattern Pattern
		sched   Schedule
		horizon int64
	}{
		{"piecewise", UniformRandom{}, Piecewise(Phase{Until: 100, Load: 0.3}, Phase{Until: 1 << 62, Load: 0.1}), 300},
		{"schedule-func", UniformRandom{}, ScheduleFunc(func(int64) float64 { return 0.3 }), 300},
		{"foreign-pattern", recordingPattern{UniformRandom{}, &now, &log}, Constant(0.3), 300},
		// 0.3 × 16 nodes × 13654 cycles is just over the per-stream cap.
		{"over-cap", Transpose{}, Constant(0.3), maxStreamArrivals/16*10/3 + 1},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			live := runGenerator(t, c.pattern, c.sched, 29, false, c.horizon, 100)
			rep := runGenerator(t, c.pattern, c.sched, 29, true, c.horizon, 100)
			if rep.interned {
				t.Fatal("Intern replays a stream that must run live")
			}
			compareRuns(t, live, rep)
		})
	}

	t.Run("ticked", func(t *testing.T) {
		gen := NewGenerator(newTestNet(t), UniformRandom{}, Constant(0.3), 29)
		gen.Tick(0)
		if gen.Intern(300) {
			t.Fatal("Intern replays a generator whose RNGs have moved")
		}
	})

	t.Run("table-full", func(t *testing.T) {
		streamBytes.Add(maxTableBytes)
		defer streamBytes.Add(-maxTableBytes)
		gen := NewGenerator(newTestNet(t), UniformRandom{}, Constant(0.3), 31)
		if gen.Intern(300) {
			t.Fatal("Intern records a new stream into a full table")
		}
	})
}

// sharedSeed gives every TestInternSharesOneStream run (-count=N) a key
// no earlier run recorded, so each run races the recording itself.
var sharedSeed atomic.Uint64

// TestInternSharesOneStream: generators interning one new key
// concurrently all get the one stream its single recording produced.
func TestInternSharesOneStream(t *testing.T) {
	const workers = 4
	seed := 1000 + sharedSeed.Add(1)
	gens := make([]*Generator, workers)
	for i := range gens {
		gens[i] = NewGenerator(newTestNet(t), BitComplement{}, Constant(0.05), seed)
	}
	var wg sync.WaitGroup
	start := make(chan struct{})
	ok := make([]bool, workers)
	for i := range gens {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			ok[i] = gens[i].Intern(4000)
		}()
	}
	close(start)
	wg.Wait()
	for i, g := range gens {
		if !ok[i] {
			t.Fatalf("generator %d runs live", i)
		}
		if g.replay != gens[0].replay {
			t.Fatalf("generator %d replays a different stream than generator 0", i)
		}
	}
	if len(gens[0].replay.arrivals) == 0 {
		t.Fatal("shared stream is empty")
	}
}

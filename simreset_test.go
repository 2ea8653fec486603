package catnap

import (
	"context"
	"reflect"
	"testing"

	"github.com/catnap-noc/catnap/internal/traffic"
)

// The root-level reset differentials prove the full zero-rebuild stack —
// Simulator.Reset over Network.Reset and Detector.Reset, fronted by
// SimPool — is bit-identical to fresh construction, Results struct for
// Results struct.

// runOnce runs the standard synthetic scenario on sim.
func runOnce(sim *Simulator, load float64) Results {
	return sim.RunSynthetic(traffic.UniformRandom{}, traffic.Constant(load), 500, 2000)
}

// TestSimPoolBitIdentical: a pooled simulator dirtied by a different
// design must, after Get resets it, reproduce a fresh simulator's Results
// exactly for every registered design family the pool will see in sweeps.
func TestSimPoolBitIdentical(t *testing.T) {
	designs := []string{"1NT-512b", "4NT-128b", "4NT-128b-PG", "2NT-256b", "4NT-128b-PG-torus", "4NT-128b-PG-fbfly"}
	for _, d := range designs {
		cfg := mustDesign(d)
		fresh := runOnce(mustSim(cfg), 0.10)

		pool := NewSimPool()
		// Dirty the pool with a different design and load first.
		dirty := "4NT-128b-PG"
		if d == "4NT-128b-PG" {
			dirty = "1NT-512b"
		}
		dsim, err := pool.Get(mustDesign(dirty))
		if err != nil {
			t.Fatal(err)
		}
		runOnce(dsim, 0.25)

		sim, err := pool.Get(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if sim != dsim {
			t.Fatalf("%s: pool rebuilt instead of resetting in place", d)
		}
		got := runOnce(sim, 0.10)
		if !reflect.DeepEqual(fresh, got) {
			t.Errorf("%s: pooled run diverges from fresh\nfresh: %+v\npooled: %+v", d, fresh, got)
		}
	}
}

// TestSimPoolRepeatedHeterogeneous cycles one pool through a
// heterogeneous design sequence twice — the steady state of a sweep
// worker — checking each leg against fresh construction.
func TestSimPoolRepeatedHeterogeneous(t *testing.T) {
	seq := []struct {
		design string
		load   float64
	}{
		{"4NT-128b-PG", 0.05},
		{"1NT-512b", 0.20},
		{"8NT-64b", 0.10},
		{"4NT-128b-PG", 0.05}, // exact repeat of leg 0
	}
	pool := NewSimPool()
	for rep := 0; rep < 2; rep++ {
		for i, leg := range seq {
			cfg := mustDesign(leg.design)
			fresh := runOnce(mustSim(cfg), leg.load)
			sim, err := pool.Get(cfg)
			if err != nil {
				t.Fatal(err)
			}
			got := runOnce(sim, leg.load)
			if !reflect.DeepEqual(fresh, got) {
				t.Errorf("rep %d leg %d (%s): pooled run diverges from fresh", rep, i, leg.design)
			}
		}
	}
}

// TestSimulatorResetInvalidConfig: Reset must reject an invalid config
// before mutating anything, leaving the simulator on its old config and
// still producing bit-identical results.
func TestSimulatorResetInvalidConfig(t *testing.T) {
	cfg := mustDesign("4NT-128b-PG")
	want := runOnce(mustSim(cfg), 0.10)

	sim := mustSim(cfg)
	bad := cfg
	bad.Selector = SelectorKind(99)
	if err := sim.Reset(bad); err == nil {
		t.Fatal("Reset accepted an unknown selector kind")
	}
	bad = cfg
	bad.Gating = GatingKind(99)
	if err := sim.Reset(bad); err == nil {
		t.Fatal("Reset accepted an unknown gating kind")
	}
	if err := sim.Reset(cfg); err != nil {
		t.Fatal(err)
	}
	if got := runOnce(sim, 0.10); !reflect.DeepEqual(want, got) {
		t.Errorf("after rejected resets, results diverge from fresh\nwant: %+v\ngot: %+v", want, got)
	}
}

// TestExperimentReuseMatchesNoReuse is the end-to-end guard: the fig6
// sweep run through the default per-worker SimPool must render the exact
// table the fresh-construction arm does.
func TestExperimentReuseMatchesNoReuse(t *testing.T) {
	base := ExperimentOpts{
		Scale: Scale{Warmup: 300, Measure: 1000},
		Loads: []float64{0.05, 0.15},
	}
	base.Sweep.Jobs = 2

	reuse, err := RunExperiment(context.Background(), "fig6", base)
	if err != nil {
		t.Fatal(err)
	}
	noReuse := base
	noReuse.NoReuse = true
	fresh, err := RunExperiment(context.Background(), "fig6", noReuse)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fresh.Rows, reuse.Rows) {
		t.Errorf("fig6 rows diverge between reuse and fresh arms\nfresh: %v\nreuse: %v", fresh.Rows, reuse.Rows)
	}
	if !reflect.DeepEqual(fresh.Data, reuse.Data) {
		t.Errorf("fig6 typed data diverges between reuse and fresh arms")
	}
}

// TestSimPoolReusesLatencyReservoirs: a pooled simulator keeps its
// measurement-window latency reservoirs across windows and resets. After
// a window long enough to decimate them (more deliveries than their
// 1<<16 capacity), a short window on a different design still reports
// exactly a fresh simulator's Results, and opening a reused window
// allocates nothing.
func TestSimPoolReusesLatencyReservoirs(t *testing.T) {
	pool := NewSimPool()
	sim, err := pool.Get(mustDesign("1NT-512b"))
	if err != nil {
		t.Fatal(err)
	}
	sim.RunSynthetic(traffic.UniformRandom{}, traffic.Constant(0.3), 200, 5000)
	if n := sim.winLatency.Count(); n <= 1<<16 {
		t.Fatalf("long window observed %d deliveries, want > %d so the reservoir decimates", n, 1<<16)
	}
	lat, netLat := sim.winLatency, sim.winNetLat

	cfg := mustDesign("4NT-128b-PG")
	short := func(s *Simulator) Results {
		return s.RunSynthetic(traffic.UniformRandom{}, traffic.Constant(0.05), 300, 1000)
	}
	reused, err := pool.Get(cfg)
	if err != nil {
		t.Fatal(err)
	}
	got := short(reused)
	if reused.winLatency != lat || reused.winNetLat != netLat {
		t.Fatal("a reused simulator allocated new latency reservoirs")
	}
	if want := short(mustSim(cfg)); !reflect.DeepEqual(got, want) {
		t.Fatalf("reused reservoirs changed the Results:\n got %+v\nwant %+v", got, want)
	}
	if allocs := testing.AllocsPerRun(10, reused.StartMeasure); allocs != 0 {
		t.Fatalf("a reused StartMeasure allocates %v times, want 0", allocs)
	}
}

package noc_test

import (
	"sync"
	"testing"

	"github.com/catnap-noc/catnap/internal/congestion"
	"github.com/catnap-noc/catnap/internal/core"
	"github.com/catnap-noc/catnap/internal/noc"
	"github.com/catnap-noc/catnap/internal/traffic"
)

// gatedOutcome is the observable fingerprint of one gated run.
type gatedOutcome struct {
	ejected int64
	latMean float64
	events  noc.PowerEvents
}

// runGated runs the full Catnap stack on cfg for cycles with the given
// traffic seed.
func runGated(t *testing.T, cfg noc.Config, seed uint64, cycles int) gatedOutcome {
	t.Helper()
	net, err := noc.New(cfg, core.NewRRSelector(cfg.Nodes()))
	if err != nil {
		t.Error(err)
		return gatedOutcome{}
	}
	det := congestion.NewDetector(net, congestion.Default(congestion.BFM))
	net.AddObserver(det)
	net.SetSelector(core.NewCatnapSelector(det, cfg.Nodes()))
	net.SetGatingPolicy(core.NewCatnapGating(det))
	gen := traffic.NewGenerator(net, traffic.UniformRandom{}, traffic.Fig12Bursts(), seed)
	for i := 0; i < cycles; i++ {
		gen.Tick(net.Now())
		net.Step()
	}
	_, _, ejected := net.Counts()
	return gatedOutcome{ejected: ejected, latMean: net.Latency().Mean(), events: net.Events()}
}

// TestParallelEquivalence steps independent networks on concurrent
// goroutines, the way sweep workers do, and requires each to match the
// same network stepped alone. The networks share the process-wide
// topology precompute, the one piece of simulator state that crosses
// goroutines (the race detector sees this test under make race).
func TestParallelEquivalence(t *testing.T) {
	const cycles = 1500
	type job struct {
		cfg  noc.Config
		seed uint64
	}
	jobs := []job{
		{testConfig(8, 8, 4, 128), 99},
		{testConfig(8, 8, 4, 128), 7},
		{testConfig(4, 4, 2, 256), 99},
		{testConfig(4, 4, 2, 256), 7},
	}
	par := make([]gatedOutcome, len(jobs))
	var wg sync.WaitGroup
	for i, j := range jobs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			par[i] = runGated(t, j.cfg, j.seed, cycles)
		}()
	}
	wg.Wait()
	for i, j := range jobs {
		seq := runGated(t, j.cfg, j.seed, cycles)
		if seq != par[i] {
			t.Errorf("job %d: concurrent run diverged from stepping alone\nalone:      %+v\nconcurrent: %+v", i, seq, par[i])
		}
		if seq.ejected == 0 {
			t.Errorf("job %d: no traffic delivered", i)
		}
	}
}

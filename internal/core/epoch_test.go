package core_test

import (
	"fmt"
	"testing"

	"github.com/catnap-noc/catnap/internal/congestion"
	"github.com/catnap-noc/catnap/internal/core"
	"github.com/catnap-noc/catnap/internal/noc"
	"github.com/catnap-noc/catnap/internal/traffic"
)

// TestCatnapPolicyEpochPerSubnet pins the per-subnet EpochedPolicy
// contract the power phase relies on: whenever any AllowSleep or WantWake
// answer for a subnet changes from one cycle to the next, that subnet's
// PolicyEpoch must have moved too. A Catnap stack runs under every
// detector setup that moves the epochs differently (RCS toggles, LCS
// transitions with the OR network off, LCS churn at a 0.5 threshold), at
// a sleep-dominated and a congested load; after every cycle the test
// snapshots all (subnet, node) answers and every subnet's epoch.
func TestCatnapPolicyEpochPerSubnet(t *testing.T) {
	const cycles = 1500
	changed := 0
	for _, useRCS := range []bool{true, false} {
		for _, threshold := range []float64{0, 0.5} {
			for _, load := range []float64{0.02, 0.30} {
				name := fmt.Sprintf("rcs=%v/threshold=%v/load=%v", useRCS, threshold, load)
				c := checkEpochContract(t, name, useRCS, threshold, load, cycles)
				t.Logf("%s: %d subnet-cycles with changed answers", name, c)
				changed += c
			}
		}
	}
	if changed == 0 {
		t.Fatal("no AllowSleep/WantWake answer ever changed: the contract check is vacuous")
	}
}

// checkEpochContract runs one configuration and returns how many
// (cycle, subnet) steps saw an answer change.
func checkEpochContract(t *testing.T, name string, useRCS bool, threshold, load float64, cycles int) int {
	t.Helper()
	cfg := netCfg(4)
	net, err := noc.New(cfg, core.NewRRSelector(cfg.Nodes()))
	if err != nil {
		t.Fatal(err)
	}
	dcfg := congestion.Default(congestion.BFM)
	dcfg.UseRCS = useRCS
	if threshold != 0 {
		dcfg.Threshold = threshold
	}
	det := congestion.NewDetector(net, dcfg)
	net.AddObserver(det)
	net.SetSelector(core.NewCatnapSelector(det, cfg.Nodes()))
	g := core.NewCatnapGating(det)
	net.SetGatingPolicy(g)
	gen := traffic.NewGenerator(net, traffic.UniformRandom{}, traffic.Constant(load), 11)

	subnets, nodes := cfg.Subnets, cfg.Nodes()
	answers := func(now int64) ([]bool, []uint64) {
		a := make([]bool, 0, 2*subnets*nodes)
		ep := make([]uint64, subnets)
		for s := 0; s < subnets; s++ {
			ep[s] = g.PolicyEpoch(s)
			for n := 0; n < nodes; n++ {
				a = append(a, g.AllowSleep(now, s, n, 1<<20), g.WantWake(now, s, n))
			}
		}
		return a, ep
	}

	changed := 0
	prevA, prevEp := answers(net.Now())
	for i := 0; i < cycles; i++ {
		gen.Tick(net.Now())
		net.Step()
		a, ep := answers(net.Now())
		for s := 0; s < subnets; s++ {
			lo, hi := 2*s*nodes, 2*(s+1)*nodes
			moved := false
			for k := lo; k < hi; k++ {
				if a[k] != prevA[k] {
					moved = true
					break
				}
			}
			if !moved {
				continue
			}
			changed++
			if ep[s] == prevEp[s] {
				t.Fatalf("%s: cycle %d: subnet %d answers changed but PolicyEpoch stayed %d", name, net.Now(), s, ep[s])
			}
		}
		prevA, prevEp = a, ep
	}
	return changed
}

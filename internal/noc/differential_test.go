package noc_test

import (
	"fmt"
	"math"
	"testing"

	"github.com/catnap-noc/catnap/internal/congestion"
	"github.com/catnap-noc/catnap/internal/core"
	"github.com/catnap-noc/catnap/internal/noc"
	"github.com/catnap-noc/catnap/internal/traffic"
)

// The differential tests pin the tentpole property of the O(active)
// stepping path: the incremental work-list implementation must be
// bit-identical to the retained reference scan — same deliveries, same
// latency distribution, same power events and transition traces, same
// congestion decisions — under every gating flavor.

// diffEvent is one power or congestion transition, as seen by tracers.
type diffEvent struct {
	cycle        int64
	kind         int8 // 0 slept, 1 woke, 2 lcs, 3 rcs
	subnet, node int
	aux          int64 // idle (slept), slept (woke), on/off (lcs, rcs)
	cause        noc.WakeCause
}

// diffTracer records transitions in the order they fire.
type diffTracer struct {
	events []diffEvent
}

func (t *diffTracer) RouterSlept(now int64, subnet, node int, idle int64) {
	t.events = append(t.events, diffEvent{cycle: now, kind: 0, subnet: subnet, node: node, aux: idle})
}

func (t *diffTracer) RouterWoke(now int64, subnet, node int, cause noc.WakeCause, slept int64) {
	t.events = append(t.events, diffEvent{cycle: now, kind: 1, subnet: subnet, node: node, aux: slept, cause: cause})
}

func (t *diffTracer) LCSChanged(now int64, subnet, node int, on bool) {
	t.events = append(t.events, diffEvent{cycle: now, kind: 2, subnet: subnet, node: node, aux: b2i(on)})
}

func (t *diffTracer) RCSChanged(now int64, subnet, region int, on bool) {
	t.events = append(t.events, diffEvent{cycle: now, kind: 3, subnet: subnet, node: region, aux: b2i(on)})
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// opaqueGating hides a policy's EpochedPolicy implementation, forcing the
// incremental power phase onto its every-cycle polling fallback.
type opaqueGating struct{ p noc.GatingPolicy }

func (o opaqueGating) AllowSleep(now int64, subnet, node int, idle int64) bool {
	return o.p.AllowSleep(now, subnet, node, idle)
}
func (o opaqueGating) WantWake(now int64, subnet, node int) bool {
	return o.p.WantWake(now, subnet, node)
}

// diffFingerprint is everything one run exposes to comparison.
type diffFingerprint struct {
	cycleHash []uint64 // rolling per-cycle hash of sampled aggregates
	events    []diffEvent
	ejected   int64
	latMean   float64
	latP50    int64
	latP99    int64
	powEvents noc.PowerEvents
	csc       int64
	share     []float64
	skipped   int64 // cycles fast-forwarded; not compared, asserted per-test
}

// diffProbe samples settled per-cycle state into a rolling hash, and (on
// the incremental arm) cross-checks every aggregate against its scan. The
// hash includes each subnet's summed switch-allocation counters (blocked
// flit cycles, granted flits), which the Delay congestion metric reads.
type diffProbe struct {
	t     *testing.T
	net   *noc.Network
	hash  uint64
	out   *[]uint64
	check bool
}

func (p *diffProbe) AfterCycle(now int64) {
	h := p.hash
	mix := func(v uint64) { h = (h ^ v) * 1099511628211 }
	for s := 0; s < p.net.Subnets(); s++ {
		sub := p.net.Subnet(s)
		a, w, z := sub.PowerStates()
		mix(uint64(a)<<32 | uint64(w)<<16 | uint64(z))
		mix(uint64(sub.BufferedFlits()))
		mix(uint64(sub.MaxBFM()))
		var blocked, granted int64
		for n := 0; n < p.net.Config().Nodes(); n++ {
			b, g := sub.Router(n).BlockingCounters()
			blocked += b
			granted += g
		}
		mix(uint64(blocked))
		mix(uint64(granted))
	}
	mix(uint64(p.net.NIQueueFlits()))
	mix(uint64(p.net.InFlight()))
	p.hash = h
	*p.out = append(*p.out, h)

	if p.check && now%97 == 0 {
		p.scanCheck(now)
	}
}

// NextIdleEvent implements noc.IdleSkipper: the probe never bounds a
// skip, because SkipIdle replays its per-cycle sampling exactly.
func (p *diffProbe) NextIdleEvent(now int64) (int64, bool) { return noc.SkipHorizon, true }

// SkipIdle replays AfterCycle for every skipped cycle. The sampled
// aggregates are constant across a quiescent span, so the replay emits
// the exact hash stream the stepped reference produces — which is what
// lets the skip differentials compare per-cycle state, not just totals.
func (p *diffProbe) SkipIdle(from, to int64) {
	for c := from; c < to; c++ {
		p.AfterCycle(c)
	}
}

// scanCheck cross-checks every incremental aggregate against its O(nodes)
// scan counterpart.
func (p *diffProbe) scanCheck(now int64) {
	for s := 0; s < p.net.Subnets(); s++ {
		sub := p.net.Subnet(s)
		a, w, z := sub.PowerStates()
		as, ws, zs := sub.PowerStatesScan()
		if a != as || w != ws || z != zs {
			p.t.Fatalf("cycle %d subnet %d: PowerStates (%d,%d,%d) != scan (%d,%d,%d)", now, s, a, w, z, as, ws, zs)
		}
		if got, want := sub.BufferedFlits(), sub.BufferedFlitsScan(); got != want {
			p.t.Fatalf("cycle %d subnet %d: BufferedFlits %d != scan %d", now, s, got, want)
		}
		if got, want := sub.MaxBFM(), sub.MaxBFMScan(); got != want {
			p.t.Fatalf("cycle %d subnet %d: MaxBFM %d != scan %d", now, s, got, want)
		}
		for n := 0; n < p.net.Config().Nodes(); n++ {
			r := sub.Router(n)
			if r.TotalOccupancy() != r.TotalOccupancyScan() || r.MaxPortOccupancy() != r.MaxPortOccupancyScan() {
				p.t.Fatalf("cycle %d subnet %d router %d: occupancy counters drifted from scan", now, s, n)
			}
		}
		// The full aggregate check, including the per-slot occupancy and
		// out-VC masks the allocation stages read.
		if msg := sub.CheckAggregates(); msg != "" {
			p.t.Fatalf("cycle %d subnet %d: %s", now, s, msg)
		}
	}
}

// diffOpts parameterizes one differential run. The flip lists toggle the
// corresponding mode at those cycles mid-run (each toggle re-applies the
// whole mode through SetExecMode): flipRef toggles the reference scan,
// flipSkip toggles idle fast-forward. drainAt
// lists cycles at which the run calls Network.Drain with drainBudget as
// its deadline — on a quiescent network the deadline then lands inside
// what the skipping arm would fast-forward over.
type diffOpts struct {
	// net, when non-nil, runs the scenario on this network instead of
	// building a fresh one — the reset differential suite passes a
	// previously used, Reset network here to prove reuse is bit-identical.
	net         *noc.Network
	gating      string
	ref         bool
	skip        bool // arm idle fast-forward and attempt it every cycle
	sched       traffic.Schedule
	cycles      int
	flipRef     []int
	flipSkip    []int
	drainAt     []int
	drainBudget int64
}

// diffRun executes the full stack for cycles and fingerprints it.
// flipAt, when non-empty, toggles the stepping mode at those cycles
// (mid-run switch support).
func diffRun(t *testing.T, gating string, ref bool, sched traffic.Schedule, cycles int, flipAt ...int) diffFingerprint {
	t.Helper()
	return diffRunWith(t, diffOpts{
		gating: gating, ref: ref,
		sched: sched, cycles: cycles, flipRef: flipAt,
	})
}

func diffRunWith(t *testing.T, o diffOpts) diffFingerprint {
	t.Helper()
	net := o.net
	if net == nil {
		cfg := testConfig(8, 8, 4, 128)
		var err error
		net, err = noc.New(cfg, core.NewRRSelector(cfg.Nodes()))
		if err != nil {
			t.Fatal(err)
		}
	}
	cfg := net.Config()
	tr := &diffTracer{}
	net.SetPowerTracer(tr)

	var det *congestion.Detector
	switch o.gating {
	case "catnap", "opaque", "catnap-local", "catnap-t0.5":
		dcfg := congestion.Default(congestion.BFM)
		switch o.gating {
		case "catnap-local":
			// No OR network: RCSAtNode falls back to LCS, so LCS
			// transitions (not RCS toggles) move the policy epochs.
			dcfg.UseRCS = false
		case "catnap-t0.5":
			// Any buffered flit sets its router's LCS: the status flips
			// on nearly every flit.
			dcfg.Threshold = 0.5
		}
		det = congestion.NewDetector(net, dcfg)
		det.SetTracer(tr)
		net.AddObserver(det)
		net.SetSelector(core.NewCatnapSelector(det, cfg.Nodes()))
		if o.gating == "opaque" {
			net.SetGatingPolicy(opaqueGating{p: core.NewCatnapGating(det)})
		} else {
			net.SetGatingPolicy(core.NewCatnapGating(det))
		}
	case "baseline":
		net.SetGatingPolicy(core.BaselineGating{})
	case "none":
	default:
		t.Fatalf("unknown gating flavor %q", o.gating)
	}

	fp := diffFingerprint{}
	noFlips := len(o.flipRef) == 0 && len(o.flipSkip) == 0
	probe := &diffProbe{t: t, net: net, out: &fp.cycleHash, check: !o.ref && !o.skip && noFlips}
	net.AddObserver(probe)

	mode := noc.ExecMode{ReferenceScan: o.ref, IdleSkip: o.skip}
	apply := func() {
		net.SetExecMode(mode)
		if det != nil {
			det.SetReferenceScan(mode.ReferenceScan)
		}
	}
	apply()

	gen := traffic.NewGenerator(net, traffic.UniformRandom{}, o.sched, 99)
	flipRef := append([]int(nil), o.flipRef...)
	flipSkip := append([]int(nil), o.flipSkip...)
	drainAt := append([]int(nil), o.drainAt...)
	end := int64(o.cycles)
	for net.Now() < end {
		now := net.Now()
		if len(flipRef) > 0 && int64(flipRef[0]) <= now {
			flipRef = flipRef[1:]
			mode.ReferenceScan = !mode.ReferenceScan
			apply()
		}
		if len(flipSkip) > 0 && int64(flipSkip[0]) <= now {
			flipSkip = flipSkip[1:]
			mode.IdleSkip = !mode.IdleSkip
			apply()
		}
		if len(drainAt) > 0 && int64(drainAt[0]) <= now {
			drainAt = drainAt[1:]
			net.Drain(o.drainBudget)
			continue // re-read the clock: Drain steps the network itself
		}
		if mode.IdleSkip {
			// Mirror Simulator.trySkip: bound the jump by the run deadline,
			// the next pending mode flip or drain call, and the generator's
			// next injection cycle, then let the network and its observers
			// bound it further.
			target := end
			for _, f := range [][]int{flipRef, flipSkip, drainAt} {
				if len(f) > 0 && int64(f[0]) < target {
					target = int64(f[0])
				}
			}
			if at, ok := gen.NextArrival(now); ok && at < target {
				target = at
			}
			if k := net.TrySkipIdle(target); k > 0 {
				fp.skipped += k
				continue
			}
		}
		gen.Tick(net.Now())
		net.Step()
	}

	_, _, fp.ejected = net.Counts()
	fp.latMean = net.Latency().Mean()
	fp.latP50 = net.Latency().Percentile(50)
	fp.latP99 = net.Latency().Percentile(99)
	fp.powEvents = net.Events()
	net.FlushCSC()
	fp.csc, _ = net.CompensatedSleepCycles()
	fp.share = net.SubnetFlitShare()
	fp.events = tr.events
	return fp
}

// compareFingerprints fails the test on the first divergence between a
// reference-scan run and an incremental run, including the exact order of
// power and congestion transitions.
func compareFingerprints(t *testing.T, name string, ref, fast diffFingerprint) {
	t.Helper()
	if len(ref.cycleHash) != len(fast.cycleHash) {
		t.Fatalf("%s: cycle hash lengths differ", name)
	}
	for i := range ref.cycleHash {
		if ref.cycleHash[i] != fast.cycleHash[i] {
			t.Fatalf("%s: per-cycle state diverges first at cycle %d", name, i)
		}
	}
	if ref.ejected != fast.ejected || ref.ejected == 0 {
		t.Errorf("%s: ejected ref %d vs fast %d", name, ref.ejected, fast.ejected)
	}
	if ref.latMean != fast.latMean || ref.latP50 != fast.latP50 || ref.latP99 != fast.latP99 {
		t.Errorf("%s: latency distribution diverged (mean %v vs %v, p50 %d vs %d, p99 %d vs %d)",
			name, ref.latMean, fast.latMean, ref.latP50, fast.latP50, ref.latP99, fast.latP99)
	}
	if ref.powEvents != fast.powEvents {
		t.Errorf("%s: power events diverge\nref:  %+v\nfast: %+v", name, ref.powEvents, fast.powEvents)
	}
	if ref.csc != fast.csc {
		t.Errorf("%s: CSC ref %d vs fast %d", name, ref.csc, fast.csc)
	}
	for s := range ref.share {
		if math.Abs(ref.share[s]-fast.share[s]) != 0 {
			t.Errorf("%s: subnet %d flit share ref %v vs fast %v", name, s, ref.share[s], fast.share[s])
		}
	}
	if len(ref.events) != len(fast.events) {
		t.Fatalf("%s: transition counts differ: ref %d vs fast %d", name, len(ref.events), len(fast.events))
	}
	for i := range ref.events {
		if ref.events[i] != fast.events[i] {
			t.Fatalf("%s: transition %d diverges: ref %+v vs fast %+v", name, i, ref.events[i], fast.events[i])
		}
	}
}

// TestIncrementalMatchesReferenceScan is the tentpole differential: for
// every gating flavor (Catnap epoched, Catnap with the epoch interface
// hidden, baseline, and no gating), the incremental O(active) path must
// reproduce the reference scan bit for bit, including the exact order of
// sleep/wake/LCS/RCS transitions.
func TestIncrementalMatchesReferenceScan(t *testing.T) {
	const cycles = 3000
	for _, gating := range []string{"catnap", "opaque", "baseline", "none"} {
		ref := diffRun(t, gating, true, traffic.Fig12Bursts(), cycles)
		fast := diffRun(t, gating, false, traffic.Fig12Bursts(), cycles)
		compareFingerprints(t, gating+"/bursty", ref, fast)
	}
}

// TestIncrementalMatchesReferenceScanLoads covers the load extremes: the
// sleep-dominated low-load region (long idle streaks, epoch-skipped
// polls) and a saturated run (dense occupancy, congestion churn), under
// each Catnap setup whose per-subnet policy epochs move for a different
// reason: RCS toggles (catnap), LCS transitions with the OR network off
// (catnap-local), and LCS churn on nearly every flit (catnap-t0.5).
func TestIncrementalMatchesReferenceScanLoads(t *testing.T) {
	const cycles = 2500
	for _, gating := range []string{"catnap", "catnap-local", "catnap-t0.5"} {
		for _, load := range []float64{0.02, 0.35} {
			ref := diffRun(t, gating, true, traffic.Constant(load), cycles)
			fast := diffRun(t, gating, false, traffic.Constant(load), cycles)
			compareFingerprints(t, fmt.Sprintf("%s/load%v", gating, load), ref, fast)
		}
	}
}

// TestReferenceScanFlipMidRun switches between the two stepping modes
// mid-run: the idle-streak conversion and check re-arming must land the
// flipped run exactly on the always-incremental trajectory.
func TestReferenceScanFlipMidRun(t *testing.T) {
	const cycles = 2400
	base := diffRun(t, "catnap", false, traffic.Fig12Bursts(), cycles)
	flipped := diffRun(t, "catnap", false, traffic.Fig12Bursts(), cycles, 700, 1500)
	compareFingerprints(t, "flip", base, flipped)
}

// diffTopology is one named network shape for the topology differentials.
type diffTopology struct {
	name string
	cfg  noc.Config
}

// diffTopologies are the non-mesh shapes the topology differentials
// run: the torus (dateline VC classes in allocateOutVC), a radix-7
// flattened butterfly whose slots fit the allocation masks, and one with
// radix×VCs > 64, which takes the full-scan fallback on both arms.
func diffTopologies() []diffTopology {
	wide := fbflyConfig(4, 4, 2, 256)
	wide.VCs = 10 // 7 ports × 10 VCs = 70 slots
	return []diffTopology{
		{"torus", torusConfig(8, 8, 4, 128)},
		{"fbfly4x4", fbflyConfig(4, 4, 2, 256)},
		{"fbfly-wide", wide},
	}
}

// topoNet builds a fresh network for a topology differential arm.
func topoNet(t *testing.T, cfg noc.Config) *noc.Network {
	t.Helper()
	net, err := noc.New(cfg, core.NewRRSelector(cfg.Nodes()))
	if err != nil {
		t.Fatal(err)
	}
	return net
}

// TestIncrementalMatchesReferenceScanTopologies repeats the gated
// differential on the torus and flattened-butterfly shapes, under the
// bursty schedule and a saturating constant load that keeps wormholes
// allocated and outputs contended.
func TestIncrementalMatchesReferenceScanTopologies(t *testing.T) {
	const cycles = 2500
	for _, tc := range diffTopologies() {
		for _, sched := range []struct {
			name string
			s    traffic.Schedule
		}{{"bursty", traffic.Fig12Bursts()}, {"saturated", traffic.Constant(0.45)}} {
			run := func(ref bool) diffFingerprint {
				return diffRunWith(t, diffOpts{net: topoNet(t, tc.cfg), gating: "catnap",
					ref: ref, sched: sched.s, cycles: cycles})
			}
			compareFingerprints(t, tc.name+"/"+sched.name, run(true), run(false))
		}
	}
}

// TestReferenceScanFlipMidRunTopologies flips between the stepping
// modes mid-run on each non-mesh shape: the shared allocation masks must
// carry the flipped run exactly onto the always-incremental trajectory.
func TestReferenceScanFlipMidRunTopologies(t *testing.T) {
	const cycles = 2400
	for _, tc := range diffTopologies() {
		base := diffRunWith(t, diffOpts{net: topoNet(t, tc.cfg), gating: "catnap",
			sched: traffic.Fig12Bursts(), cycles: cycles})
		flipped := diffRunWith(t, diffOpts{net: topoNet(t, tc.cfg), gating: "catnap",
			sched: traffic.Fig12Bursts(), cycles: cycles, flipRef: []int{1200, 1700}})
		compareFingerprints(t, tc.name+"/flip", base, flipped)
	}
}

// TestDrainedQuiescenceIncremental drains a gated run on the incremental
// path and checks the full quiescence invariant, which now includes the
// incremental aggregates matching their scans.
func TestDrainedQuiescenceIncremental(t *testing.T) {
	cfg := testConfig(8, 8, 4, 128)
	net, err := noc.New(cfg, core.NewRRSelector(cfg.Nodes()))
	if err != nil {
		t.Fatal(err)
	}
	det := congestion.NewDetector(net, congestion.Default(congestion.BFM))
	net.AddObserver(det)
	net.SetSelector(core.NewCatnapSelector(det, cfg.Nodes()))
	net.SetGatingPolicy(core.NewCatnapGating(det))
	gen := traffic.NewGenerator(net, traffic.UniformRandom{}, traffic.Constant(0.15), 7)
	for i := 0; i < 2000; i++ {
		gen.Tick(net.Now())
		net.Step()
	}
	if !net.Drain(20000) {
		t.Fatal("network failed to drain")
	}
	if err := net.CheckQuiescent(); err != nil {
		t.Fatal(err)
	}
}

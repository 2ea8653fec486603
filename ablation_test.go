package catnap

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"
)

// Ablation benchmarks: one per design-choice study DESIGN.md calls out.
// Each reports the low-load CSC of the extreme variants so regressions in
// the policy machinery show up as metric swings.

// ablationScale keeps per-iteration cost moderate while staying long
// enough for steady-state behaviour (warmup exceeds the longest wake-up
// and RCS-latch transients by two orders of magnitude).
var ablationScale = Scale{Warmup: 1500, Measure: 6000}

// runAblationStudy runs one study through the registry.
func runAblationStudy(tb testing.TB, study string, sc Scale) []AblationPoint {
	tb.Helper()
	res, err := RunExperiment(context.Background(), "ablation-"+study, ExperimentOpts{Scale: sc, Sweep: SweepOptions{Jobs: 2}})
	if err != nil {
		tb.Fatal(err)
	}
	return res.Data.([]AblationPoint)
}

func benchAblation(b *testing.B, study string) {
	for i := 0; i < b.N; i++ {
		for _, p := range runAblationStudy(b, study, ablationScale) {
			if p.Offered == AblationLoads[0] {
				b.ReportMetric(p.Results.CSCPercent, p.Variant+"_CSC%")
			}
		}
	}
}

// BenchmarkAblationRCS quantifies the 1-bit OR network's contribution:
// regional vs local-only detection.
func BenchmarkAblationRCS(b *testing.B) { benchAblation(b, "rcs") }

// BenchmarkAblationThreshold sweeps the BFM threshold: spill-early
// (lower CSC, lower latency) vs pack-tight.
func BenchmarkAblationThreshold(b *testing.B) { benchAblation(b, "threshold") }

// BenchmarkAblationIdleDetect sweeps T-idle-detect.
func BenchmarkAblationIdleDetect(b *testing.B) { benchAblation(b, "idle-detect") }

// BenchmarkAblationWakeup sweeps T-wakeup.
func BenchmarkAblationWakeup(b *testing.B) { benchAblation(b, "wakeup") }

// BenchmarkAblationRegion sweeps the OR-network region size.
func BenchmarkAblationRegion(b *testing.B) { benchAblation(b, "region") }

// BenchmarkAblationSubnets sweeps the subnet count at constant aggregate
// width — the gating-granularity argument of §6.6.
func BenchmarkAblationSubnets(b *testing.B) { benchAblation(b, "subnets") }

func TestAblationRegistry(t *testing.T) {
	names := AblationNames()
	if len(names) != 6 {
		t.Fatalf("%d studies, want 6", len(names))
	}
	registered := map[string]bool{}
	for _, e := range Experiments() {
		registered[e.Name] = true
	}
	for _, n := range names {
		if !registered["ablation-"+n] {
			t.Errorf("study %q is not a registered experiment", n)
		}
	}
	if _, err := RunExperiment(context.Background(), "ablation-nope", ExperimentOpts{Scale: Scale{Warmup: 10, Measure: 10}}); err == nil {
		t.Error("unknown study should error")
	}
}

// TestAblationIdleDetectShape: a longer idle-detect window must not gate
// more than a shorter one (it strictly delays sleep).
func TestAblationIdleDetectShape(t *testing.T) {
	csc := map[string]float64{}
	for _, p := range runAblationStudy(t, "idle-detect", Scale{Warmup: 1000, Measure: 5000}) {
		if p.Offered == AblationLoads[0] {
			csc[p.Variant] = p.Results.CSCPercent
		}
	}
	if csc["T=2"] < csc["T=16"] {
		t.Errorf("longer idle-detect gated more: T=2 %.1f%% vs T=16 %.1f%%", csc["T=2"], csc["T=16"])
	}
	if csc["T=4"] < 40 {
		t.Errorf("paper operating point CSC %.1f%% too low at light load", csc["T=4"])
	}
}

// ablationGolden is the SHA-256 of every study's points (full-precision
// Results) at a short scale. It was recorded when the studies still ran
// one fresh simulator per point in a private sequential loop; running
// them on the sweep engine with pooled simulators and interned arrival
// streams must not move it.
const ablationGolden = "da5ec68f5a331249df59e49c34ca8c8bf8cd1dce9440129d3f91e7b09f63b112"

func TestAblationGoldenFingerprint(t *testing.T) {
	h := sha256.New()
	for _, name := range AblationNames() {
		for _, p := range runAblationStudy(t, name, Scale{Warmup: 300, Measure: 1200}) {
			fmt.Fprintf(h, "%+v\n", p)
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != ablationGolden {
		t.Fatalf("ablation fingerprint %s, want %s", got, ablationGolden)
	}
}

// TestOrderedForwardDelivers: the §2.3 point-to-point ordering option
// must keep the network functional with app traffic classes.
func TestOrderedForwardDelivers(t *testing.T) {
	cfg := mustDesign("4NT-128b-PG")
	cfg.AppTraffic = true
	cfg.OrderedForward = true
	sim, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.UseMix("Medium-Light"); err != nil {
		t.Fatal(err)
	}
	sim.Run(3000)
	sim.StartMeasure()
	sim.Run(5000)
	res := sim.StopMeasure()
	if res.PacketsDelivered == 0 || res.SystemIPC <= 0 {
		t.Fatalf("ordered-forward system stalled: %+v", res)
	}
	// Forward packets are pinned to subnet 0, so subnet 0 must carry a
	// solid share even if congestion would otherwise spill everything.
	if res.SubnetShare[0] < 0.3 {
		t.Errorf("subnet 0 share %.2f with ordered forwards pinned to it", res.SubnetShare[0])
	}
}

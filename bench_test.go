package catnap

// Engine micro-benchmarks: simulated cycles per second and cost per
// delivered packet. End-to-end experiment timing (wall time,
// points/sec, allocations per registered experiment) lives in the
// e2ebench harness; per-scenario stepping costs live in bench_core_test.go.

import (
	"testing"

	"github.com/catnap-noc/catnap/internal/traffic"
)

// --- engine micro-benchmarks ------------------------------------------------

// BenchmarkNetworkStep measures simulator speed: cycles/second for the
// full 4-subnet 256-core network under moderate uniform-random load.
func BenchmarkNetworkStep(b *testing.B) {
	sim := mustSim(mustDesign("4NT-128b-PG"))
	sim.UseSynthetic(traffic.UniformRandom{}, traffic.Constant(0.10), 1)
	sim.Run(1000) // settle
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim.Step()
	}
}

// BenchmarkNetworkStepIdle measures the power-gating fast path: a fully
// slept network should cost far less to simulate per cycle.
func BenchmarkNetworkStepIdle(b *testing.B) {
	sim := mustSim(mustDesign("4NT-128b-PG"))
	sim.Run(500) // everything asleep
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim.Step()
	}
}

// BenchmarkPacketDelivery measures end-to-end cost per delivered packet
// on the Single-NoC.
func BenchmarkPacketDelivery(b *testing.B) {
	sim := mustSim(mustDesign("1NT-512b"))
	sim.UseSynthetic(traffic.UniformRandom{}, traffic.Constant(0.20), 1)
	sim.Run(1000)
	sim.StartMeasure()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim.Step()
	}
	b.StopTimer()
	res := sim.StopMeasure()
	if res.PacketsDelivered > 0 {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(res.PacketsDelivered), "ns/packet")
	}
}

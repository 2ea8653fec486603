package main

import (
	"math"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"time"

	"github.com/catnap-noc/catnap/internal/runner"
)

// The traced run's three probes: point spans from the sweep's progress
// events, layer CPU time from a CPU profile, and allocator/GC counters
// from runtime/metrics. All three sit outside the program; spans inside
// Network.Step need program changes and are not taken here.

// span is one sweep point's execution, relative to the call's start.
// Slot is the worker it ran on, reconstructed from the event order: a
// point starts on the lowest-numbered idle worker.
type span struct {
	Label     string  `json:"label"`
	Slot      int     `json:"slot"`
	StartS    float64 `json:"start_s"`
	EndS      float64 `json:"end_s"`
	SimCycles int64   `json:"sim_cycles"`
	Failed    bool    `json:"failed,omitempty"`
}

// pointLog receives one call's sweep progress. Without timing it only
// counts finished points and their simulated cycles, which the untraced
// run needs; with timing it also records spans.
type pointLog struct {
	mu     sync.Mutex
	timed  bool
	t0     time.Time
	done   int
	failed int
	cycles int64
	spans  []span
	open   map[int]int // event index -> position in spans
	busy   []bool      // worker slots
}

func newPointLog(timed bool) *pointLog {
	return &pointLog{timed: timed, t0: time.Now(), open: map[int]int{}}
}

// Event implements runner.Progress. The engine serializes events; the
// mutex only orders them with the reads after the call returns.
func (l *pointLog) Event(e runner.Event) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if e.Kind == runner.PointStart {
		if l.timed {
			slot := 0
			for slot < len(l.busy) && l.busy[slot] {
				slot++
			}
			if slot == len(l.busy) {
				l.busy = append(l.busy, false)
			}
			l.busy[slot] = true
			l.open[e.Index] = len(l.spans)
			l.spans = append(l.spans, span{Label: e.Label, Slot: slot, StartS: time.Since(l.t0).Seconds()})
		}
		return
	}
	l.done++
	if e.Kind == runner.PointError {
		l.failed++
	} else {
		l.cycles += e.Cycles
	}
	if l.timed {
		if i, ok := l.open[e.Index]; ok {
			delete(l.open, e.Index)
			s := &l.spans[i]
			s.EndS = time.Since(l.t0).Seconds()
			s.SimCycles = e.Cycles
			s.Failed = e.Kind == runner.PointError
			l.busy[s.Slot] = false
		}
	}
}

// runnerStats summarizes one call's spans: busy is the summed point
// time and tail the time at the end of the call during which fewer than
// jobs points ran.
func runnerStats(spans []span, jobs int, wall float64) (busy, tail float64) {
	type edge struct {
		t     float64
		delta int
	}
	edges := make([]edge, 0, 2*len(spans))
	for _, s := range spans {
		busy += s.EndS - s.StartS
		edges = append(edges, edge{s.StartS, +1}, edge{s.EndS, -1})
	}
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].t != edges[j].t {
			return edges[i].t < edges[j].t
		}
		return edges[i].delta < edges[j].delta
	})
	running, lastFull := 0, 0.0
	for _, e := range edges {
		if running >= jobs && running+e.delta < jobs {
			lastFull = e.t
		}
		running += e.delta
	}
	return busy, wall - lastFull
}

// catnapPkg is the module path every layer's package lives under.
const catnapPkg = "github.com/catnap-noc/catnap"

// stages lists the layers and router stages CPU time is charged to, in
// report order. Every profiled sample lands in exactly one, so their
// shares sum to 1.
var stages = []string{
	"noc.sa", "noc.va", "noc.st", "noc.deliver", "noc.inject", "noc.power", "noc.skip", "noc.other",
	"traffic", "congestion", "cpusim", "catnap.reset", "catnap.other", "explore.engine", "runner",
	"runtime.gc", "runtime.alloc", "runtime.other", "other",
}

// shareName is the metric reporting a stage's CPU share: "noc.sa_share"
// for a stage within a layer, "traffic.share" for a whole layer.
func shareName(stage string) string {
	if strings.Contains(stage, ".") {
		return stage + "_share"
	}
	return stage + ".share"
}

// nocStages are the stages that make up the noc layer.
var nocStages = []string{"noc.sa", "noc.va", "noc.st", "noc.deliver", "noc.inject", "noc.power", "noc.skip", "noc.other"}

// entryPoints are the public entry points whose cumulative CPU time the
// trace reports, by metric-name stem.
var entryPoints = map[string]string{
	catnapPkg + "/internal/noc.(*Network).Step":               "cum.noc_step",
	catnapPkg + "/internal/traffic.(*Generator).Tick":         "cum.traffic_tick",
	catnapPkg + "/internal/congestion.(*Detector).AfterCycle": "cum.detector_aftercycle",
	catnapPkg + "/internal/cpusim.(*System).AfterCycle":       "cum.system_aftercycle",
	catnapPkg + ".(*SimPool).Get":                             "cum.simpool_get",
	catnapPkg + ".(*Simulator).StopMeasure":                   "cum.stopmeasure",
}

// containsAny reports whether s contains any of subs.
func containsAny(s string, subs ...string) bool {
	for _, sub := range subs {
		if strings.Contains(s, sub) {
			return true
		}
	}
	return false
}

// hasPrefixAny reports whether s starts with any of prefixes.
func hasPrefixAny(s string, prefixes ...string) bool {
	for _, p := range prefixes {
		if strings.HasPrefix(s, p) {
			return true
		}
	}
	return false
}

// classify maps one stack frame's function name to the stage it is
// charged to, or "" when the frame is a helper that belongs to no stage
// (noc's flit-ring and staging helpers, internal/stats, internal/sim,
// runtime.memmove) and the sample should be charged to a caller instead.
func classify(fn string) string {
	switch {
	case strings.HasPrefix(fn, catnapPkg+"/internal/noc."):
		m := strings.TrimPrefix(fn, catnapPkg+"/internal/noc.")
		switch {
		case strings.HasPrefix(m, "New") && !strings.HasPrefix(m, "NewPacket"),
			containsAny(m, "(*Network).Reset", "(*Subnet).reset", "(*NI).reset", "(*Router).wire", "(*Router).rearm",
				"resetSlice", "reviveSlice", "resetWheel", "sharedPrecomp", "buildFeeder", "(*pktQueue).clear", "applyShards"):
			return "catnap.reset"
		case strings.Contains(m, "switchAllocate"):
			return "noc.sa"
		case containsAny(m, "vcAllocate", "allocateOutVC"):
			return "noc.va"
		case strings.Contains(m, "(*Router).traverse"):
			return "noc.st"
		case containsAny(m, "deliverPhase", "(*Router).deliver", "(*Network).eject", "creditReturn"):
			return "noc.deliver"
		case containsAny(m, "(*NI).injectPhase", "(*NI).streamFlit", "(*NI).enqueue", "NewPacket"):
			return "noc.inject"
		case containsAny(m, "powerPhase", "powerUpdate", "powerCheck", "(*Router).wake", "(*Router).sleep", "completeWake",
			"noteBusyEnd", "onSleep", "onWake", "scheduleCheck", "rearmChecks", "FlushCSC", "flushCSC"):
			return "noc.power"
		case containsAny(m, "TrySkipIdle", "Quiescent", "NextEventCycle", "nextEventCycle"):
			return "noc.skip"
		case containsAny(m, "Step", "routerPhase", "applyCommits"):
			// The per-cycle loop's own code, outside every stage.
			return "noc.other"
		}
		// A helper (flit rings, wheel staging, occupancy scans): charged
		// to the stage that called it.
		return ""
	case strings.HasPrefix(fn, catnapPkg+"/internal/core."):
		// Subnet selection runs at injection, gating decisions in the
		// power phase.
		if strings.Contains(fn, "Gating") {
			return "noc.power"
		}
		return "noc.inject"
	case strings.HasPrefix(fn, catnapPkg+"/internal/traffic."):
		return "traffic"
	case strings.HasPrefix(fn, catnapPkg+"/internal/congestion."):
		if strings.Contains(fn, "(*Detector).Reset") {
			return "catnap.reset"
		}
		return "congestion"
	case strings.HasPrefix(fn, catnapPkg+"/internal/cpusim."), strings.HasPrefix(fn, catnapPkg+"/internal/workload."):
		return "cpusim"
	case strings.HasPrefix(fn, catnapPkg+"/internal/explore."):
		return "explore.engine"
	case strings.HasPrefix(fn, catnapPkg+"/internal/runner."):
		return "runner"
	case strings.HasPrefix(fn, catnapPkg+"."):
		m := strings.TrimPrefix(fn, catnapPkg+".")
		if m == "New" || containsAny(m, "(*SimPool).Get", "(*Simulator).Reset") {
			return "catnap.reset"
		}
		return "catnap.other"
	case strings.HasPrefix(fn, "runtime."):
		m := strings.TrimPrefix(fn, "runtime.")
		switch {
		case hasPrefixAny(m, "gc", "scan", "markroot", "greyobject", "findObject", "bgsweep", "sweepone", "bgscavenge",
			"wbBuf", "bulkBarrier", "(*gcWork)", "(*sweepLocked)", "(*mspan).sweep", "(*gcControllerState)"):
			return "runtime.gc"
		case hasPrefixAny(m, "mallocgc", "newobject", "newarray", "makeslice", "growslice", "makemap",
			"(*mcache)", "(*mcentral)", "(*mheap)"):
			return "runtime.alloc"
		}
	}
	return ""
}

// attribution accumulates CPU-profile time by stage and entry point.
type attribution struct {
	samples int64
	total   int64                       // profiled CPU ns
	stage   map[string]int64            // stage -> ns
	frame   map[string]map[string]int64 // stage -> charged frame -> ns
	cum     map[string]int64            // entry-point stem -> ns
}

func newAttribution() *attribution {
	return &attribution{stage: map[string]int64{}, frame: map[string]map[string]int64{}, cum: map[string]int64{}}
}

// add charges each sample to the innermost frame that maps to a stage,
// and to every entry point on its stack once.
func (a *attribution) add(samples []cpuSample) {
	for _, s := range samples {
		a.samples += s.count
		a.total += s.nanos
		st, charged := "", ""
		inRuntime := false
		seen := map[string]bool{}
		for _, fn := range s.frames {
			if st == "" {
				st, charged = classify(fn), fn
			}
			inRuntime = inRuntime || strings.HasPrefix(fn, "runtime.")
			if e, ok := entryPoints[fn]; ok && !seen[e] {
				seen[e] = true
				a.cum[e] += s.nanos
			}
		}
		if st == "" {
			st, charged = "other", ""
			if inRuntime {
				st = "runtime.other"
			}
			if len(s.frames) > 0 {
				charged = s.frames[0]
			}
		}
		a.stage[st] += s.nanos
		if a.frame[st] == nil {
			a.frame[st] = map[string]int64{}
		}
		a.frame[st][charged] += s.nanos
	}
}

// frameCPU is one function's CPU time within a stage.
type frameCPU struct {
	Func string `json:"func"`
	Ns   int64  `json:"ns"`
}

// topFrames returns, per stage, the n functions its time was charged
// to most, largest first.
func (a *attribution) topFrames(n int) map[string][]frameCPU {
	out := map[string][]frameCPU{}
	for st, fns := range a.frame {
		var fs []frameCPU
		for fn, ns := range fns {
			fs = append(fs, frameCPU{fn, ns})
		}
		sort.Slice(fs, func(i, j int) bool {
			if fs[i].Ns != fs[j].Ns {
				return fs[i].Ns > fs[j].Ns
			}
			return fs[i].Func < fs[j].Func
		})
		out[st] = fs[:min(n, len(fs))]
	}
	return out
}

// share is ns as a fraction of the profiled CPU.
func (a *attribution) share(ns int64) float64 {
	if a.total == 0 {
		return 0
	}
	return float64(ns) / float64(a.total)
}

// rtSample is a runtime/metrics snapshot of the counters the report
// uses.
type rtSample struct {
	allocBytes, allocObjects, gcCycles uint64
	gcCPU, totalCPU, idleCPU           float64
}

var rtNames = []string{
	"/gc/heap/allocs:bytes", "/gc/heap/allocs:objects", "/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds", "/cpu/classes/total:cpu-seconds", "/cpu/classes/idle:cpu-seconds",
}

func readRuntime() rtSample {
	s := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		s[i].Name = n
	}
	metrics.Read(s)
	u := func(i int) uint64 {
		if s[i].Value.Kind() == metrics.KindUint64 {
			return s[i].Value.Uint64()
		}
		return 0
	}
	f := func(i int) float64 {
		if s[i].Value.Kind() == metrics.KindFloat64 {
			return s[i].Value.Float64()
		}
		return 0
	}
	return rtSample{allocBytes: u(0), allocObjects: u(1), gcCycles: u(2), gcCPU: f(3), totalCPU: f(4), idleCPU: f(5)}
}

func (s rtSample) sub(o rtSample) rtSample {
	return rtSample{
		allocBytes: s.allocBytes - o.allocBytes, allocObjects: s.allocObjects - o.allocObjects, gcCycles: s.gcCycles - o.gcCycles,
		gcCPU: s.gcCPU - o.gcCPU, totalCPU: s.totalCPU - o.totalCPU, idleCPU: s.idleCPU - o.idleCPU,
	}
}

func (s *rtSample) add(o rtSample) {
	s.allocBytes += o.allocBytes
	s.allocObjects += o.allocObjects
	s.gcCycles += o.gcCycles
	s.gcCPU += o.gcCPU
	s.totalCPU += o.totalCPU
	s.idleCPU += o.idleCPU
}

// median returns the median of xs (NaN when empty).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// Command e2ebench is catnap's end-to-end benchmark. Each workload is one
// registered experiment run through catnap.RunExperiment in this
// process, timed with tracing off; a traced run splits the same call's
// CPU time by layer. README.md covers the workloads, the metrics and how
// to read a trace. Build and run it from the repository root with
//
//	bash e2ebench/run.sh --workload synth-sweep --seed 1 --seconds 25 --trace 0
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"sort"
	"strconv"
	"syscall"
	"time"

	"github.com/catnap-noc/catnap"
)

// maxJobs caps the sweep workers: the benchmark's reference host has
// two CPUs, and results are bit-identical at any worker count.
const maxJobs = 2

// setupRuns is how many child processes measure set-up per run; their
// median is reported.
const setupRuns = 9

// runBudget bounds a whole run, so a hung call still ends the process
// with a failure inside the harness's time limit.
const runBudget = 170 * time.Second

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// options are the parsed command-line flags.
type options struct {
	workload      workload
	seed          uint64
	seconds       int
	trace         bool
	size          size
	outDir        string
	setupChild    bool
	writeExpected string
}

func parseFlags(args []string, stderr io.Writer) (options, error) {
	fs := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: synth-sweep, app-mix or lowload-explore")
	seed := fs.Uint64("seed", defaultSeed, "input seed; 1 runs each experiment's registered inputs")
	seconds := fs.Int("seconds", 25, "measurement time per run; calls repeat until it has passed")
	trace := fs.Int("trace", 0, "1 runs the traced variant and reports per-layer metrics")
	tiny := fs.Bool("tiny", false, "run at the self-test's tiny scale (no committed fingerprints)")
	outDir := fs.String("out-dir", ".bench_build", "directory the traced run writes its trace file to")
	setupChild := fs.Bool("setup-child", false, "internal: build the workload's networks once and exit")
	writeExpected := fs.String("write-expected", "", "recompute the committed fingerprints into this file and exit")
	if err := fs.Parse(args); err != nil {
		return options{}, err
	}
	o := options{seed: *seed, seconds: *seconds, trace: *trace == 1, size: fullSize, outDir: *outDir,
		setupChild: *setupChild, writeExpected: *writeExpected}
	if *tiny {
		o.size = tinySize
	}
	if *trace != 0 && *trace != 1 {
		return o, fmt.Errorf("-trace = %d, want 0 or 1", *trace)
	}
	if o.seconds < 1 {
		return o, fmt.Errorf("-seconds = %d, want >= 1", o.seconds)
	}
	if o.writeExpected != "" {
		return o, nil
	}
	w, err := workloadByName(*name)
	if err != nil {
		return o, err
	}
	o.workload = w
	return o, nil
}

func run(args []string, stdout, stderr io.Writer) int {
	o, err := parseFlags(args, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "e2ebench:", err)
		return 2
	}
	switch {
	case o.writeExpected != "":
		err = writeExpected(o.writeExpected, stderr)
	case o.setupChild:
		err = setUp(o)
	default:
		ctx, cancel := context.WithTimeout(context.Background(), runBudget)
		defer cancel()
		err = bench(ctx, o, stdout, stderr)
	}
	if err != nil {
		fmt.Fprintln(stderr, "e2ebench:", err)
		return 1
	}
	return 0
}

// experimentOpts returns the run's RunExperiment options.
func (o options) experimentOpts() catnap.ExperimentOpts {
	eo := o.workload.opts(o.seed, o.size)
	eo.Sweep.Jobs = min(maxJobs, runtime.NumCPU())
	return eo
}

// setUp constructs each distinct network of the workload once: the
// set-up a process pays before its first experiment call.
func setUp(o options) error {
	cfgs, err := o.workload.configs(o.experimentOpts())
	if err != nil {
		return err
	}
	for _, cfg := range cfgs {
		if _, err := catnap.New(cfg); err != nil {
			return fmt.Errorf("set-up of %s: %w", cfg.Name, err)
		}
	}
	return nil
}

// measureSetUp times setupRuns child processes, each starting up and
// building the workload's networks cold, and returns their wall times.
func measureSetUp(ctx context.Context, o options) ([]float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := []string{"-setup-child", "-workload", o.workload.name, "-seed", strconv.FormatUint(o.seed, 10)}
	if o.size.name == tinySize.name {
		args = append(args, "-tiny")
	}
	var times []float64
	for range setupRuns {
		cmd := exec.CommandContext(ctx, exe, args...)
		var out bytes.Buffer
		cmd.Stdout, cmd.Stderr = &out, &out
		t0 := time.Now()
		if err := cmd.Run(); err != nil {
			return nil, fmt.Errorf("set-up child: %w: %s", err, out.String())
		}
		times = append(times, time.Since(t0).Seconds())
	}
	return times, nil
}

// call is one timed RunExperiment call.
type call struct {
	wall    float64
	cpu     float64
	points  int
	failed  int
	cycles  int64
	rt      rtSample
	spans   []span
	hash    string
	result  *catnap.ExperimentResult
	profile []byte
}

// timedCall runs the workload's experiment once. With traced set it
// records point spans and a CPU profile; untraced, the progress hook
// only counts points and simulated cycles.
func timedCall(ctx context.Context, o options, traced bool) (call, error) {
	eo := o.experimentOpts()
	log := newPointLog(traced)
	eo.Sweep.Progress = log
	var prof bytes.Buffer
	if traced {
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return call{}, err
		}
	}
	before, cpu0 := readRuntime(), processCPU()
	t0 := time.Now()
	log.t0 = t0
	res, err := catnap.RunExperiment(ctx, o.workload.experiment, eo)
	wall := time.Since(t0).Seconds()
	cpu := processCPU() - cpu0
	rt := readRuntime().sub(before)
	if traced {
		pprof.StopCPUProfile()
	}
	log.mu.Lock()
	defer log.mu.Unlock()
	c := call{wall: wall, cpu: cpu, points: log.done, failed: log.failed, cycles: log.cycles, rt: rt, spans: log.spans, result: res, profile: prof.Bytes()}
	if err != nil {
		return c, err
	}
	c.hash = fingerprint(res.Header, res.Rows)
	return c, nil
}

// verdict is the correctness gate's running tally.
type verdict struct {
	attempted, failed int
	notes             []string
}

// check gates one call: an error, a failed point, or a fingerprint that
// differs from want counts every point of the call as failed.
func (v *verdict) check(c call, callErr error, want string, points int) {
	points = max(points, c.points, 1)
	v.attempted += points
	switch {
	case callErr != nil:
		v.fail(points, "call failed: %v", callErr)
	case c.failed > 0:
		v.fail(points, "%d points failed", c.failed)
	case c.hash != want:
		v.fail(points, "fingerprint %s, want %s", c.hash, want)
	}
}

func (v *verdict) fail(points int, format string, args ...any) {
	v.failed += points
	v.notes = append(v.notes, fmt.Sprintf(format, args...))
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the last line of standard output.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// manifest records what a report measured and where.
type manifest struct {
	Workload    string `json:"workload"`
	Experiment  string `json:"experiment"`
	Seed        uint64 `json:"seed"`
	Inputs      string `json:"inputs"`
	Size        string `json:"size"`
	NumCPU      int    `json:"num_cpu"`
	GOMAXPROCS  int    `json:"gomaxprocs"`
	SweepJobs   int    `json:"sweep_jobs"`
	GoVersion   string `json:"go_version"`
	VCSRevision string `json:"vcs_revision"`
	VCSModified string `json:"vcs_modified"`
	Traced      bool   `json:"traced"`
	Calls       int    `json:"calls"`
	// PointsPerCall and SimCyclesPerCall are the workload's size: sweep
	// points and simulated cycles (warm-up included) in one call.
	PointsPerCall    int   `json:"points_per_call"`
	SimCyclesPerCall int64 `json:"sim_cycles_per_call"`
}

func newManifest(o options, eo catnap.ExperimentOpts) manifest {
	m := manifest{
		Workload: o.workload.name, Experiment: o.workload.experiment, Seed: o.seed,
		Inputs: o.workload.variant(o.seed, o.size), Size: o.size.name,
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), SweepJobs: eo.Sweep.Jobs,
		GoVersion: runtime.Version(), VCSRevision: "unknown", VCSModified: "unknown", Traced: o.trace,
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				m.VCSRevision = s.Value
			case "vcs.modified":
				m.VCSModified = s.Value
			}
		}
	}
	return m
}

// bench is one benchmark run: set-up, then timed calls until the
// measurement time has passed, then the report.
func bench(ctx context.Context, o options, stdout, stderr io.Writer) error {
	eo := o.experimentOpts()
	man := newManifest(o, eo)
	var want string
	haveWant := false
	if o.size.name == fullSize.name {
		if want, haveWant = o.workload.expected(o.seed); !haveWant {
			return fmt.Errorf("expected.json has no fingerprint for %s seed %d", o.workload.name, o.seed)
		}
	}

	setupTimes, err := measureSetUp(ctx, o)
	if err != nil {
		return err
	}
	// The same set-up in this process, so the timed calls start warm.
	if err := setUp(o); err != nil {
		return err
	}

	var (
		v              verdict
		untraced       []call
		traced         []call
		deadline       = time.Now().Add(time.Duration(o.seconds) * time.Second)
		expectedPoints int
		peakRSS        float64
	)
	for len(untraced) == 0 || time.Now().Before(deadline) {
		for _, tr := range []bool{false, true} {
			if tr && !o.trace {
				continue
			}
			c, err := timedCall(ctx, o, tr)
			if !haveWant && err == nil {
				// No committed fingerprint at this size: every call of
				// the run must agree with the first.
				want, haveWant = c.hash, true
			}
			v.check(c, err, want, expectedPoints)
			expectedPoints = max(expectedPoints, c.points)
			fmt.Fprintf(stderr, "call traced=%v wall %.3f s, cpu %.3f s, %d points, %d sim cycles, %.1f MB allocated\n",
				tr, c.wall, c.cpu, c.points, c.cycles, float64(c.rt.allocBytes)/1e6)
			if tr {
				traced = append(traced, c)
			} else {
				untraced = append(untraced, c)
			}
			if len(untraced) == 1 && peakRSS == 0 {
				// Taken after the first call, so the figure does not grow
				// with the number of calls a run fits in.
				peakRSS = peakRSSMB()
			}
			if err != nil {
				break
			}
		}
		if ctx.Err() != nil {
			break
		}
	}
	man.Calls = len(untraced) + len(traced)
	man.PointsPerCall = untraced[0].points
	man.SimCyclesPerCall = untraced[0].cycles
	if mj, err := json.Marshal(man); err == nil {
		fmt.Fprintf(stdout, "manifest %s\n", mj)
	}

	var metrics map[string]metric
	if o.trace {
		metrics, err = layerMetrics(ctx, o, eo, untraced, traced, &v, stdout)
		if err != nil {
			v.fail(expectedPoints, "traced run: %v", err)
		}
	} else {
		metrics = endToEndMetrics(untraced, setupTimes, peakRSS)
	}
	for _, n := range v.notes {
		fmt.Fprintln(stderr, "e2ebench: FAIL:", n)
	}
	fmt.Fprintf(stdout, "%-32s %d/%d points\n", "points_failed", v.failed, v.attempted)
	names := make([]string, 0, len(metrics))
	for n := range metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(stdout, "%-32s %.6g %s\n", n, metrics[n].Value, metrics[n].Unit)
	}
	line, err := json.Marshal(report{Correct: v.failed == 0, Attempted: v.attempted, Failed: v.failed, Metrics: metrics})
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return nil
}

// processCPU is the user plus system CPU time the process has used, in
// seconds.
func processCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// peakRSSMB is the process's peak resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// endToEndMetrics reports the untraced run: medians over its calls.
func endToEndMetrics(calls []call, setupTimes []float64, peakRSS float64) map[string]metric {
	var walls, rates, allocs []float64
	for _, c := range calls {
		walls = append(walls, c.wall)
		rates = append(rates, float64(c.cycles)/c.wall)
		allocs = append(allocs, float64(c.rt.allocBytes)/(1<<20))
	}
	return map[string]metric{
		"wall_s":           {median(walls), "s"},
		"sim_cycles_per_s": {median(rates), "cycles/s"},
		"setup_s":          {median(setupTimes), "s"},
		"alloc_mb":         {median(allocs), "MB"},
		"peak_rss_mb":      {peakRSS, "MB"},
	}
}

// traceFile is what a traced run writes next to its build: the manifest
// inputs, every traced call's point spans, and the layer table.
type traceFile struct {
	Workload   string                `json:"workload"`
	Seed       uint64                `json:"seed"`
	Jobs       int                   `json:"jobs"`
	Calls      [][]span              `json:"calls"`
	StageCPUNs map[string]int64      `json:"stage_cpu_ns"`
	TopFrames  map[string][]frameCPU `json:"top_frames"`
	EntryCPUNs map[string]int64      `json:"entry_cpu_ns"`
	Counts     counts                `json:"counts"`
	Metrics    map[string]float64    `json:"metrics"`
}

// layerMetrics reports the traced run: layer shares from the CPU
// profiles, runner figures from the spans, allocator and GC figures from
// runtime/metrics, and event counts from a replay of the call's points.
func layerMetrics(ctx context.Context, o options, eo catnap.ExperimentOpts, untraced, traced []call, v *verdict, stdout io.Writer) (map[string]metric, error) {
	if len(traced) == 0 {
		return nil, errors.New("no traced call completed")
	}
	a := newAttribution()
	var (
		rt                   rtSample
		points               int
		cycles               int64
		busy, jobWall        float64
		tails, pointMS, wall []float64
		calls                [][]span
	)
	for _, c := range traced {
		samples, err := parseCPUProfile(c.profile)
		if err != nil {
			return nil, err
		}
		a.add(samples)
		rt.add(c.rt)
		points += c.points
		cycles += c.cycles
		b, tail := runnerStats(c.spans, eo.Sweep.Jobs, c.wall)
		busy += b
		jobWall += float64(eo.Sweep.Jobs) * c.wall
		tails = append(tails, tail)
		wall = append(wall, c.wall)
		for _, s := range c.spans {
			pointMS = append(pointMS, (s.EndS-s.StartS)*1e3)
		}
		calls = append(calls, c.spans)
	}
	var untracedWall []float64
	for _, c := range untraced {
		untracedWall = append(untracedWall, c.wall)
	}

	last := traced[len(traced)-1]
	if last.result == nil {
		return nil, errors.New("last traced call has no result")
	}
	cnt, err := o.workload.replay(ctx, eo, last.result)
	if err != nil {
		v.fail(last.points, "replay: %v", err)
	}

	m := map[string]metric{}
	for _, st := range stages {
		m[shareName(st)] = metric{a.share(a.stage[st]), "fraction"}
	}
	// Layer totals alongside their stages.
	var nocNS int64
	for _, st := range nocStages {
		nocNS += a.stage[st]
	}
	m["noc.share"] = metric{a.share(nocNS), "fraction"}
	for _, stem := range entryPoints {
		m[stem+"_share"] = metric{a.share(a.cum[stem]), "fraction"}
	}
	nTraced := float64(len(traced))
	m["noc.flits_delivered"] = metric{float64(cnt.FlitsDelivered), "count"}
	nsPerFlit := 0.0
	if cnt.FlitsDelivered > 0 {
		nsPerFlit = float64(nocNS) / nTraced / float64(cnt.FlitsDelivered)
	}
	m["noc.ns_per_flit"] = metric{nsPerFlit, "ns/flit"}
	m["noc.cycles_stepped"] = metric{float64(cnt.CyclesStepped), "count"}
	m["noc.cycles_skipped"] = metric{float64(cnt.CyclesSkipped), "count"}
	m["traffic.packets_offered"] = metric{float64(cnt.PacketsOffered), "count"}
	m["congestion.rcs_toggles"] = metric{float64(cnt.RCSToggles), "count"}
	m["cpusim.misses_completed"] = metric{float64(cnt.MissesCompleted), "count"}
	m["catnap.reset_ms_per_point"] = metric{float64(a.stage["catnap.reset"]) / 1e6 / float64(max(points, 1)), "ms"}

	var evaluated, misses float64
	if r, ok := last.result.Data.(*catnap.ExploreResult); ok {
		evaluated, misses = float64(r.Evaluated), float64(r.Cache.Misses)
	}
	m["explore.evaluated"] = metric{evaluated, "count"}
	m["explore.cache_misses"] = metric{misses, "count"}

	sort.Float64s(pointMS)
	pointMax := 0.0
	if len(pointMS) > 0 {
		pointMax = pointMS[len(pointMS)-1]
	}
	m["runner.utilization"] = metric{busy / jobWall, "fraction"}
	m["runner.busy_s"] = metric{busy / nTraced, "s"}
	m["runner.tail_s"] = metric{median(tails), "s"}
	m["runner.point_ms_p50"] = metric{median(pointMS), "ms"}
	m["runner.point_ms_max"] = metric{pointMax, "ms"}

	gcShare := 0.0
	if busyCPU := rt.totalCPU - rt.idleCPU; busyCPU > 0 {
		gcShare = rt.gcCPU / busyCPU
	}
	m["gc.cpu_share"] = metric{gcShare, "fraction"}
	m["gc.cycles_per_call"] = metric{float64(rt.gcCycles) / nTraced, "count"}
	m["alloc.bytes_per_kcycle"] = metric{float64(rt.allocBytes) / (float64(cycles) / 1e3), "B/kcycle"}
	m["alloc.objs_per_point"] = metric{float64(rt.allocObjects) / float64(max(points, 1)), "count"}

	m["trace.wall_s"] = metric{median(wall), "s"}
	m["trace.overhead_s"] = metric{median(wall) - median(untracedWall), "s"}
	m["trace.cpu_samples"] = metric{float64(a.samples), "count"}

	tf := traceFile{Workload: o.workload.name, Seed: o.seed, Jobs: eo.Sweep.Jobs, Calls: calls,
		StageCPUNs: a.stage, TopFrames: a.topFrames(8), EntryCPUNs: a.cum, Counts: cnt, Metrics: map[string]float64{}}
	for n, mv := range m {
		tf.Metrics[n] = mv.Value
	}
	path := filepath.Join(o.outDir, fmt.Sprintf("e2ebench-trace-%s-seed%d.json", o.workload.name, o.seed))
	if err := writeJSON(path, tf); err != nil {
		return m, err
	}
	fmt.Fprintf(stdout, "trace written to %s\n", path)
	return m, nil
}

// writeJSON writes v as indented JSON to path, creating its directory.
func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// writeExpected recomputes expected.json: fig6's rows for every load a
// seed can draw plus the default-seed fingerprint, fig8's fingerprint,
// and explore's fingerprint for every SimSeed a seed can draw.
func writeExpected(path string, stderr io.Writer) error {
	ctx := context.Background()
	jobs := runtime.NumCPU()
	runExp := func(name string, eo catnap.ExperimentOpts) (*catnap.ExperimentResult, error) {
		eo.Sweep.Jobs = jobs
		t0 := time.Now()
		res, err := catnap.RunExperiment(ctx, name, eo)
		fmt.Fprintf(stderr, "%s: %.1f s\n", name, time.Since(t0).Seconds())
		return res, err
	}
	e := expected{Fingerprints: map[string]string{}, SynthRows: map[string][]string{}}

	synth, _ := workloadByName("synth-sweep")
	app, _ := workloadByName("app-mix")
	expl, _ := workloadByName("lowload-explore")
	var loads []float64
	for _, c := range fullSize.synthBands {
		for _, d := range synthBandSteps {
			loads = append(loads, float64(c+d)/1e4)
		}
	}
	eo := synth.opts(defaultSeed, fullSize)
	eo.Loads = loads
	res, err := runExp(synth.experiment, eo)
	if err != nil {
		return err
	}
	e.SynthHeader = res.Header
	for i, p := range res.Data.([]catnap.Fig6Point) {
		e.SynthRows[synthKey(p.Design, p.Offered)] = res.Rows[i]
	}
	if res, err = runExp(synth.experiment, synth.opts(defaultSeed, fullSize)); err != nil {
		return err
	}
	e.Fingerprints[synth.name] = fingerprint(res.Header, res.Rows)

	if res, err = runExp(app.experiment, app.opts(defaultSeed, fullSize)); err != nil {
		return err
	}
	e.Fingerprints[app.name] = fingerprint(res.Header, res.Rows)

	for s := uint64(1); s <= exploreSimSeeds; s++ {
		eo := expl.opts(defaultSeed, fullSize)
		eo.Explore.SimSeed, eo.Explore.SampleSeed = s, s
		if res, err = runExp(expl.experiment, eo); err != nil {
			return err
		}
		e.Fingerprints[exploreKey(s)] = fingerprint(res.Header, res.Rows)
	}
	return writeJSON(path, e)
}

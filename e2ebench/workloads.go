package main

import (
	"context"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"reflect"
	"strconv"
	"strings"

	"github.com/catnap-noc/catnap"
	"github.com/catnap-noc/catnap/internal/congestion"
	"github.com/catnap-noc/catnap/internal/explore"
	"github.com/catnap-noc/catnap/internal/noc"
	"github.com/catnap-noc/catnap/internal/runner"
	"github.com/catnap-noc/catnap/internal/traffic"
)

// defaultSeed selects each registered experiment's own inputs: fig6 at
// the -quick loads and explore with SimSeed 1. Other seeds draw inputs
// within fixed bands (see synthLoads and exploreSimSeed).
const defaultSeed = 1

// size is the scale a run executes at. fullSize is the benchmark;
// tinySize is the self-test's, small enough to run every workload in a
// few seconds.
type size struct {
	name            string
	warmup, measure int64
	// synthBands are synth-sweep's load-band centres in ten-thousandths
	// of a packet per node per cycle.
	synthBands []int
	// appMixes and appDesigns restrict app-mix; nil keeps fig8's own.
	appMixes, appDesigns []string
	// exploreSpace is lowload-explore's searched space.
	exploreSpace catnap.ExploreSpace
}

var (
	fullSize = size{
		name: "full", warmup: 1000, measure: 4000, synthBands: []int{500, 1500, 3000, 4500},
		exploreSpace: explore.DefaultSpace(),
	}
	tinySize = size{
		name: "tiny", warmup: 100, measure: 300, synthBands: []int{500, 3000},
		appMixes: []string{"Light"}, appDesigns: []string{"1NT-512b", "4NT-128b-PG"},
		exploreSpace: catnap.ExploreSpace{
			Subnets: []int{1, 4}, Widths: []int{128}, VCDepths: []int{4},
			TIdles: []int{4}, Metrics: []string{"BFM"}, Thresholds: []float64{0},
		},
	}
)

// exploreLoad is lowload-explore's offered load: near idle, the regime
// where Catnap's gating saves the most power.
const exploreLoad = 0.002

// workload is one benchmark workload: a registered experiment, the
// inputs a seed selects for it, and the probes its traced run uses.
type workload struct {
	name       string
	experiment string
	why        string
	// opts lowers (seed, size) to the RunExperiment options, without the
	// sweep settings the run loop fills in.
	opts func(seed uint64, sz size) catnap.ExperimentOpts
	// variant names the inputs a seed selects, for the report.
	variant func(seed uint64, sz size) string
	// configs lists the distinct designs or network shapes the workload
	// builds; set-up constructs each once.
	configs func(o catnap.ExperimentOpts) ([]catnap.Config, error)
	// expected returns the committed full-size fingerprint for the
	// seed's inputs.
	expected func(seed uint64) (hash string, ok bool)
	// replay re-simulates every point of res through the Simulator API
	// with a cycle-counting observer attached, checks that each point
	// reproduces res, and returns the event counts.
	replay func(ctx context.Context, o catnap.ExperimentOpts, res *catnap.ExperimentResult) (counts, error)
}

var workloads = []workload{
	{
		name:       "synth-sweep",
		experiment: "fig6",
		why:        "fig6 open-loop uniform-random sweep over 1/2/4/8 ungated subnets: router allocation dominates and per-point cost spans 20x",
		opts: func(seed uint64, sz size) catnap.ExperimentOpts {
			return catnap.ExperimentOpts{Scale: sz.scale(), Loads: synthLoads(seed, sz)}
		},
		variant: func(seed uint64, sz size) string { return fmt.Sprint("loads=", synthLoads(seed, sz)) },
		configs: func(catnap.ExperimentOpts) ([]catnap.Config, error) {
			return designConfigs(catnap.Fig6Designs, false)
		},
		expected: func(seed uint64) (string, bool) { return expectedSynth(synthLoads(seed, fullSize)) },
		replay:   replaySynth,
	},
	{
		name:       "app-mix",
		experiment: "fig8",
		why:        "fig8 Table-3 mixes x 6 designs on the closed-loop 256-core cpusim: the only cpusim workload, allocation-heavy, idle-skip vetoed",
		opts: func(_ uint64, sz size) catnap.ExperimentOpts {
			return catnap.ExperimentOpts{Scale: sz.scale(), Mixes: sz.appMixes, Designs: sz.appDesigns}
		},
		variant: func(uint64, size) string { return "fixed (ExperimentOpts has no seed for app mixes)" },
		configs: func(o catnap.ExperimentOpts) ([]catnap.Config, error) {
			designs := o.Designs
			if designs == nil {
				designs = catnap.Fig8Designs
			}
			return designConfigs(designs, true)
		},
		expected: func(uint64) (string, bool) {
			h, ok := expectedData.Fingerprints["app-mix"]
			return h, ok
		},
		replay: replayApp,
	},
	{
		name:       "lowload-explore",
		experiment: "explore",
		why:        "explore grid over 1296 gated specs at load 0.002: the energy-proportional regime, where power phase, idle skip, detector and resets rise",
		opts: func(seed uint64, sz size) catnap.ExperimentOpts {
			s := exploreSimSeed(seed)
			return catnap.ExperimentOpts{Scale: sz.scale(), Explore: catnap.ExploreOpts{
				Space: sz.exploreSpace, Load: exploreLoad, Grid: true, SimSeed: s, SampleSeed: s,
			}}
		},
		variant: func(seed uint64, _ size) string { return fmt.Sprint("sim-seed=", exploreSimSeed(seed)) },
		configs: exploreShapes,
		expected: func(seed uint64) (string, bool) {
			h, ok := expectedData.Fingerprints[exploreKey(exploreSimSeed(seed))]
			return h, ok
		},
		replay: replayExplore,
	},
}

func workloadByName(name string) (workload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return workload{}, fmt.Errorf("unknown workload %q (valid: %s)", name, strings.Join(names, " "))
}

func (sz size) scale() catnap.Scale { return catnap.Scale{Warmup: sz.warmup, Measure: sz.measure} }

// synthBandSteps are the offsets, in ten-thousandths, a seed draws each
// synth-sweep load from: narrow enough that the sweep's cost and
// allocation stay comparable across seeds.
var synthBandSteps = []int{-50, -25, 0, 25, 50}

// synthLoads returns synth-sweep's offered loads for a seed: the band
// centres for the default seed, one drawn step off each centre otherwise.
func synthLoads(seed uint64, sz size) []float64 {
	r := rand.New(rand.NewPCG(seed, 0x6669673673796e74))
	loads := make([]float64, len(sz.synthBands))
	for i, c := range sz.synthBands {
		if seed != defaultSeed {
			c += synthBandSteps[r.IntN(len(synthBandSteps))]
		}
		loads[i] = float64(c) / 1e4
	}
	return loads
}

// exploreSimSeeds is the number of simulation seeds lowload-explore
// draws from; expected.json holds a fingerprint for each.
const exploreSimSeeds = 8

// exploreSimSeed returns lowload-explore's SimSeed (and SampleSeed) for
// a seed: 1, explore's own default, for the default seed.
func exploreSimSeed(seed uint64) uint64 {
	if seed == defaultSeed {
		return 1
	}
	r := rand.New(rand.NewPCG(seed, 0x6578706c6f7265))
	return 1 + r.Uint64N(exploreSimSeeds)
}

func exploreKey(simSeed uint64) string { return fmt.Sprintf("lowload-explore/sim-seed-%d", simSeed) }

// fingerprint hashes a result table, the header line then each row,
// tab-separated and newline-terminated. explore's Note is left out on
// purpose: it embeds the campaign's wall time.
func fingerprint(header []string, rows [][]string) string {
	h := sha256.New()
	for _, line := range append([][]string{header}, rows...) {
		h.Write([]byte(strings.Join(line, "\t") + "\n"))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// expected is the committed correctness data, regenerated with
// -write-expected when a change deliberately alters the outputs.
type expected struct {
	// Fingerprints maps "app-mix", "synth-sweep" (default seed) and
	// "lowload-explore/sim-seed-N" to result fingerprints.
	Fingerprints map[string]string `json:"fingerprints"`
	// SynthHeader and SynthRows hold fig6's table row for every
	// design@load a seed can draw, so any seed's table can be assembled.
	SynthHeader []string            `json:"synth_header"`
	SynthRows   map[string][]string `json:"synth_rows"`
}

//go:embed expected.json
var expectedJSON []byte

var expectedData = func() expected {
	var e expected
	if err := json.Unmarshal(expectedJSON, &e); err != nil {
		panic("e2ebench: expected.json: " + err.Error())
	}
	return e
}()

func synthKey(design string, load float64) string {
	return design + "@" + strconv.FormatFloat(load, 'f', -1, 64)
}

// expectedSynth assembles fig6's table for loads from the committed rows
// and returns its fingerprint.
func expectedSynth(loads []float64) (string, bool) {
	if len(expectedData.SynthHeader) == 0 {
		return "", false
	}
	var rows [][]string
	for _, d := range catnap.Fig6Designs {
		for _, l := range loads {
			row, ok := expectedData.SynthRows[synthKey(d, l)]
			if !ok {
				return "", false
			}
			rows = append(rows, row)
		}
	}
	return fingerprint(expectedData.SynthHeader, rows), true
}

// designConfigs resolves registered design names.
func designConfigs(names []string, app bool) ([]catnap.Config, error) {
	cfgs := make([]catnap.Config, 0, len(names))
	for _, n := range names {
		cfg, err := catnap.Design(n)
		if err != nil {
			return nil, err
		}
		cfg.AppTraffic = app
		cfgs = append(cfgs, cfg)
	}
	return cfgs, nil
}

// exploreConfig lowers an explore spec to a simulator config exactly as
// the explore experiment's evaluator does; the replay's per-point
// comparison against the experiment's front checks that it still does.
func exploreConfig(spec explore.Spec) (catnap.Config, error) {
	kind, err := congestion.KindByName(spec.Metric)
	if err != nil {
		return catnap.Config{}, err
	}
	cfg := catnap.BaseConfig()
	cfg.Name = fmt.Sprintf("%dNT-%db-vc%d-ti%d-%s", spec.Subnets, spec.WidthBits, spec.VCDepth, spec.TIdle, spec.Metric)
	cfg.Subnets = spec.Subnets
	cfg.LinkWidthBits = spec.WidthBits
	cfg.VCDepth = spec.VCDepth
	cfg.TIdleDetect = spec.TIdle
	cfg.Selector = catnap.SelectorCatnap
	cfg.Gating = catnap.GatingCatnap
	cfg.Metric = kind
	cfg.MetricThreshold = spec.Threshold
	cfg.Seed = spec.Seed
	return cfg, nil
}

// exploreShapes returns one config per network shape (subnets, width,
// VC depth) of the explored space; detection knobs do not change the
// network a config builds.
func exploreShapes(o catnap.ExperimentOpts) ([]catnap.Config, error) {
	sp := o.Explore.Space
	var cfgs []catnap.Config
	for _, s := range sp.Subnets {
		for _, w := range sp.Widths {
			for _, d := range sp.VCDepths {
				cfg, err := exploreConfig(explore.Spec{
					Subnets: s, WidthBits: w, VCDepth: d, TIdle: sp.TIdles[0],
					Metric: sp.Metrics[0], Threshold: sp.Thresholds[0], Seed: 1,
				})
				if err != nil {
					return nil, err
				}
				cfgs = append(cfgs, cfg)
			}
		}
	}
	return cfgs, nil
}

// counts are the event counts a replay gathers, summed over points and
// over each point's whole run (warm-up included).
type counts struct {
	FlitsDelivered  int64 `json:"flits_delivered"`
	CyclesStepped   int64 `json:"cycles_stepped"`
	CyclesSkipped   int64 `json:"cycles_skipped"`
	PacketsOffered  int64 `json:"packets_offered"`
	RCSToggles      int64 `json:"rcs_toggles"`
	MissesCompleted int64 `json:"misses_completed"`
}

func (c *counts) add(o counts) {
	c.FlitsDelivered += o.FlitsDelivered
	c.CyclesStepped += o.CyclesStepped
	c.CyclesSkipped += o.CyclesSkipped
	c.PacketsOffered += o.PacketsOffered
	c.RCSToggles += o.RCSToggles
	c.MissesCompleted += o.MissesCompleted
}

// cycleCounter is a CycleObserver that counts stepped and skipped
// cycles. It takes part in idle skipping without constraining it, so
// attaching it leaves the simulation bit-identical.
type cycleCounter struct{ stepped, skipped int64 }

func (c *cycleCounter) AfterCycle(int64)                  { c.stepped++ }
func (c *cycleCounter) NextIdleEvent(int64) (int64, bool) { return noc.SkipHorizon, true }
func (c *cycleCounter) SkipIdle(from, to int64)           { c.skipped += to - from }

// simulate builds cfg fresh, attaches a cycle counter, runs it and
// returns its results with the event counts. synthetic selects open-loop
// uniform-random traffic at load; otherwise the named app mix runs.
func simulate(ctx context.Context, cfg catnap.Config, synthetic bool, load float64, mix string, sc catnap.Scale) (catnap.Results, counts, error) {
	sim, err := catnap.New(cfg)
	if err != nil {
		return catnap.Results{}, counts{}, err
	}
	cc := &cycleCounter{}
	sim.Net.AddObserver(cc)
	var res catnap.Results
	if synthetic {
		res, err = sim.RunSyntheticCtx(ctx, traffic.UniformRandom{}, traffic.Constant(load), sc.Warmup, sc.Measure)
	} else {
		res, err = sim.RunApp(ctx, mix, sc.Warmup, sc.Measure)
	}
	if err != nil {
		return catnap.Results{}, counts{}, err
	}
	created, _, _ := sim.Net.Counts()
	c := counts{FlitsDelivered: sim.Net.EjectedFlits(), CyclesStepped: cc.stepped, CyclesSkipped: cc.skipped}
	if synthetic {
		c.PacketsOffered = created
	}
	if sim.Det != nil {
		c.RCSToggles = sim.Det.Energy().Toggles
	}
	if sys := sim.System(); sys != nil {
		_, c.MissesCompleted = sys.MissStats()
	}
	return res, c, nil
}

// replayPoints runs the replay points on the sweep engine and sums their
// counts.
func replayPoints(ctx context.Context, o catnap.ExperimentOpts, pts []runner.Point[counts]) (counts, error) {
	vals, err := runner.Values(runner.Run(ctx, pts, runner.Options{Jobs: o.Sweep.Jobs}))
	var total counts
	for _, v := range vals {
		total.add(v)
	}
	return total, err
}

func replaySynth(ctx context.Context, o catnap.ExperimentOpts, res *catnap.ExperimentResult) (counts, error) {
	data, ok := res.Data.([]catnap.Fig6Point)
	if !ok {
		return counts{}, fmt.Errorf("replay: fig6 data is %T", res.Data)
	}
	pts := make([]runner.Point[counts], len(data))
	for i, want := range data {
		pts[i] = runner.Point[counts]{Label: synthKey(want.Design, want.Offered), Run: func(ctx context.Context) (counts, error) {
			cfg, err := catnap.Design(want.Design)
			if err != nil {
				return counts{}, err
			}
			r, c, err := simulate(ctx, cfg, true, want.Offered, "", o.Scale)
			if err != nil {
				return counts{}, err
			}
			got := catnap.Fig6Point{Design: want.Design, Offered: want.Offered, Accepted: r.AcceptedThroughput, Latency: r.AvgLatency}
			if got != want {
				return counts{}, fmt.Errorf("replay of %s: got %+v, experiment reported %+v", synthKey(want.Design, want.Offered), got, want)
			}
			return c, nil
		}}
	}
	return replayPoints(ctx, o, pts)
}

func replayApp(ctx context.Context, o catnap.ExperimentOpts, res *catnap.ExperimentResult) (counts, error) {
	data, ok := res.Data.([]catnap.AppRow)
	if !ok {
		return counts{}, fmt.Errorf("replay: fig8 data is %T", res.Data)
	}
	pts := make([]runner.Point[counts], len(data))
	for i, want := range data {
		label := want.Workload + "/" + want.Design
		pts[i] = runner.Point[counts]{Label: label, Run: func(ctx context.Context) (counts, error) {
			cfgs, err := designConfigs([]string{want.Design}, true)
			if err != nil {
				return counts{}, err
			}
			r, c, err := simulate(ctx, cfgs[0], false, 0, want.Workload, o.Scale)
			if err != nil {
				return counts{}, err
			}
			if !reflect.DeepEqual(r, want.Results) {
				return counts{}, fmt.Errorf("replay of %s: results differ from the experiment's", label)
			}
			return c, nil
		}}
	}
	return replayPoints(ctx, o, pts)
}

func replayExplore(ctx context.Context, o catnap.ExperimentOpts, res *catnap.ExperimentResult) (counts, error) {
	r, ok := res.Data.(*catnap.ExploreResult)
	if !ok {
		return counts{}, fmt.Errorf("replay: explore data is %T", res.Data)
	}
	front := map[int64]explore.Point{}
	for _, p := range r.Front.Points() {
		front[p.Index] = p
	}
	pts := make([]runner.Point[counts], r.SpaceSize)
	for i := range pts {
		spec := r.Space.SpecAt(int64(i), r.Eval)
		pts[i] = runner.Point[counts]{Label: fmt.Sprint("spec ", i), Run: func(ctx context.Context) (counts, error) {
			cfg, err := exploreConfig(spec)
			if err != nil {
				return counts{}, err
			}
			sr, c, err := simulate(ctx, cfg, true, spec.Load, "", catnap.Scale{Warmup: spec.Warmup, Measure: spec.Measure})
			if err != nil {
				return counts{}, err
			}
			if want, onFront := front[int64(i)]; onFront {
				if sr.Power.Total != want.PowerW || sr.AvgLatency != want.Latency ||
					sr.AcceptedThroughput != want.Accepted || sr.CSCPercent != want.CSCPercent {
					return counts{}, fmt.Errorf("replay of front spec %d (%s) differs from the experiment's", i, cfg.Name)
				}
			}
			return c, nil
		}}
	}
	return replayPoints(ctx, o, pts)
}

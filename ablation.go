package catnap

import (
	"context"

	"github.com/catnap-noc/catnap/internal/runner"
	"github.com/catnap-noc/catnap/internal/traffic"
)

// This file implements the ablation studies DESIGN.md calls out: each
// varies one design choice of the Catnap architecture around the paper's
// operating point and measures the low-load power-gating benefit (CSC,
// power) against the latency cost, on uniform random traffic at a light
// and a moderate load. Each study is a registered experiment named
// "ablation-<study>" (cmd/catnap also accepts `ablation <study>`);
// ablation_test.go benchmarks them.

// AblationPoint is one (variant, load) measurement.
type AblationPoint struct {
	Study   string
	Variant string
	Offered float64
	Results Results
}

// AblationStudy names a parameter study and enumerates its variants.
type AblationStudy struct {
	Name     string
	Doc      string
	Variants []AblationVariant
}

// AblationVariant labels one configuration mutation.
type AblationVariant struct {
	Label  string
	Mutate func(*Config)
}

// AblationStudies are the design-choice sweeps around the 4NT-128b-PG
// operating point.
var AblationStudies = []AblationStudy{
	{
		Name: "rcs",
		Doc:  "regional vs local-only congestion detection (the 1-bit OR network's value)",
		Variants: []AblationVariant{
			{"regional", func(c *Config) {}},
			{"local-only", func(c *Config) { c.LocalOnly = true }},
		},
	},
	{
		Name: "threshold",
		Doc:  "BFM congestion threshold (flits): spill-early vs pack-tight",
		Variants: []AblationVariant{
			{"thr=3", func(c *Config) { c.MetricThreshold = 3 }},
			{"thr=6", func(c *Config) { c.MetricThreshold = 6 }},
			{"thr=9", func(c *Config) { c.MetricThreshold = 9 }},
			{"thr=12", func(c *Config) { c.MetricThreshold = 12 }},
		},
	},
	{
		Name: "idle-detect",
		Doc:  "buffer-empty cycles before a router may sleep (T-idle-detect)",
		Variants: []AblationVariant{
			{"T=2", func(c *Config) { c.TIdleDetect = 2 }},
			{"T=4", func(c *Config) { c.TIdleDetect = 4 }},
			{"T=8", func(c *Config) { c.TIdleDetect = 8 }},
			{"T=16", func(c *Config) { c.TIdleDetect = 16 }},
		},
	},
	{
		Name: "wakeup",
		Doc:  "router wake-up delay sensitivity (T-wakeup, 3 cycles hidden)",
		Variants: []AblationVariant{
			{"T=5", func(c *Config) { c.TWakeup = 5 }},
			{"T=10", func(c *Config) { c.TWakeup = 10 }},
			{"T=20", func(c *Config) { c.TWakeup = 20 }},
		},
	},
	{
		Name: "region",
		Doc:  "congestion-detection region size (routers per OR network)",
		Variants: []AblationVariant{
			{"2x2", func(c *Config) { c.RegionDim = 2 }},
			{"4x4", func(c *Config) { c.RegionDim = 4 }},
			{"8x8", func(c *Config) { c.RegionDim = 8 }},
		},
	},
	{
		Name: "subnets",
		Doc:  "subnet count at constant aggregate width (power-gating granularity)",
		Variants: []AblationVariant{
			{"2NT-256b", func(c *Config) { c.Subnets = 2; c.LinkWidthBits = 256; c.VoltageV = 0 }},
			{"4NT-128b", func(c *Config) { c.Subnets = 4; c.LinkWidthBits = 128; c.VoltageV = 0 }},
			{"8NT-64b", func(c *Config) { c.Subnets = 8; c.LinkWidthBits = 64; c.VoltageV = 0 }},
		},
	},
}

// AblationLoads are the two operating points each variant is measured at:
// light (deep-sleep regime) and moderate (transition-heavy regime).
var AblationLoads = []float64{0.03, 0.15}

// registerAblations registers one sweep-engine experiment per study,
// after the paper's figures and tables.
func registerAblations() {
	for i := range AblationStudies {
		study := &AblationStudies[i]
		registerExperiment(ExperimentInfo{"ablation-" + study.Name, "ablation: " + study.Doc, "study"},
			func(ctx context.Context, opts ExperimentOpts) (*ExperimentResult, error) {
				pts, err := runAblation(ctx, study, opts)
				if err != nil {
					return nil, err
				}
				res := &ExperimentResult{
					Name:   "ablation-" + study.Name,
					Header: []string{"variant", "offered", "power (W)", "CSC (%)", "latency (cyc)", "accepted"},
					Data:   pts,
				}
				for _, p := range pts {
					r := p.Results
					res.Rows = append(res.Rows, []string{
						p.Variant, fcell(p.Offered, 2),
						fcell(r.Power.Total, 1), fcell(r.CSCPercent, 1), fcell(r.AvgLatency, 1), fcell(r.AcceptedThroughput, 3),
					})
				}
				return res, nil
			})
	}
}

// runAblation measures every (variant, load) point of one study on the
// sweep engine. The study's two operating points are part of its
// definition, so ExperimentOpts.Loads does not apply.
func runAblation(ctx context.Context, study *AblationStudy, o ExperimentOpts) ([]AblationPoint, error) {
	sc := o.Scale.or(DefaultSyntheticScale.Warmup, DefaultSyntheticScale.Measure)
	var pts []runner.Point[AblationPoint]
	for _, v := range study.Variants {
		cfg := mustDesign("4NT-128b-PG")
		v.Mutate(&cfg)
		cfg.ApplyDefaults()
		cfg.Name = "4NT-128b-PG[" + study.Name + "=" + v.Label + "]"
		for _, load := range AblationLoads {
			pts = append(pts, runner.Point[AblationPoint]{
				Label:  pointLabel(cfg.Name, load),
				Cycles: sc.Warmup + sc.Measure,
				Run: func(ctx context.Context) (AblationPoint, error) {
					sim, err := simForCtx(ctx, o.tuneCfg(cfg))
					if err != nil {
						return AblationPoint{}, err
					}
					res, err := sim.RunSyntheticCtx(ctx, traffic.UniformRandom{}, traffic.Constant(load), sc.Warmup, sc.Measure)
					if err != nil {
						return AblationPoint{}, err
					}
					return AblationPoint{Study: study.Name, Variant: v.Label, Offered: load, Results: res}, nil
				},
			})
		}
	}
	return sweep(ctx, pts, o.Sweep)
}

// AblationNames lists the available studies.
func AblationNames() []string {
	out := make([]string, len(AblationStudies))
	for i, s := range AblationStudies {
		out[i] = s.Name
	}
	return out
}

package catnap

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"testing"

	"github.com/catnap-noc/catnap/internal/explore"
)

// tableFingerprint hashes a rendered experiment table the way the
// end-to-end benchmark's correctness gate does: SHA-256 over the header
// line and then every row, each tab-joined and newline-terminated.
func tableFingerprint(header []string, rows [][]string) string {
	h := sha256.New()
	for _, line := range append([][]string{header}, rows...) {
		h.Write([]byte(strings.Join(line, "\t") + "\n"))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// benchFingerprint reads one committed fingerprint from the end-to-end
// benchmark's expected.json, so this test and the benchmark gate share a
// single pinned value.
func benchFingerprint(t *testing.T, key string) string {
	t.Helper()
	raw, err := os.ReadFile("e2ebench/expected.json")
	if err != nil {
		t.Fatal(err)
	}
	var exp struct {
		Fingerprints map[string]string `json:"fingerprints"`
	}
	if err := json.Unmarshal(raw, &exp); err != nil {
		t.Fatal(err)
	}
	want, ok := exp.Fingerprints[key]
	if !ok {
		t.Fatalf("e2ebench/expected.json has no %q fingerprint", key)
	}
	return want
}

// TestFig8GoldenFingerprint pins fig8's table (the closed-loop cpusim
// application workloads, which have no reference-scan arm) at the
// benchmark's app-mix scale.
func TestFig8GoldenFingerprint(t *testing.T) {
	res, err := RunExperiment(context.Background(), "fig8", ExperimentOpts{Scale: Scale{Warmup: 1000, Measure: 4000}})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := tableFingerprint(res.Header, res.Rows), benchFingerprint(t, "app-mix"); got != want {
		t.Fatalf("fig8 fingerprint %s, want %s (app-mix in e2ebench/expected.json)", got, want)
	}
}

// exploreGoldenOpts is a 64-spec grid campaign that crosses pool and
// batch boundaries: two workers, 16-point batches, so each worker's
// simulator pool serves points from several runner calls.
func exploreGoldenOpts(load float64) ExperimentOpts {
	return ExperimentOpts{
		Scale: Scale{Warmup: 500, Measure: 2000},
		Explore: ExploreOpts{
			Space: ExploreSpace{
				Subnets:    []int{1, 2, 4, 8},
				Widths:     []int{128, 512},
				VCDepths:   []int{2, 8},
				TIdles:     []int{2, 8},
				Metrics:    []string{"BFM", "IQOcc"},
				Thresholds: []float64{0},
			},
			Load:    load,
			Grid:    true,
			SimSeed: 1,
			Batch:   16,
		},
		Sweep: SweepOptions{Jobs: 2},
	}
}

// exploreGolden holds, per load, the SHA-256 of the explore front's
// table and of every grid point's sample (read back from the campaign's
// result cache, so all 64 simulations are pinned, not just the few that
// reach the front). Recorded before arrival-stream interning, reservoir
// reuse and campaign-lifetime worker pools landed; all three must leave
// them unchanged.
var exploreGolden = []struct {
	load           float64
	front, samples string
}{
	{0.002, "53bcbbe5273b95bd898edc36012c49a4df13c9e3abccea8e47cae0383d013c41", "7758634047d5a41ef2c1bbfc56499bbdbacf59a84ebbf08f81615398845905b8"},
	{0.05, "ec40d725b1c34ae01b4d718045ca5c538be9878a8ca5d688fe6871893a874a10", "58fa301ffbd49eebf30aec1a2422edc7e6370d600f189003163824e7500554d6"},
}

// TestExploreGoldenFingerprint pins the explore experiment at a gated
// low load and a moderate load.
func TestExploreGoldenFingerprint(t *testing.T) {
	for _, g := range exploreGolden {
		opts := exploreGoldenOpts(g.load)
		opts.Explore.CacheDir = t.TempDir()
		res, err := RunExperiment(context.Background(), "explore", opts)
		if err != nil {
			t.Fatal(err)
		}
		if got := tableFingerprint(res.Header, res.Rows); got != g.front {
			t.Errorf("load %g: front fingerprint %s, want %s", g.load, got, g.front)
		}
		r := res.Data.(*ExploreResult)
		cache, err := explore.OpenCache(opts.Explore.CacheDir)
		if err != nil {
			t.Fatal(err)
		}
		h := sha256.New()
		for idx := int64(0); idx < r.SpaceSize; idx++ {
			s, ok := cache.Get(r.Space.SpecAt(idx, r.Eval).Key())
			if !ok {
				t.Fatalf("load %g: spec %d missing from the result cache", g.load, idx)
			}
			fmt.Fprintf(h, "%d %+v\n", idx, s)
		}
		if err := cache.Close(); err != nil {
			t.Fatal(err)
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != g.samples {
			t.Errorf("load %g: sample fingerprint %s, want %s", g.load, got, g.samples)
		}
	}
}

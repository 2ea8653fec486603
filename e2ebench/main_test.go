package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"runtime/pprof"
	"slices"
	"strings"
	"testing"
	"time"
)

// TestMain lets the test binary stand in for the benchmark binary when
// measureSetUp starts it as a set-up child.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "-setup-child" {
		os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

// benchmarkSpec is the part of BENCHMARK.json the self-test checks the
// report against.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s benchmarkSpec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// runTiny runs one workload at the self-test scale and returns its
// standard output and parsed report.
func runTiny(t *testing.T, name string, trace bool) (string, report) {
	t.Helper()
	args := []string{"-workload", name, "-tiny", "-seconds", "1", "-out-dir", t.TempDir()}
	if trace {
		args = append(args, "-trace", "1")
	}
	var stdout, stderr bytes.Buffer
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("run %v: exit %d\n%s", args, code, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var r report
	dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&r); err != nil {
		t.Fatalf("last line is not a report: %v\n%s", err, stdout.String())
	}
	if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
		t.Fatalf("report correct=%v attempted=%d failed=%d\n%s", r.Correct, r.Attempted, r.Failed, stderr.String())
	}
	return stdout.String(), r
}

// TestReportsEveryMetric runs every workload untraced and traced at tiny
// scale. The untraced report must carry exactly BENCHMARK.json's
// end-to-end metrics, the traced one exactly its per-layer metrics, each
// printed by name with its unit. Traced calls must reproduce the
// untraced fingerprint (the run counts a mismatch as failed points), and
// the stage shares must account for all profiled CPU.
func TestReportsEveryMetric(t *testing.T) {
	spec := loadSpec(t)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		if _, err := workloadByName(w.Name); err != nil {
			t.Fatal(err)
		}
		for _, trace := range []bool{false, true} {
			want := spec.EndToEnd
			if trace {
				want = spec.PerLayer
			}
			out, r := runTiny(t, w.Name, trace)
			for _, m := range want {
				got, ok := r.Metrics[m.Name]
				if !ok {
					t.Errorf("%s trace=%v: metric %s missing", w.Name, trace, m.Name)
					continue
				}
				if got.Unit != m.Unit {
					t.Errorf("%s trace=%v: %s unit %q, BENCHMARK.json says %q", w.Name, trace, m.Name, got.Unit, m.Unit)
				}
				if !strings.Contains(out, m.Name+" ") || !strings.Contains(out, " "+m.Unit+"\n") {
					t.Errorf("%s trace=%v: %s is not printed with its unit", w.Name, trace, m.Name)
				}
			}
			if len(r.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json lists %d", w.Name, trace, len(r.Metrics), len(want))
			}
			if !strings.Contains(out, "manifest {") || !strings.Contains(out, "points_failed") {
				t.Errorf("%s trace=%v: manifest or points_failed line missing", w.Name, trace)
			}
			if !trace {
				continue
			}
			sum := 0.0
			for _, st := range stages {
				sum += r.Metrics[shareName(st)].Value
			}
			if sum < 0.97 || sum > 1.03 {
				t.Errorf("%s: stage shares sum to %.4f, want 1 within 3%%", w.Name, sum)
			}
		}
	}
}

// TestFingerprintMismatchFailsEveryPoint checks the correctness gate: a
// call whose table differs from the expected one, or that has a failed
// point, counts all its points as failed.
func TestFingerprintMismatchFailsEveryPoint(t *testing.T) {
	var v verdict
	v.check(call{points: 16, hash: "a"}, nil, "a", 16)
	v.check(call{points: 16, hash: "b"}, nil, "a", 16)
	v.check(call{points: 16, failed: 1, hash: "a"}, nil, "a", 16)
	if v.attempted != 48 || v.failed != 32 {
		t.Fatalf("attempted %d failed %d, want 48 and 32", v.attempted, v.failed)
	}
}

// TestSeedInputs checks that seeds reach the program only as inputs
// within fixed bands, that the default seed selects the registered
// inputs, and that every input a seed can draw has a committed
// fingerprint.
func TestSeedInputs(t *testing.T) {
	def := synthLoads(defaultSeed, fullSize)
	if want := []float64{0.05, 0.15, 0.30, 0.45}; !slices.Equal(def, want) {
		t.Fatalf("default loads %v, want %v", def, want)
	}
	if exploreSimSeed(defaultSeed) != 1 {
		t.Fatalf("default sim seed %d, want 1", exploreSimSeed(defaultSeed))
	}
	h, ok := expectedSynth(def)
	if !ok || h != expectedData.Fingerprints["synth-sweep"] {
		t.Fatalf("default synth-sweep fingerprint %q (ok=%v), committed %q", h, ok, expectedData.Fingerprints["synth-sweep"])
	}
	drawn := map[string]bool{}
	for seed := uint64(0); seed < 500; seed++ {
		loads := synthLoads(seed, fullSize)
		if again := synthLoads(seed, fullSize); !slices.Equal(loads, again) {
			t.Fatalf("seed %d draws %v, then %v", seed, loads, again)
		}
		for i, l := range loads {
			if d := l*1e4 - float64(fullSize.synthBands[i]); d < -50.001 || d > 50.001 {
				t.Fatalf("seed %d: load %g outside band %d±50 ten-thousandths", seed, l, fullSize.synthBands[i])
			}
		}
		drawn[fmt.Sprint(loads)] = true
		if _, ok := expectedSynth(loads); !ok {
			t.Fatalf("seed %d: loads %v have no committed rows", seed, loads)
		}
		s := exploreSimSeed(seed)
		if _, ok := expectedData.Fingerprints[exploreKey(s)]; !ok {
			t.Fatalf("seed %d: sim seed %d has no committed fingerprint", seed, s)
		}
	}
	if len(drawn) < 50 {
		t.Fatalf("500 seeds drew only %d distinct load sets", len(drawn))
	}
}

// TestClassify pins the stage a frame is charged to, including the
// helpers that pass a sample on to their caller's stage.
func TestClassify(t *testing.T) {
	noc := catnapPkg + "/internal/noc."
	for fn, want := range map[string]string{
		noc + "(*Router).switchAllocateFast":                      "noc.sa",
		noc + "(*Router).vcAllocate":                              "noc.va",
		noc + "(*Router).traverse":                                "noc.st",
		noc + "(*Subnet).deliverPhase":                            "noc.deliver",
		noc + "(*NI).injectPhase":                                 "noc.inject",
		noc + "(*Subnet).powerPhase":                              "noc.power",
		noc + "(*Network).TrySkipIdle":                            "noc.skip",
		noc + "(*Network).Step":                                   "noc.other",
		noc + "(*Network).Reset":                                  "catnap.reset",
		noc + "(*flit).head":                                      "",
		noc + "(*Router).MaxPortOccupancyScan":                    "",
		catnapPkg + "/internal/core.(*CatnapGating).AllowSleep":   "noc.power",
		catnapPkg + "/internal/core.(*RRSelector).Select":         "noc.inject",
		catnapPkg + "/internal/traffic.(*Generator).Tick":         "traffic",
		catnapPkg + "/internal/congestion.(*Detector).AfterCycle": "congestion",
		catnapPkg + "/internal/congestion.(*Detector).Reset":      "catnap.reset",
		catnapPkg + "/internal/cpusim.(*System).AfterCycle":       "cpusim",
		catnapPkg + "/internal/explore.Run":                       "explore.engine",
		catnapPkg + "/internal/runner.Run[...].func1":             "runner",
		catnapPkg + ".(*SimPool).Get":                             "catnap.reset",
		catnapPkg + ".(*Simulator).StopMeasure":                   "catnap.other",
		catnapPkg + "/internal/stats.(*Latency).Add":              "",
		"runtime.scanobject":                                      "runtime.gc",
		"runtime.mallocgc":                                        "runtime.alloc",
		"runtime.memmove":                                         "",
	} {
		if got := classify(fn); got != want {
			t.Errorf("classify(%s) = %q, want %q", fn, got, want)
		}
	}

	a := newAttribution()
	a.add([]cpuSample{
		{frames: []string{noc + "(*flit).head", noc + "(*Router).switchAllocateFast", noc + "(*Network).Step"}, count: 1, nanos: 10},
		{frames: []string{"runtime.futex", "runtime.schedule"}, count: 1, nanos: 10},
		{frames: []string{"main.main"}, count: 1, nanos: 20},
	})
	if a.stage["noc.sa"] != 10 || a.stage["runtime.other"] != 10 || a.stage["other"] != 20 || a.cum["cum.noc_step"] != 10 {
		t.Fatalf("attribution %v, cumulative %v", a.stage, a.cum)
	}
}

// TestRunnerStats checks busy time and the end-of-call tail on two
// workers.
func TestRunnerStats(t *testing.T) {
	spans := []span{{StartS: 0, EndS: 4}, {StartS: 0, EndS: 1}, {StartS: 1, EndS: 2}, {StartS: 2, EndS: 3}}
	if busy, tail := runnerStats(spans, 2, 4); busy != 7 || tail != 1 {
		t.Fatalf("busy %g tail %g, want 7 and 1", busy, tail)
	}
}

// TestParseCPUProfile decodes a real runtime/pprof CPU profile.
func TestParseCPUProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Fatal(err)
	}
	x := 0
	for end := time.Now().Add(300 * time.Millisecond); time.Now().Before(end); {
		for i := 0; i < 1e5; i++ {
			x += i
		}
	}
	pprof.StopCPUProfile()
	samples, err := parseCPUProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var ns int64
	found := false
	for _, s := range samples {
		ns += s.nanos
		found = found || slices.Contains(s.frames, "github.com/catnap-noc/catnap/e2ebench.TestParseCPUProfile")
	}
	if ns <= 0 || !found {
		t.Fatalf("%d samples, %d ns, test function on a stack: %v (x=%d)", len(samples), ns, found, x)
	}
}

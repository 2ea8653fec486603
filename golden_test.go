package catnap

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"strings"
	"testing"
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

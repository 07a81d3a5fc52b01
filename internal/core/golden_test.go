package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/gob"
	"encoding/hex"
	"io"
	"os"
	"strings"
	"testing"
)

// init fixes the process-wide gob type ids of the digested types before
// any test runs. gob numbers a type the first time any encoder or decoder
// in the process meets it, and the ids are part of the encoded bytes, so
// without this the gob digests below would depend on which tests ran
// first.
func init() {
	for _, v := range []any{
		&StudyResult{Evals: []SetEvaluation{{}}},
		[]BarrierPointSet{{}},
	} {
		if err := gob.NewEncoder(io.Discard).Encode(v); err != nil {
			panic(err)
		}
	}
}

// goldenDigests parses testdata/golden_digests.txt: "<name> <sha256>"
// per line.
func goldenDigests(t *testing.T) map[string]string {
	t.Helper()
	data, err := os.ReadFile("testdata/golden_digests.txt")
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, sum, ok := strings.Cut(line, " ")
		if !ok {
			t.Fatalf("malformed digest line %q", line)
		}
		want[name] = strings.TrimSpace(sum)
	}
	return want
}

// checkDigest compares data's SHA-256 with the frozen digest for name,
// printing the computed digest on a mismatch.
func checkDigest(t *testing.T, want map[string]string, name string, data []byte) {
	t.Helper()
	if len(data) == 0 {
		t.Fatalf("%s: nothing to digest", name)
	}
	sum := sha256.Sum256(data)
	if got := hex.EncodeToString(sum[:]); got != want[name] {
		t.Errorf("%s: digest %s, frozen %q", name, got, want[name])
	}
}

// gobBytes gob-encodes v.
func gobBytes(t *testing.T, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestGoldenStudyDigest freezes a full study through the signature
// pipeline: its WriteJSON report and the gob of the entire StudyResult
// must hash to the digests checked in under testdata. Every float along
// the way feeds k-means seeding and representative selection, so any
// arithmetic divergence in the pipeline, however small, shows up here.
// The digests were taken when the streaming pipeline was still checked
// live against the legacy dense one. Floating-point results are those of
// an amd64 build.
func TestGoldenStudyDigest(t *testing.T) {
	want := goldenDigests(t)
	res, err := RunStudy("golden", phasedBuilder(3, 10), StudyConfig{Threads: 4, Runs: 3, Reps: 5, Seed: 2017})
	if err != nil {
		t.Fatal(err)
	}
	var rep bytes.Buffer
	if err := res.WriteJSON(&rep); err != nil {
		t.Fatal(err)
	}
	checkDigest(t, want, "study/report", rep.Bytes())
	checkDigest(t, want, "study/gob", gobBytes(t, res))
}

// TestGoldenDiscoveryDigests freezes the per-run barrier point sets of
// the signature-ablation shapes RunStudy does not cover (BBV-only,
// LDV-only) next to the default BBV+LDV signature.
func TestGoldenDiscoveryDigests(t *testing.T) {
	want := goldenDigests(t)
	build := phasedBuilder(4, 8)
	for _, variant := range []struct {
		name string
		mut  func(*DiscoveryConfig)
	}{
		{"bbv+ldv", func(*DiscoveryConfig) {}},
		{"bbv-only", func(c *DiscoveryConfig) { c.DisableLDV = true }},
		{"ldv-only", func(c *DiscoveryConfig) { c.DisableBBV = true }},
	} {
		t.Run(variant.name, func(t *testing.T) {
			cfg := DiscoveryConfig{Threads: 2, Runs: 3, Seed: 7}
			variant.mut(&cfg)
			sets, err := Discover(build, cfg)
			if err != nil {
				t.Fatal(err)
			}
			checkDigest(t, want, "discovery/"+variant.name+"/gob", gobBytes(t, sets))
		})
	}
}

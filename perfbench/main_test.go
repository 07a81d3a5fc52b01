package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"slices"
	"strings"
	"testing"
	"time"

	"barrierpoint/internal/apps"
	"barrierpoint/internal/service"
)

// TestMain lets the test binary stand in for the benchmark binary when a
// run spawns its set-up children.
func TestMain(m *testing.M) {
	if slices.Contains(os.Args[1:], "--setup-probe") {
		main()
	}
	os.Exit(m.Run())
}

// benchmarkSpec is the part of BENCHMARK.json the smoke test checks.
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

// shrink cuts every workload to its smallest shape for the smoke test.
func shrink(t *testing.T) {
	saved := []any{coldApps, coldThreads, coldRuns, coldReps, fleetApps, fleetThreads, fleetReps, mixedConfigs}
	coldApps, coldThreads, coldRuns, coldReps = []string{"MCB"}, 2, 2, 3
	fleetApps, fleetThreads, fleetReps = []string{"MCB"}, []int{2}, []int{3, 5}
	mixedConfigs = []service.SubmitRequest{
		{App: "MCB", Threads: 2, Runs: 2, Reps: 3},
		{App: "graph500", Threads: 2, Runs: 2, Reps: 3},
	}
	t.Cleanup(func() {
		coldApps, coldThreads, coldRuns, coldReps = saved[0].([]string), saved[1].(int), saved[2].(int), saved[3].(int)
		fleetApps, fleetThreads, fleetReps = saved[4].([]string), saved[5].([]int), saved[6].([]int)
		mixedConfigs = saved[7].([]service.SubmitRequest)
	})
}

// TestSmokeEveryMetric runs every workload briefly, untraced and traced,
// and checks that each metric BENCHMARK.json names is emitted with its
// unit and a finite value, and that the run is correct.
func TestSmokeEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload twice")
	}
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	shrink(t)
	t.Chdir(t.TempDir())
	for _, w := range spec.Workloads {
		mk, ok := workloads[w.Name]
		if !ok {
			t.Fatalf("BENCHMARK.json names workload %q the benchmark does not have", w.Name)
		}
		for _, traced := range []bool{false, true} {
			want := spec.EndToEnd
			if traced {
				want = spec.PerLayer
			}
			var out bytes.Buffer
			// Seed 7 is not the frozen default seed: the shrunk studies
			// have no committed digests.
			if err := run(&out, w.Name, mk, 7, 100*time.Millisecond, traced, ""); err != nil {
				t.Fatalf("%s traced=%v: %v", w.Name, traced, err)
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s traced=%v: last line %q: %v", w.Name, traced, lines[len(lines)-1], err)
			}
			if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d", w.Name, traced, res.Correct, res.Attempted, res.Failed)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, BENCHMARK.json names %d", w.Name, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s traced=%v: metric %s missing", w.Name, traced, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s traced=%v: metric %s unit %q, want %q", w.Name, traced, m.Name, got.Unit, m.Unit)
				case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
					t.Errorf("%s traced=%v: metric %s = %v", w.Name, traced, m.Name, got.Value)
				}
			}
		}
	}
}

// TestColdAppsAreTheEvaluatedApps pins study-cold to the paper's seven
// evaluated applications.
func TestColdAppsAreTheEvaluatedApps(t *testing.T) {
	var names []string
	for _, a := range apps.Evaluated() {
		names = append(names, a.Name)
	}
	if !slices.Equal(names, coldApps) {
		t.Errorf("coldApps = %v, the evaluated apps are %v", coldApps, names)
	}
}

func TestTail(t *testing.T) {
	xs := make([]float64, 21)
	for i := range xs {
		xs[i] = float64(20 - i)
	}
	v, pct, ok := tail(xs)
	if !ok || v != 10 || pct != 50 {
		t.Errorf("tail of 0..20 = %v at p%v (ok %v), want 10 at p50", v, pct, ok)
	}
	if v, _, ok := tail([]float64{3, 1, 2}); ok || v != 3 {
		t.Errorf("tail of three samples = %v (ok %v), want the maximum 3", v, ok)
	}
}

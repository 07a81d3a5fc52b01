// Command perfbench is barrierpoint's end-to-end benchmark. It runs one
// workload for a fixed time from a single load-generating process,
// checks every report it receives and prints the workload's metrics as
// one JSON object on the last line of standard output:
//
//	bash perfbench/run.sh --workload study-cold --seed 1 --seconds 20 --trace 0
//
// --trace 0 prints the end-to-end metrics of an untraced run. --trace 1
// runs the workload twice, untraced and then with spans and daemon
// scrapes around every call into the repository, and then probes the
// lower layers (omp, mem, pin, sigvec, simpoint) on the workload's own
// programs; it prints the per-layer metrics. README.md in this directory
// lists the workloads, every metric and the end-to-end metric each layer
// metric should move.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"barrierpoint/internal/obs"
	"barrierpoint/internal/sched"
)

// defaultSeed is the workload seed whose reports and deterministic
// counts are frozen in digests.json.
const defaultSeed = 1

// setupSamples is how many cold set-ups a run times for setup_s.
const setupSamples = 25

// workload is one benchmark traffic shape.
type workload interface {
	// setup builds the workload's programs and starts its servers under
	// dir; on return the first request can be issued. It reports how
	// many programs it built and the seconds that took.
	setup(ctx context.Context, dir string) (builds int, buildSecs float64, err error)
	// run drives the measured phase, recording every study into ph,
	// until ph's limit has passed.
	run(ctx context.Context, ph *phase) error
	// layers adds the measured phase's daemon-side layer figures to ph
	// (traced runs only); run has returned and the servers still answer.
	layers(ctx context.Context, ph *phase) error
	// batch returns one planner batch of the workload's study requests
	// for a seed, and probes the programs the lower-layer probes run.
	batch(seed uint64) []sched.StudyRequest
	probes() []probeSpec
	close()
}

var workloads = map[string]func() workload{
	"study-cold":    newStudyCold,
	"sweep-fleet":   newSweepFleet,
	"service-mixed": newServiceMixed,
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// quietLog drops the daemons' structured events: they would interleave
// with the result on the benchmark's output streams.
var quietLog = func() *obs.Logger {
	lvl, _ := obs.ParseLevel("error")
	return obs.NewLogger(io.Discard, lvl, 64)
}()

func main() {
	name := flag.String("workload", "", "workload: study-cold, sweep-fleet or service-mixed")
	seed := flag.Uint64("seed", defaultSeed, "workload seed; the same seed generates the same studies")
	seconds := flag.Float64("seconds", 20, "length of the measured phase in seconds")
	traced := flag.Int("trace", 0, "1 prints per-layer metrics from a traced run, 0 end-to-end metrics")
	setupProbe := flag.Bool("setup-probe", false, "time one cold set-up and exit (used by the benchmark itself)")
	record := flag.String("record-digests", "", "merge this run's report digests and counts into the given file")
	flag.Parse()

	mk, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: usage: --workload %s --seed N --seconds S --trace 0|1\n",
			strings.Join(workloadNames(), "|"))
		os.Exit(2)
	}
	if *setupProbe {
		os.Exit(runSetupProbe(mk()))
	}
	if err := run(os.Stdout, *name, mk, *seed, time.Duration(*seconds*float64(time.Second)), *traced == 1, *record); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func workloadNames() []string {
	var out []string
	for n := range workloads {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

func run(out io.Writer, name string, mk func() workload, seed uint64, limit time.Duration, traced bool, record string) error {
	ctx := context.Background()
	fmt.Fprintf(out, "perfbench: host %s\n", mustJSON(hostInfo()))

	setups, err := timeSetups(ctx, name, setupSamples)
	if err != nil {
		return err
	}
	// An untraced run measures at least two batches, so that its medians
	// rest on more than one; the two phases of a traced run, whose layer
	// figures are per-study means, one each.
	minBatches := 2
	if traced {
		minBatches = 1
	}
	untraced, err := measure(ctx, mk(), seed, limit, minBatches, false)
	if err != nil {
		return err
	}
	phases := []*phase{untraced}
	var res result
	if !traced {
		res.Metrics = endToEnd(out, untraced, setups)
	} else {
		w := mk()
		tr, err := measure(ctx, w, seed, limit, minBatches, true)
		if err != nil {
			return err
		}
		phases = append(phases, tr)
		probed, err := probe(w, seed)
		if err != nil {
			return err
		}
		res.Metrics = perLayer(untraced, tr, probed, setups)
		checkCounts(name, seed, tr, res.Metrics)
	}

	res.Correct = true
	for _, ph := range phases {
		res.Attempted += ph.attempted
		res.Failed += ph.failed
		for _, p := range ph.problems {
			fmt.Fprintln(os.Stderr, "perfbench:", p)
			res.Correct = false
		}
		if len(ph.samples) == 0 {
			fmt.Fprintln(os.Stderr, "perfbench: no study completed in the measured phase")
			res.Correct = false
		}
	}
	if record != "" {
		if err := recordDigests(record, name, seed, phases, res.Metrics, traced); err != nil {
			return err
		}
	}
	for k, m := range res.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			fmt.Fprintf(os.Stderr, "perfbench: metric %s is not finite\n", k)
			m.Value, res.Correct = 0, false
			res.Metrics[k] = m
		}
	}
	fmt.Fprintln(out, mustJSON(res))
	return nil
}

// measure sets the workload up in a fresh scratch directory, runs one
// measured phase and tears it down again.
func measure(ctx context.Context, w workload, seed uint64, limit time.Duration, minBatches int, traced bool) (*phase, error) {
	dir, err := scratchDir()
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	defer w.close()
	if _, _, err := w.setup(ctx, dir); err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	ph := newPhase(seed, limit, minBatches, traced)
	cpu0 := cpuSeconds()
	err = w.run(ctx, ph)
	ph.wall = time.Since(ph.start).Seconds()
	ph.cpu = cpuSeconds() - cpu0
	ph.stopRSS()
	if err != nil {
		return nil, err
	}
	if traced {
		if err := w.layers(ctx, ph); err != nil {
			return nil, fmt.Errorf("scraping layer metrics: %w", err)
		}
	}
	return ph, nil
}

// scratchDir makes a private directory under .bench_build in the
// working directory (the checkout root) for caches the run writes.
func scratchDir() (string, error) {
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		return "", err
	}
	dir, err := os.MkdirTemp(".bench_build", "run-")
	if err != nil {
		return "", err
	}
	return filepath.Abs(dir)
}

// setupSample is one cold set-up, timed by the parent from process start
// until the child reports that its first request could be issued.
type setupSample struct {
	Seconds   float64 `json:"-"`
	Builds    int     `json:"builds"`
	BuildSecs float64 `json:"build_s"`
}

// timeSetups times n cold set-ups, each in a fresh child process so the
// process-wide program cache starts empty as it does for a real daemon.
func timeSetups(ctx context.Context, name string, n int) ([]setupSample, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var out []setupSample
	for i := 0; i < n; i++ {
		cctx, cancel := context.WithTimeout(ctx, time.Minute)
		cmd := exec.CommandContext(cctx, self, "--setup-probe", "--workload", name)
		cmd.Stderr = os.Stderr
		stdout, err := cmd.StdoutPipe()
		if err != nil {
			cancel()
			return nil, err
		}
		start := time.Now()
		if err := cmd.Start(); err != nil {
			cancel()
			return nil, err
		}
		line, rerr := bufio.NewReader(stdout).ReadString('\n')
		secs := time.Since(start).Seconds()
		io.Copy(io.Discard, stdout)
		werr := cmd.Wait()
		cancel()
		var s setupSample
		if rerr != nil || werr != nil {
			return nil, fmt.Errorf("setup probe: %v", firstErr(rerr, werr))
		}
		if err := json.Unmarshal([]byte(line), &s); err != nil {
			return nil, fmt.Errorf("setup probe: %q: %w", line, err)
		}
		s.Seconds = secs
		out = append(out, s)
	}
	return out, nil
}

// runSetupProbe is the child side of timeSetups.
func runSetupProbe(w workload) int {
	dir, err := scratchDir()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(dir)
	defer w.close()
	builds, secs, err := w.setup(context.Background(), dir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: setup:", err)
		return 1
	}
	fmt.Println(mustJSON(setupSample{Builds: builds, BuildSecs: secs}))
	return 0
}

func firstErr(errs ...error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

func mustJSON(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return string(b)
}

// endToEnd derives the user-visible metrics of an untraced phase. The
// failure share and the estimation errors are printed beside them: the
// failure share reads 0 on a healthy run, and the errors are fixed by the
// seed rather than measured, so neither makes a bounded metric (the
// result line carries attempted/failed, the traced run the errors).
func endToEnd(out io.Writer, ph *phase, setups []setupSample) map[string]metric {
	n := len(ph.samples)
	m := map[string]metric{
		"setup_s":         {medianOf(setups, func(s setupSample) float64 { return s.Seconds }), "s"},
		"peak_rss_mb":     {ph.rssMB, "MB"},
		"ok_frac":         {float64(ph.attempted-ph.failed) / math.Max(1, float64(ph.attempted)), "frac"},
		"studies_per_s":   {float64(n) / ph.wall, "1/s"},
		"cpu_s_per_study": {ph.cpu / float64(n), "s"},
	}
	fmt.Fprintf(out, "perfbench: failed_frac %d/%d, err_cycles_pct_max %.4f %%, err_instr_pct_max %.4f %%\n",
		ph.failed, ph.attempted, ph.errCyc, ph.errInstr)
	if n > 0 {
		samples := append([]float64(nil), ph.samples...)
		m["study_s_p50"] = metric{median(samples), "s"}
		v, pct, ok := tail(samples)
		m["study_s_tail"] = metric{v, "s"}
		note := ""
		if !ok {
			note = " (fewer than 21 samples: the maximum)"
		}
		fmt.Fprintf(out, "perfbench: study_s_tail is p%.1f of %d samples%s\n", pct, n, note)
	}
	return m
}

func medianOf[T any](xs []T, f func(T) float64) float64 {
	vals := make([]float64, len(xs))
	for i, x := range xs {
		vals[i] = f(x)
	}
	return median(vals)
}

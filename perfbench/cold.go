package main

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"barrierpoint/internal/apps"
	"barrierpoint/internal/core"
	"barrierpoint/internal/isa"
	"barrierpoint/internal/machine"
	"barrierpoint/internal/resultcache"
	"barrierpoint/internal/sched"
	"barrierpoint/internal/xrand"
)

// studyCold runs serial cold studies through the library path
// (sched.Run, the call under barrierpoint.RunStudy) at the paper's
// configuration: 10 discovery runs, 20 reps, 8 threads, scalar binaries,
// over the seven evaluated apps. Every study has a fresh seed and a fresh
// cache, so nothing is reused. A batch is one pass over the seven apps;
// the phase runs whole passes.
type studyCold struct {
	spans *unitSpans
}

func newStudyCold() workload { return &studyCold{} }

var (
	coldApps    = []string{"AMGMk", "CoMD", "graph500", "HPCG", "LULESH", "MCB", "miniFE"}
	coldThreads = 8
	coldRuns    = 10
	coldReps    = 20
)

func (w *studyCold) setup(ctx context.Context, dir string) (int, float64, error) {
	w.spans = newUnitSpans()
	return buildPrograms(appsNamed(coldApps), []int{coldThreads})
}

func (w *studyCold) batch(seed uint64) []sched.StudyRequest { return w.pass(seed, 0) }

// pass returns pass p's studies: the seven apps in a seeded order, each
// with its own fresh seed.
func (w *studyCold) pass(seed uint64, p int) []sched.StudyRequest {
	evaluated := appsNamed(coldApps)
	rng := xrand.Derive(seed, fmt.Sprintf("study-cold/pass-%d", p))
	var out []sched.StudyRequest
	for _, i := range rng.Perm(len(evaluated)) {
		a := evaluated[i]
		out = append(out, sched.StudyRequest{App: a.Name, Build: a.Build, Config: core.StudyConfig{
			Threads: coldThreads, Runs: coldRuns, Reps: coldReps, Seed: rng.Uint64() % 1_000_000,
		}})
	}
	return out
}

func (w *studyCold) probes() []probeSpec {
	var out []probeSpec
	for _, a := range appsNamed(coldApps) {
		out = append(out, probeSpec{app: a, threads: coldThreads, runs: coldRuns, collections: 1})
	}
	return out
}

func (w *studyCold) run(ctx context.Context, ph *phase) error {
	var last time.Duration
	for p := 0; ph.batchFits(p, last); p++ {
		t0 := time.Now()
		for _, req := range w.pass(ph.seed, p) {
			w.study(ctx, ph, req)
		}
		last = time.Since(t0)
	}
	return nil
}

func (w *studyCold) study(ctx context.Context, ph *phase, req sched.StudyRequest) {
	cache := resultcache.New(resultcache.DefaultMaxEntries)
	opts := sched.Options{Cache: cache}
	if ph.traced {
		opts.Executor = w.spans.wrap(&sched.LocalExecutor{Cache: cache})
	}
	t0 := time.Now()
	res, err := sched.Run(ctx, req, opts)
	if err != nil {
		ph.fail("%s: %v", studyKey("lib", req), err)
		return
	}
	var report bytes.Buffer
	if err := res.WriteJSON(&report); err != nil {
		ph.fail("%s: writing report: %v", studyKey("lib", req), err)
		return
	}
	secs := time.Since(t0).Seconds()
	errCyc, errInstr := bestErrors(res)
	ph.record(studyKey("lib", req), secs, report.Bytes(), errCyc, errInstr)
	if ph.traced {
		st := cache.Stats()
		ph.addLayer("resultcache.hits", float64(st.Hits))
		ph.addLayer("resultcache.misses", float64(st.Misses))
		ph.addLayer("resultcache.bytes", float64(st.Bytes))
	}
}

// layers books the unit spans: in-process, the scheduler's view of a
// unit and the primitive's own time are the same span.
func (w *studyCold) layers(ctx context.Context, ph *phase) error {
	w.spans.report(ph, float64(len(ph.samples)))
	return nil
}

func (w *studyCold) close() {}

// studyKey names a study for the digest check: the path its report came
// through (lib: WriteJSON, http: GET /report) and its normalised request.
func studyKey(path string, req sched.StudyRequest) string {
	c := req.Config.WithDefaults()
	return fmt.Sprintf("%s/%s/t%d/v%t/runs%d/reps%d/k%d/seed%d",
		path, req.App, c.Threads, c.Vectorised, c.Runs, c.Reps, c.MaxK, c.Seed)
}

// bestErrors returns the best set's worst cycle and instruction
// estimation error over both ISAs.
func bestErrors(res *core.StudyResult) (cyc, instr float64) {
	best := res.BestEval()
	for _, v := range []*core.Validation{best.X86, best.ARM} {
		if v == nil {
			continue
		}
		cyc = max(cyc, v.AvgAbsErrPct[machine.Cycles])
		instr = max(instr, v.AvgAbsErrPct[machine.Instructions])
	}
	return cyc, instr
}

// buildPrograms builds every app's scalar x86_64 and ARMv8 program at each
// thread count — the programs the workload's studies run — and times it.
// Builds are memoised per process, so only a fresh process pays them.
func buildPrograms(as []*apps.App, threads []int) (int, float64, error) {
	t0 := time.Now()
	n := 0
	for _, a := range as {
		for _, t := range threads {
			for _, v := range scalarVariants() {
				if _, err := a.Build(t, v); err != nil {
					return n, 0, fmt.Errorf("building %s (%d threads, %s): %w", a.Name, t, v, err)
				}
				n++
			}
		}
	}
	return n, time.Since(t0).Seconds(), nil
}

func scalarVariants() []isa.Variant {
	return []isa.Variant{{ISA: isa.X8664()}, {ISA: isa.ARMv8()}}
}

// unitSpans times every unit an executor resolves, by kind: a span
// around each call into the unit primitives (core.DiscoverBaseline,
// core.DiscoverJittered, core.Collect, core.EvaluateSet behind
// sched.LocalExecutor).
type unitSpans struct {
	mu    sync.Mutex
	secs  map[sched.UnitKind]float64
	count map[sched.UnitKind]int
}

func newUnitSpans() *unitSpans {
	return &unitSpans{secs: map[sched.UnitKind]float64{}, count: map[sched.UnitKind]int{}}
}

func (s *unitSpans) wrap(inner sched.Executor) sched.Executor {
	return spanExecutor{inner: inner, spans: s}
}

type spanExecutor struct {
	inner sched.Executor
	spans *unitSpans
}

func (e spanExecutor) ExecuteUnit(ctx context.Context, req sched.UnitRequest) (any, error) {
	t0 := time.Now()
	v, err := e.inner.ExecuteUnit(ctx, req)
	d := time.Since(t0).Seconds()
	e.spans.mu.Lock()
	e.spans.secs[req.Kind] += d
	e.spans.count[req.Kind]++
	e.spans.mu.Unlock()
	return v, err
}

// unitKinds maps the scheduler's unit kinds to metric name suffixes.
var unitKinds = []struct {
	kind sched.UnitKind
	unit string // sched.unit_s.<unit>
	core string // core.<core>_s
}{
	{sched.UnitDiscoverBaseline, "baseline", "discover_baseline"},
	{sched.UnitDiscoverJittered, "jittered", "discover_jittered"},
	{sched.UnitCollect, "collect", "collect"},
	{sched.UnitValidate, "validate", "validate"},
}

// report books the spans as sched.unit_s.* (unit seconds per completed
// study), sched.busy_frac and core.*_s (seconds per unit).
func (s *unitSpans) report(ph *phase, studies float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	total := 0.0
	for _, k := range unitKinds {
		total += s.secs[k.kind]
		if studies > 0 {
			ph.setLayer("sched.unit_s."+k.unit, s.secs[k.kind]/studies)
		}
		if s.count[k.kind] > 0 {
			ph.setLayer("core."+k.core+"_s", s.secs[k.kind]/float64(s.count[k.kind]))
		}
	}
	ph.setLayer("sched.busy_frac", total/(ph.wall*float64(runtime.GOMAXPROCS(0))))
}

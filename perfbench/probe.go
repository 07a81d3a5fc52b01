package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"

	"barrierpoint/internal/apps"
	"barrierpoint/internal/machine"
	"barrierpoint/internal/omp"
	"barrierpoint/internal/pin"
	"barrierpoint/internal/resultcache"
	"barrierpoint/internal/sched"
	"barrierpoint/internal/sigvec"
	"barrierpoint/internal/simpoint"
	"barrierpoint/internal/trace"
	"barrierpoint/internal/xrand"
)

// layerMetric is one per-layer metric of the traced run.
type layerMetric struct {
	name, unit string
	// counted marks counts that must repeat exactly across runs of one
	// seed; for the default seed they are checked against digests.json.
	counted bool
}

var layerMetrics = []layerMetric{
	{"apps.build_s", "s", false},
	{"apps.builds", "count", false},
	{"omp.exec_s", "s", false},
	{"omp.block_execs", "count", true},
	{"mem.cache_model_s", "s", false},
	{"mem.touches", "count", true},
	{"mem.ns_per_touch", "ns", false},
	{"pin.stream_s", "s", false},
	{"pin.instrument_s", "s", false},
	{"pin.signatures", "count", true},
	{"sigvec.project_s", "s", false},
	{"sigvec.ns_per_point", "ns", false},
	{"simpoint.cluster_s", "s", false},
	{"simpoint.points", "count", true},
	{"simpoint.ms_per_cluster", "ms", false},
	{"core.discover_baseline_s", "s", false},
	{"core.discover_jittered_s", "s", false},
	{"core.collect_s", "s", false},
	{"core.validate_s", "s", false},
	{"core.barrier_points", "count", true},
	{"core.selected_points", "count", true},
	{"resultcache.hits", "count", false},
	{"resultcache.misses", "count", false},
	{"resultcache.hit_ratio", "frac", false},
	{"resultcache.bytes", "B", false},
	{"cachestore.spills", "count", false},
	{"cachestore.spill_errors", "count", false},
	{"cachestore.writes", "count", false},
	{"sched.unit_s.baseline", "s", false},
	{"sched.unit_s.jittered", "s", false},
	{"sched.unit_s.collect", "s", false},
	{"sched.unit_s.validate", "s", false},
	{"sched.busy_frac", "frac", false},
	{"sched.plan_s", "s", false},
	{"sched.units_naive", "count", true},
	{"sched.units_planned", "count", true},
	{"sched.units_deduped", "count", true},
	{"sched.units_subsumed", "count", true},
	{"sched.dedup_ratio", "frac", false},
	{"sched.dispatch_s", "s", false},
	{"sched.remote_overhead_s", "s", false},
	{"sched.remote_units", "count", false},
	{"sched.retries", "count", false},
	{"sched.fallbacks", "count", false},
	{"service.submit_s", "s", false},
	{"service.queue_wait_s", "s", false},
	{"service.run_s", "s", false},
	{"service.notify_lag_s", "s", false},
	{"service.report_s", "s", false},
	{"service.http_requests", "count", false},
	{"service.rejected", "count", false},
	{"service.worker_busy_rejects", "count", false},
	{"trace.overhead_frac", "frac", false},
	{"err_cycles_pct_max", "%", false},
	{"err_instr_pct_max", "%", false},
}

// probeSpec is one of a workload's programs with the work one batch of
// the workload does on it: runs discovery runs and, per ISA, collections
// native collections.
type probeSpec struct {
	app         *apps.App
	threads     int
	runs        int
	collections int
}

// probe measures the lower layers on the workload's own programs, doing
// one batch's worth of each layer's work with spans around the calls
// into omp, mem (by difference), pin, sigvec and simpoint, and compiles
// one batch of the workload's requests with the sweep planner.
func probe(w workload, seed uint64) (map[string]float64, error) {
	acc := map[string]float64{}
	t0 := time.Now()
	plan, err := sched.CompileSweep(context.Background(), w.batch(seed),
		sched.Options{Cache: resultcache.New(resultcache.DefaultMaxEntries)})
	if err != nil {
		return nil, fmt.Errorf("planning a batch: %w", err)
	}
	acc["sched.plan_s"] = time.Since(t0).Seconds()
	st := plan.Stats()
	acc["sched.units_naive"] = float64(st.NaiveUnits)
	acc["sched.units_planned"] = float64(st.PlannedUnits)
	acc["sched.units_deduped"] = float64(st.DedupedUnits)
	acc["sched.units_subsumed"] = float64(st.SubsumedUnits)
	acc["sched.dedup_ratio"] = 1 - float64(st.PlannedUnits)/float64(st.NaiveUnits)

	// Programs are probed nproc at a time, as the workloads run units.
	specs := w.probes()
	parts := make([]map[string]float64, len(specs))
	err = sched.ForEach(context.Background(), len(specs), runtime.GOMAXPROCS(0), func(_ context.Context, i int) error {
		parts[i] = map[string]float64{}
		if err := probeProgram(specs[i], seed, parts[i]); err != nil {
			return fmt.Errorf("probing %s (%d threads): %w", specs[i].app.Name, specs[i].threads, err)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	clusterings := 0
	for i, part := range parts {
		for k, v := range part {
			acc[k] += v
		}
		clusterings += specs[i].runs
	}
	acc["mem.ns_per_touch"] = 1e9 * acc["mem.cache_model_s"] / acc["mem.touches"]
	acc["sigvec.ns_per_point"] = 1e9 * acc["sigvec.project_s"] / acc["pin.signatures"]
	acc["simpoint.ms_per_cluster"] = 1e3 * acc["simpoint.cluster_s"] / float64(clusterings)
	return acc, nil
}

func timed(f func() error) (float64, error) {
	t0 := time.Now()
	err := f()
	return time.Since(t0).Seconds(), err
}

// probeProgram runs one program's share of a batch layer by layer.
func probeProgram(ps probeSpec, seed uint64, acc map[string]float64) error {
	discSeed := xrand.Derive(seed, fmt.Sprintf("probe/%s/%d", ps.app.Name, ps.threads)).Uint64() % 1_000_000
	var x86Mem, x86NoMem float64
	for i, v := range scalarVariants() {
		prog, err := ps.app.Build(ps.threads, v)
		if err != nil {
			return err
		}
		// The memory run counts block executions and touches through the
		// public hooks; an increment is noise beside a cache-model access.
		var blocks, touches float64
		cfg := omp.Config{
			Machine: machine.ForISA(v.ISA), Variant: v, Threads: ps.threads, WarmCaches: true,
			Hooks: omp.Hooks{
				BlockExec: func(int, *trace.Block, int64) { blocks++ },
				Touch:     func(int, trace.Touch) { touches++ },
			},
		}
		withMem, err := timed(func() error { _, err := omp.Run(prog, cfg); return err })
		if err != nil {
			return err
		}
		noMem := cfg
		noMem.SkipMemory = true
		noMem.Hooks = omp.Hooks{}
		without, err := timed(func() error { _, err := omp.Run(prog, noMem); return err })
		if err != nil {
			return err
		}
		// Every collection runs the program with the memory model; on
		// x86_64 so does the canonical discovery run, and every discovery
		// run executes the program.
		memRuns, execRuns := float64(ps.collections), float64(ps.collections)
		if i == 0 {
			memRuns++
			execRuns += float64(ps.runs)
			x86Mem, x86NoMem = withMem, without
		}
		acc["omp.exec_s"] += execRuns * without
		acc["omp.block_execs"] += execRuns * blocks
		acc["mem.cache_model_s"] += memRuns * (withMem - without)
		acc["mem.touches"] += memRuns * touches
	}

	x86 := scalarVariants()[0]
	prog, err := ps.app.Build(ps.threads, x86)
	if err != nil {
		return err
	}
	opts := sigvec.Options{Dim: sigvec.DefaultDim, UseBBV: true, UseLDV: true, Seed: discSeed}
	builder := sigvec.NewBuilder(opts)
	dims := builder.Dims()
	var baseLDV [][]float64 // the canonical run's projected LDV rows
	for run := 0; run < ps.runs; run++ {
		cfg := omp.Config{Machine: machine.ForISA(x86.ISA), Variant: x86, Threads: ps.threads, WarmCaches: true}
		pinOpts := pin.Options{}
		native := x86Mem
		if run > 0 {
			cfg.Jitter = xrand.Derive(discSeed, fmt.Sprintf("discovery-jitter-%d", run))
			cfg.JitterFrac = 0.005
			cfg.SkipMemory = true
			pinOpts.SkipLDV = true
			native = x86NoMem
		}
		var points []simpoint.Point
		project := 0.0
		stream, err := timed(func() error {
			return pin.Stream(prog, cfg, pinOpts, func(s pin.Signature) {
				t := time.Now()
				vec := make([]float64, dims)
				if run == 0 {
					builder.BuildSparseInto(vec, s.BBVSparse.Idx, s.BBVSparse.Val, s.LDVSparse.Idx, s.LDVSparse.Val)
					baseLDV = append(baseLDV, vec[opts.Dim:])
				} else {
					builder.BuildSparseInto(vec, s.BBVSparse.Idx, s.BBVSparse.Val, nil, nil)
					if s.Index < len(baseLDV) {
						copy(vec[opts.Dim:], baseLDV[s.Index])
					}
				}
				points = append(points, simpoint.Point{Vec: vec, Weight: s.Instructions})
				project += time.Since(t).Seconds()
			})
		})
		if err != nil {
			return err
		}
		acc["pin.stream_s"] += stream - project
		acc["pin.instrument_s"] += stream - project - native
		acc["pin.signatures"] += float64(len(points))
		acc["sigvec.project_s"] += project
		if run == 0 {
			acc["core.barrier_points"] += float64(len(points))
		}

		spCfg := simpoint.DefaultConfig(xrand.Derive(discSeed, fmt.Sprintf("kmeans-%d", run)).Uint64())
		spCfg.MaxK = min(spCfg.MaxK, (len(points)+1)/2)
		var res *simpoint.Result
		cluster, err := timed(func() error { res, err = simpoint.Cluster(points, spCfg); return err })
		if err != nil {
			return err
		}
		acc["simpoint.cluster_s"] += cluster
		acc["simpoint.points"] += float64(len(points))
		for _, rep := range res.Representatives {
			if rep >= 0 {
				acc["core.selected_points"]++
			}
		}
	}
	return nil
}

// perLayer assembles the traced run's metrics: the traced phase's spans
// and daemon scrapes, the probes, the set-up children's builds and the
// tracing overhead against the untraced phase.
func perLayer(untraced, traced *phase, probed map[string]float64, setups []setupSample) map[string]metric {
	vals := map[string]float64{}
	for k, v := range probed {
		vals[k] = v
	}
	for k, v := range traced.layers {
		vals[k] = v
	}
	vals["apps.build_s"] = medianOf(setups, func(s setupSample) float64 { return s.BuildSecs })
	vals["apps.builds"] = float64(setups[0].Builds)
	if lookups := vals["resultcache.hits"] + vals["resultcache.misses"]; lookups > 0 {
		vals["resultcache.hit_ratio"] = vals["resultcache.hits"] / lookups
	}
	vals["err_cycles_pct_max"] = traced.errCyc
	vals["err_instr_pct_max"] = traced.errInstr
	sps := func(ph *phase) float64 { return float64(len(ph.samples)) / ph.wall }
	vals["trace.overhead_frac"] = 1 - sps(traced)/sps(untraced)
	out := map[string]metric{}
	for _, lm := range layerMetrics {
		out[lm.name] = metric{vals[lm.name], lm.unit}
	}
	return out
}

// checkCounts flags a traced run on the default seed whose deterministic
// counts differ from the committed ones.
func checkCounts(name string, seed uint64, ph *phase, m map[string]metric) {
	want, ok := frozenRef.Counts[name]
	if seed != frozenRef.Seed || !ok {
		return
	}
	for _, lm := range layerMetrics {
		if lm.counted && m[lm.name].Value != want[lm.name] {
			ph.flag("%s is %v, committed %v for seed %d", lm.name, m[lm.name].Value, want[lm.name], seed)
		}
	}
}

// recordDigests merges a run's report digests (and, for a traced run,
// its deterministic counts) into the digest file at path.
func recordDigests(path, name string, seed uint64, phases []*phase, m map[string]metric, traced bool) error {
	f := frozen{Seed: seed, Reports: map[string]string{}, Counts: map[string]map[string]float64{}}
	if b, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(b, &f); err != nil {
			return err
		}
		if f.Seed != seed {
			return fmt.Errorf("%s holds seed %d, not %d", path, f.Seed, seed)
		}
	}
	for _, ph := range phases {
		for k, d := range ph.reports {
			f.Reports[k] = d
		}
	}
	if traced {
		counts := map[string]float64{}
		for _, lm := range layerMetrics {
			if lm.counted {
				counts[lm.name] = m[lm.name].Value
			}
		}
		f.Counts[name] = counts
	}
	b, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

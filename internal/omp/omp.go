// Package omp is the simulated OpenMP runtime: it executes a trace.Program
// on a machine model with a given thread count, statically scheduling each
// parallel loop across threads and synchronising at the implicit barrier
// that ends every parallel region. One region execution is exactly one of
// the paper's barrier points.
//
// The runtime exposes instrumentation hooks (used by the pin package to
// build BBVs and LDVs) and an optional schedule jitter that models the
// run-to-run thread-interleaving differences responsible for the paper's
// multiple barrier point sets.
package omp

import (
	"fmt"

	"barrierpoint/internal/cpu"
	"barrierpoint/internal/isa"
	"barrierpoint/internal/machine"
	"barrierpoint/internal/mem"
	"barrierpoint/internal/trace"
	"barrierpoint/internal/xrand"
)

// Fork-join bookkeeping the OpenMP runtime executes per thread per parallel
// region. Small in absolute terms, but a visible fraction of the paper's
// very short LULESH/HPGMG-FV regions.
const (
	forkJoinIntOps   = 900
	forkJoinBranches = 220
	forkJoinLoads    = 260
	forkJoinStores   = 120
)

// Hooks receive instrumentation callbacks during execution. Any field may
// be nil.
type Hooks struct {
	// RegionStart fires before a region's work is scheduled.
	RegionStart func(r *trace.Region)
	// BlockExec fires once per (thread, work item) with the scalar trip
	// count the thread executes. BBV construction consumes this.
	BlockExec func(thread int, b *trace.Block, trips int64)
	// Touch fires for every cache-line reference, in per-thread program
	// order. LDV construction consumes this.
	Touch func(thread int, t trace.Touch)
	// RegionEnd fires after the closing barrier.
	RegionEnd func(r *trace.Region)
}

// Chain composes two hook sets: each returned callback invokes h's hook
// first, then next's. Nil fields collapse to the other side's hook, so
// chaining onto empty hooks adds no indirection. Instrumentation layers
// (pin.Stream) use it to stack onto caller-supplied hooks without
// per-field nil plumbing — and without the hazard of a newly added Hooks
// field being forgotten by one of the hand-rolled chains.
func (h Hooks) Chain(next Hooks) Hooks {
	out := h
	if h.RegionStart == nil {
		out.RegionStart = next.RegionStart
	} else if next.RegionStart != nil {
		a, b := h.RegionStart, next.RegionStart
		out.RegionStart = func(r *trace.Region) { a(r); b(r) }
	}
	if h.BlockExec == nil {
		out.BlockExec = next.BlockExec
	} else if next.BlockExec != nil {
		a, b := h.BlockExec, next.BlockExec
		out.BlockExec = func(t int, blk *trace.Block, n int64) { a(t, blk, n); b(t, blk, n) }
	}
	if h.Touch == nil {
		out.Touch = next.Touch
	} else if next.Touch != nil {
		a, b := h.Touch, next.Touch
		out.Touch = func(t int, tc trace.Touch) { a(t, tc); b(t, tc) }
	}
	if h.RegionEnd == nil {
		out.RegionEnd = next.RegionEnd
	} else if next.RegionEnd != nil {
		a, b := h.RegionEnd, next.RegionEnd
		out.RegionEnd = func(r *trace.Region) { a(r); b(r) }
	}
	return out
}

// Config parameterises one run.
type Config struct {
	Machine *machine.Machine
	Variant isa.Variant
	Threads int
	// Jitter, when non-nil, perturbs static loop partition boundaries to
	// model scheduling/interleaving variability across discovery runs.
	Jitter *xrand.Rand
	// JitterFrac is the maximum fraction of a thread's chunk that can
	// migrate to a neighbour (default 0.02 when Jitter is set).
	JitterFrac float64
	// WarmCaches models the state left by application initialisation: the
	// paper's region of interest starts after init, which has already
	// touched every data array. Each data region is swept into the caches
	// (round-robin across threads) before the first parallel region.
	WarmCaches bool
	// SkipMemory disables memory simulation entirely: no touches are
	// generated, and the reported counters carry zero cache misses and
	// memory-free cycle counts. Discovery re-runs use this — they only
	// need basic-block execution counts, and skipping the memory system
	// makes them an order of magnitude cheaper.
	SkipMemory bool
	// SkipCounters drops everything only the counters read: the returned
	// RunResult has no Regions, and no cache hierarchy is built, so
	// touches go to Hooks.Touch alone (and are not generated without
	// one). Instrumentation-only executions (pin.Stream) set this — they
	// consume the run entirely through Hooks and discard the result, so a
	// counter row per region and a cache model per touch would be work
	// for nothing.
	SkipCounters bool
	Hooks        Hooks
}

// RegionResult holds the true (noise-free, uninstrumented) counters of one
// barrier point, per thread.
type RegionResult struct {
	Index     int
	Name      string
	PerThread []machine.Counters
}

// Total returns the region's counters summed over threads.
func (r *RegionResult) Total() machine.Counters {
	var t machine.Counters
	for _, c := range r.PerThread {
		t = t.Add(c)
	}
	return t
}

// RunResult is the outcome of executing a whole program.
type RunResult struct {
	Program *trace.Program
	Threads int
	Regions []RegionResult
}

// TotalPerThread returns each thread's counters summed over all regions —
// what the paper's region-of-interest measurement reports.
func (r *RunResult) TotalPerThread() []machine.Counters {
	out := make([]machine.Counters, r.Threads)
	for _, reg := range r.Regions {
		for t, c := range reg.PerThread {
			out[t] = out[t].Add(c)
		}
	}
	return out
}

// Total returns the counters summed over threads and regions.
func (r *RunResult) Total() machine.Counters {
	var t machine.Counters
	for _, pt := range r.TotalPerThread() {
		t = t.Add(pt)
	}
	return t
}

// partition splits trips into one contiguous chunk per thread (OpenMP
// static schedule), optionally jittering internal boundaries. The bounds
// are written into caller scratch (len threads+1): Run partitions once
// per work item, and the boundaries are consumed before the next call.
//
//bp:noalloc
func partition(bounds []int64, trips int64, threads int, jitter *xrand.Rand, frac float64) []int64 {
	bounds = bounds[:threads+1]
	for i := 0; i <= threads; i++ {
		bounds[i] = trips * int64(i) / int64(threads)
	}
	if jitter != nil && frac > 0 {
		chunk := float64(trips) / float64(threads)
		maxShift := int64(chunk * frac)
		if maxShift > 0 {
			for i := 1; i < threads; i++ {
				shift := int64(jitter.Intn(int(2*maxShift+1))) - maxShift
				b := bounds[i] + shift
				if b < bounds[i-1] {
					b = bounds[i-1]
				}
				if b > bounds[i+1] {
					b = bounds[i+1]
				}
				bounds[i] = b
			}
		}
	}
	return bounds
}

// Run executes the program and returns true per-barrier-point counters.
func Run(p *trace.Program, cfg Config) (*RunResult, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if cfg.Machine == nil {
		return nil, fmt.Errorf("omp: no machine configured")
	}
	if cfg.Variant.ISA == nil {
		return nil, fmt.Errorf("omp: no ISA variant configured")
	}
	if cfg.Variant.ISA.Name != cfg.Machine.ISA.Name {
		return nil, fmt.Errorf("omp: binary for %s cannot run on %s (a %s machine)",
			cfg.Variant.ISA.Name, cfg.Machine.Name, cfg.Machine.ISA.Name)
	}
	// SkipMemory runs never touch the hierarchy: no accesses, no warming
	// (warmed state would go unread), and zero prefetch stats — exactly
	// the counters a built-but-untouched hierarchy would report. Skipping
	// the build makes BBV-only discovery re-runs allocation-free here.
	// SkipCounters runs have no counters to report, so nothing would read
	// the hierarchy either.
	var hier *mem.Hierarchy
	if cfg.SkipMemory || cfg.SkipCounters {
		// Still reject thread counts the machine cannot map.
		if _, _, err := cfg.Machine.Topology(cfg.Threads); err != nil {
			return nil, err
		}
	} else {
		var err error
		hier, err = cfg.Machine.AcquireHierarchy(cfg.Threads)
		if err != nil {
			return nil, err
		}
		defer mem.ReleaseHierarchy(hier)
	}
	frac := cfg.JitterFrac
	if cfg.Jitter != nil && frac == 0 {
		frac = 0.02
	}

	if cfg.WarmCaches && hier != nil {
		for _, d := range p.Data {
			for i := int64(0); i < d.Lines; i++ {
				hier.Warm(int(i)%cfg.Threads, d.Base+uint64(i))
			}
		}
	}

	res := &RunResult{Program: p, Threads: cfg.Threads}
	res.Regions = make([]RegionResult, 0, len(p.Regions))

	model := cfg.Machine.CPU
	var forkJoin isa.OpMix
	forkJoin[isa.IntOp] = forkJoinIntOps
	forkJoin[isa.Branch] = forkJoinBranches
	forkJoin[isa.Load] = forkJoinLoads
	forkJoin[isa.Store] = forkJoinStores
	forkJoin = cfg.Variant.ISA.InstrMix(forkJoin)

	mixes := make([]isa.OpMix, cfg.Threads)
	events := make([]cpu.MemEvents, cfg.Threads)
	boundScratch := make([]int64, cfg.Threads+1)

	// One flat backing for every region's per-thread counters: the
	// RegionResults keep full-capacity subslices of it, so the whole run
	// costs one allocation instead of one per region.
	var counterBacking []machine.Counters
	if !cfg.SkipCounters {
		counterBacking = make([]machine.Counters, len(p.Regions)*cfg.Threads)
	}

	// The touch callbacks close over per-thread state that is stable
	// across regions (&events[t] is re-zeroed in place at each region
	// start), so one closure per thread serves every work item of the run
	// instead of allocating one per (region, work item, thread). Touches
	// feed the hierarchy and the hook; with neither there is nothing to
	// generate.
	var touchFns []func(trace.Touch)
	touchHook := cfg.Hooks.Touch
	if !cfg.SkipMemory && (hier != nil || touchHook != nil) {
		touchFns = make([]func(trace.Touch), cfg.Threads)
		for t := 0; t < cfg.Threads; t++ {
			t := t
			if hier == nil {
				touchFns[t] = func(touch trace.Touch) { touchHook(t, touch) }
				continue
			}
			ev := &events[t]
			touchFns[t] = func(touch trace.Touch) {
				level := hier.Access(t, touch.Line)
				if touch.Chase {
					switch level {
					case mem.L2:
						ev.ChaseL2++
					case mem.L3:
						ev.ChaseL3++
					case mem.Memory:
						ev.ChaseMem++
					}
				} else {
					switch level {
					case mem.L2:
						ev.L2Hits++
					case mem.L3:
						ev.L3Hits++
					case mem.Memory:
						ev.MemAccesses++
					}
				}
				if touchHook != nil {
					touchHook(t, touch)
				}
			}
		}
	}

	for ri := range p.Regions {
		region := &p.Regions[ri]
		if cfg.Hooks.RegionStart != nil {
			cfg.Hooks.RegionStart(region)
		}
		for t := range mixes {
			mixes[t] = forkJoin
			events[t] = cpu.MemEvents{}
		}
		for _, w := range region.Work {
			bounds := partition(boundScratch, w.Trips, cfg.Threads, cfg.Jitter, frac)
			for t := 0; t < cfg.Threads; t++ {
				start, n := bounds[t], bounds[t+1]-bounds[t]
				if n <= 0 {
					continue
				}
				compiled := trace.Compile(w.Block, n, cfg.Variant)
				mixes[t] = mixes[t].Add(compiled.InstrMix())
				if cfg.Hooks.BlockExec != nil {
					cfg.Hooks.BlockExec(t, w.Block, n)
				}
				if touchFns == nil {
					continue
				}
				trace.EmitTouches(w, start, n, touchFns[t])
			}
		}
		if cfg.SkipCounters {
			if cfg.Hooks.RegionEnd != nil {
				cfg.Hooks.RegionEnd(region)
			}
			continue
		}
		// Threads synchronise at the implicit barrier: every thread's
		// cycle counter advances to the slowest thread, plus the barrier
		// cost itself.
		var maxCycles float64
		perThread := counterBacking[ri*cfg.Threads : (ri+1)*cfg.Threads : (ri+1)*cfg.Threads]
		for t := 0; t < cfg.Threads; t++ {
			c := model.Cycles(mixes[t], events[t])
			if c > maxCycles {
				maxCycles = c
			}
			// L2 miss PMU events include prefetcher-generated refills;
			// prefetch fills hide latency, so they do not add to cycles.
			// (With SkipMemory there is no hierarchy and no events; the
			// memory counters stay zero, as an untouched hierarchy would
			// report.)
			var pf mem.PrefetchStats
			if hier != nil {
				pf = hier.DrainPrefetchStats(t)
			}
			perThread[t][machine.Instructions] = mixes[t].Total()
			perThread[t][machine.L1DMisses] = events[t].L1Misses()
			perThread[t][machine.L2DMisses] = events[t].L2Misses() + float64(pf.L2FillMisses)
		}
		for t := 0; t < cfg.Threads; t++ {
			perThread[t][machine.Cycles] = maxCycles + model.BarrierCycles
		}
		res.Regions = append(res.Regions, RegionResult{
			Index: region.Index, Name: region.Name, PerThread: perThread,
		})
		if cfg.Hooks.RegionEnd != nil {
			cfg.Hooks.RegionEnd(region)
		}
	}
	return res, nil
}

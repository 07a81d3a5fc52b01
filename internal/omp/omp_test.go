package omp

import (
	"reflect"
	"testing"

	"barrierpoint/internal/isa"
	"barrierpoint/internal/machine"
	"barrierpoint/internal/trace"
	"barrierpoint/internal/xrand"
)

// buildProgram returns a small three-region program.
func buildProgram() *trace.Program {
	p := trace.NewProgram("omp-test")
	d := p.AddData("work", 4096)
	var mix isa.OpMix
	mix[isa.IntOp] = 3
	mix[isa.FPAdd] = 2
	mix[isa.Load] = 2
	mix[isa.Store] = 1
	mix[isa.Branch] = 1
	stream := p.AddBlock(trace.Block{
		Name: "stream", Mix: mix, Vectorisable: true,
		LinesPerIter: 0.25, Pattern: trace.Sequential, Data: d,
	})
	chase := p.AddBlock(trace.Block{
		Name: "chase", Mix: mix,
		LinesPerIter: 1, Pattern: trace.PointerChase, Data: d,
	})
	p.AddRegion("r0", trace.BlockExec{Block: stream, Trips: 4000})
	p.AddRegion("r1", trace.BlockExec{Block: chase, Trips: 1000})
	p.AddRegion("r2", trace.BlockExec{Block: stream, Trips: 4000})
	p.Finalise()
	return p
}

func x86Config(threads int) Config {
	return Config{
		Machine: machine.IntelI7(),
		Variant: isa.Variant{ISA: isa.X8664()},
		Threads: threads,
	}
}

func TestRunBasic(t *testing.T) {
	res, err := Run(buildProgram(), x86Config(2))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Regions) != 3 {
		t.Fatalf("regions = %d", len(res.Regions))
	}
	for _, r := range res.Regions {
		if len(r.PerThread) != 2 {
			t.Fatalf("region %d has %d thread entries", r.Index, len(r.PerThread))
		}
		for th, c := range r.PerThread {
			if c[machine.Cycles] <= 0 || c[machine.Instructions] <= 0 {
				t.Errorf("region %d thread %d: non-positive counters %v", r.Index, th, c)
			}
		}
	}
}

func TestRunDeterministic(t *testing.T) {
	a, err := Run(buildProgram(), x86Config(4))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(buildProgram(), x86Config(4))
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Regions {
		for th := range a.Regions[i].PerThread {
			if a.Regions[i].PerThread[th] != b.Regions[i].PerThread[th] {
				t.Fatalf("region %d thread %d differs between identical runs", i, th)
			}
		}
	}
}

func TestBarrierEqualisesCycles(t *testing.T) {
	res, err := Run(buildProgram(), x86Config(4))
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res.Regions {
		c0 := r.PerThread[0][machine.Cycles]
		for th, c := range r.PerThread {
			if c[machine.Cycles] != c0 {
				t.Fatalf("region %d: thread %d cycles %f != thread 0 cycles %f (barrier should equalise)",
					r.Index, th, c[machine.Cycles], c0)
			}
		}
	}
}

func TestInstructionsConservedAcrossThreadCounts(t *testing.T) {
	// Total instructions should be nearly independent of the thread count
	// (modulo per-thread fork-join overhead).
	r1, err := Run(buildProgram(), x86Config(1))
	if err != nil {
		t.Fatal(err)
	}
	r4, err := Run(buildProgram(), x86Config(4))
	if err != nil {
		t.Fatal(err)
	}
	i1 := r1.Total()[machine.Instructions]
	i4 := r4.Total()[machine.Instructions]
	// Remove the known fork-join overhead before comparing.
	fj := func(threads int, regions int) float64 {
		var m isa.OpMix
		m[isa.IntOp] = forkJoinIntOps
		m[isa.Branch] = forkJoinBranches
		m[isa.Load] = forkJoinLoads
		m[isa.Store] = forkJoinStores
		return isa.X8664().InstrMix(m).Total() * float64(threads*regions)
	}
	w1 := i1 - fj(1, 3)
	w4 := i4 - fj(4, 3)
	if diff := (w4 - w1) / w1; diff > 0.001 || diff < -0.001 {
		t.Errorf("work instructions changed with threads: %f vs %f", w1, w4)
	}
}

func TestMoreThreadsFewerCyclesPerRegion(t *testing.T) {
	r1, err := Run(buildProgram(), x86Config(1))
	if err != nil {
		t.Fatal(err)
	}
	r8, err := Run(buildProgram(), x86Config(8))
	if err != nil {
		t.Fatal(err)
	}
	// Region cycles are the same across threads, so compare thread 0.
	c1 := r1.Regions[0].PerThread[0][machine.Cycles]
	c8 := r8.Regions[0].PerThread[0][machine.Cycles]
	if c8 >= c1 {
		t.Errorf("8 threads (%f cycles) should beat 1 thread (%f cycles)", c8, c1)
	}
}

func TestVectorisedFewerInstructions(t *testing.T) {
	scalar, err := Run(buildProgram(), x86Config(2))
	if err != nil {
		t.Fatal(err)
	}
	cfg := x86Config(2)
	cfg.Variant.Vectorised = true
	vect, err := Run(buildProgram(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if vect.Total()[machine.Instructions] >= scalar.Total()[machine.Instructions] {
		t.Error("vectorised binary should retire fewer instructions")
	}
}

func TestCrossMachineRejection(t *testing.T) {
	cfg := x86Config(2)
	cfg.Machine = machine.APMXGene()
	if _, err := Run(buildProgram(), cfg); err == nil {
		t.Error("x86_64 binary must not run on the ARM machine")
	}
}

func TestConfigValidation(t *testing.T) {
	p := buildProgram()
	if _, err := Run(p, Config{Variant: isa.Variant{ISA: isa.X8664()}, Threads: 1}); err == nil {
		t.Error("missing machine should fail")
	}
	if _, err := Run(p, Config{Machine: machine.IntelI7(), Threads: 1}); err == nil {
		t.Error("missing variant should fail")
	}
	cfg := x86Config(16)
	if _, err := Run(p, cfg); err == nil {
		t.Error("16 threads should exceed the machine")
	}
}

func TestHooksFire(t *testing.T) {
	var starts, ends, blocks, touches int
	cfg := x86Config(2)
	cfg.Hooks = Hooks{
		RegionStart: func(r *trace.Region) { starts++ },
		RegionEnd:   func(r *trace.Region) { ends++ },
		BlockExec:   func(th int, b *trace.Block, n int64) { blocks++ },
		Touch:       func(th int, touch trace.Touch) { touches++ },
	}
	if _, err := Run(buildProgram(), cfg); err != nil {
		t.Fatal(err)
	}
	if starts != 3 || ends != 3 {
		t.Errorf("region hooks: %d starts, %d ends", starts, ends)
	}
	if blocks != 6 { // 3 regions x 1 block x 2 threads
		t.Errorf("block hooks: %d", blocks)
	}
	if touches == 0 {
		t.Error("touch hook never fired")
	}
}

func TestTouchHookCountMatchesL1Accesses(t *testing.T) {
	var touches int
	cfg := x86Config(2)
	cfg.Hooks.Touch = func(th int, touch trace.Touch) { touches++ }
	res, err := Run(buildProgram(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Every touch is at most an L1 miss, so total misses <= touches.
	if misses := res.Total()[machine.L1DMisses]; misses > float64(touches) {
		t.Errorf("L1 misses %f exceed touches %d", misses, touches)
	}
	if touches == 0 {
		t.Fatal("no touches emitted")
	}
}

func TestJitterChangesPartitionNotTotals(t *testing.T) {
	cfg := x86Config(4)
	cfg.Jitter = xrand.New(7)
	jit, err := Run(buildProgram(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := Run(buildProgram(), x86Config(4))
	if err != nil {
		t.Fatal(err)
	}
	// Totals (instructions) must be conserved exactly under jitter.
	ji := jit.Total()[machine.Instructions]
	pi := plain.Total()[machine.Instructions]
	if ji != pi {
		t.Errorf("jitter changed total instructions: %f vs %f", ji, pi)
	}
	// But some per-thread split should differ.
	differs := false
	for i := range jit.Regions {
		for th := range jit.Regions[i].PerThread {
			if jit.Regions[i].PerThread[th][machine.Instructions] !=
				plain.Regions[i].PerThread[th][machine.Instructions] {
				differs = true
			}
		}
	}
	if !differs {
		t.Error("jitter should perturb per-thread instruction counts")
	}
}

func TestPartitionCoversRange(t *testing.T) {
	for _, trips := range []int64{0, 1, 7, 100, 9999} {
		for threads := 1; threads <= 8; threads++ {
			b := partition(make([]int64, threads+1), trips, threads, nil, 0)
			if b[0] != 0 || b[threads] != trips {
				t.Fatalf("partition(%d,%d) bounds %v", trips, threads, b)
			}
			for i := 1; i <= threads; i++ {
				if b[i] < b[i-1] {
					t.Fatalf("partition(%d,%d) not monotone: %v", trips, threads, b)
				}
			}
		}
	}
}

func TestPartitionJitterStaysValid(t *testing.T) {
	r := xrand.New(3)
	for i := 0; i < 200; i++ {
		b := partition(make([]int64, 9), 10000, 8, r, 0.05)
		if b[0] != 0 || b[8] != 10000 {
			t.Fatalf("jittered bounds lost range: %v", b)
		}
		for j := 1; j <= 8; j++ {
			if b[j] < b[j-1] {
				t.Fatalf("jittered bounds not monotone: %v", b)
			}
		}
	}
}

func TestRegionTotalAndRunTotals(t *testing.T) {
	res, err := Run(buildProgram(), x86Config(2))
	if err != nil {
		t.Fatal(err)
	}
	reg := res.Regions[0]
	var manual machine.Counters
	for _, c := range reg.PerThread {
		manual = manual.Add(c)
	}
	if reg.Total() != manual {
		t.Error("RegionResult.Total mismatch")
	}
	perThread := res.TotalPerThread()
	var sum machine.Counters
	for _, c := range perThread {
		sum = sum.Add(c)
	}
	if res.Total() != sum {
		t.Error("RunResult.Total mismatch")
	}
}

func TestARMRunWorks(t *testing.T) {
	cfg := Config{
		Machine: machine.APMXGene(),
		Variant: isa.Variant{ISA: isa.ARMv8(), Vectorised: true},
		Threads: 8,
	}
	res, err := Run(buildProgram(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Total()[machine.Cycles] <= 0 {
		t.Error("ARM run should produce cycles")
	}
}

func TestWarmCachesReduceEarlyMisses(t *testing.T) {
	cold, err := Run(buildProgram(), x86Config(2))
	if err != nil {
		t.Fatal(err)
	}
	cfg := x86Config(2)
	cfg.WarmCaches = true
	warm, err := Run(buildProgram(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	coldM := cold.Regions[0].Total()[machine.L2DMisses]
	warmM := warm.Regions[0].Total()[machine.L2DMisses]
	if warmM >= coldM {
		t.Errorf("warming should cut first-region L2 misses: %f vs %f", warmM, coldM)
	}
	// Instructions must be identical: warming never executes user code.
	if cold.Total()[machine.Instructions] != warm.Total()[machine.Instructions] {
		t.Error("warming must not change instruction counts")
	}
}

func TestSkipMemoryZeroesMisses(t *testing.T) {
	cfg := x86Config(2)
	cfg.SkipMemory = true
	res, err := Run(buildProgram(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	tot := res.Total()
	if tot[machine.L1DMisses] != 0 || tot[machine.L2DMisses] != 0 {
		t.Error("SkipMemory must produce zero cache misses")
	}
	if tot[machine.Instructions] <= 0 {
		t.Error("SkipMemory must keep instruction accounting")
	}
	// And it must not fire touch hooks.
	cfg.Hooks.Touch = func(int, trace.Touch) { t.Fatal("touch hook fired with SkipMemory") }
	if _, err := Run(buildProgram(), cfg); err != nil {
		t.Fatal(err)
	}
}

func TestSkipMemoryPreservesBlockHooks(t *testing.T) {
	cfg := x86Config(2)
	cfg.SkipMemory = true
	blocks := 0
	cfg.Hooks.BlockExec = func(int, *trace.Block, int64) { blocks++ }
	if _, err := Run(buildProgram(), cfg); err != nil {
		t.Fatal(err)
	}
	if blocks == 0 {
		t.Error("BlockExec hooks must still fire with SkipMemory (BBV collection)")
	}
}

// TestSkipCountersKeepsTouchStream: a SkipCounters run builds no cache
// model, but its Touch hook must see exactly the touches a full run's
// does — thread, line and chase flag, in order — and it returns no
// regions.
func TestSkipCountersKeepsTouchStream(t *testing.T) {
	type touchRec struct {
		thread int
		line   uint64
		chase  bool
	}
	stream := func(skip bool) ([]touchRec, *RunResult) {
		var got []touchRec
		cfg := x86Config(4)
		cfg.WarmCaches = true
		cfg.Jitter = xrand.New(3)
		cfg.SkipCounters = skip
		cfg.Hooks.Touch = func(th int, touch trace.Touch) {
			got = append(got, touchRec{th, touch.Line, touch.Chase})
		}
		res, err := Run(buildProgram(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		return got, res
	}
	want, full := stream(false)
	got, skipped := stream(true)
	if len(want) == 0 || len(full.Regions) == 0 {
		t.Fatal("full run emitted no touches or regions")
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("SkipCounters touch stream differs: %d touches, full run %d", len(got), len(want))
	}
	if len(skipped.Regions) != 0 {
		t.Errorf("SkipCounters run returned %d regions", len(skipped.Regions))
	}
}

func TestHooksChainOrderAndCoverage(t *testing.T) {
	var order []string
	mark := func(s string) func(*trace.Region) {
		return func(*trace.Region) { order = append(order, s) }
	}
	first := Hooks{
		RegionStart: mark("start1"),
		RegionEnd:   mark("end1"),
		BlockExec:   func(int, *trace.Block, int64) { order = append(order, "block1") },
		Touch:       func(int, trace.Touch) { order = append(order, "touch1") },
	}
	second := Hooks{
		RegionStart: mark("start2"),
		RegionEnd:   mark("end2"),
		BlockExec:   func(int, *trace.Block, int64) { order = append(order, "block2") },
		Touch:       func(int, trace.Touch) { order = append(order, "touch2") },
	}
	h := first.Chain(second)
	h.RegionStart(nil)
	h.BlockExec(0, nil, 0)
	h.Touch(0, trace.Touch{})
	h.RegionEnd(nil)
	want := []string{"start1", "start2", "block1", "block2", "touch1", "touch2", "end1", "end2"}
	if len(order) != len(want) {
		t.Fatalf("fired %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("fired %v, want %v", order, want)
		}
	}
}

func TestHooksChainNilCollapse(t *testing.T) {
	calls := 0
	count := Hooks{RegionStart: func(*trace.Region) { calls++ }}
	// Chaining onto empty hooks must reuse the function directly (no
	// wrapper), and empty-side fields must stay nil.
	h := count.Chain(Hooks{})
	if h.BlockExec != nil || h.Touch != nil || h.RegionEnd != nil {
		t.Error("nil fields on both sides must stay nil")
	}
	h.RegionStart(nil)
	h = Hooks{}.Chain(count)
	h.RegionStart(nil)
	if calls != 2 {
		t.Errorf("RegionStart fired %d times, want 2", calls)
	}
}

func TestHooksChainInRun(t *testing.T) {
	cfg := x86Config(2)
	var order []string
	inner := Hooks{RegionEnd: func(*trace.Region) { order = append(order, "inner") }}
	outer := Hooks{RegionEnd: func(*trace.Region) { order = append(order, "outer") }}
	cfg.Hooks = inner.Chain(outer)
	if _, err := Run(buildProgram(), cfg); err != nil {
		t.Fatal(err)
	}
	if len(order) < 2 || order[0] != "inner" || order[1] != "outer" {
		t.Errorf("chained hooks fired as %v, want inner before outer per region", order)
	}
}

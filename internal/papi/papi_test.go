package papi

import (
	"math"
	"testing"

	"barrierpoint/internal/machine"
	"barrierpoint/internal/xrand"
)

func TestApplyOverheadAddsCosts(t *testing.T) {
	c := machine.Counters{1000, 2000, 30, 5}
	ov := DefaultOverhead()
	out := ApplyOverhead(c, 2, ov)
	if out[machine.Instructions] != 2000+2*ov.Instr {
		t.Errorf("instructions = %f", out[machine.Instructions])
	}
	if out[machine.Cycles] != 1000+2*ov.Cycles {
		t.Errorf("cycles = %f", out[machine.Cycles])
	}
	if out[machine.L1DMisses] <= 30 || out[machine.L2DMisses] <= 5 {
		t.Error("cache pollution should add misses")
	}
}

func TestApplyOverheadZeroReads(t *testing.T) {
	c := machine.Counters{1000, 2000, 30, 5}
	if ApplyOverhead(c, 0, DefaultOverhead()) != c {
		t.Error("zero reads must not perturb counters")
	}
}

func TestOverheadRelativeImpact(t *testing.T) {
	// A big region barely notices the overhead; a tiny region is heavily
	// perturbed — the LULESH/HPGMG-FV effect.
	ov := DefaultOverhead()
	big := machine.Counters{1e9, 2e9, 1e6, 1e5}
	small := machine.Counters{3e4, 5e4, 200, 20}
	bigErr := (ApplyOverhead(big, 2, ov)[machine.Instructions] - big[machine.Instructions]) / big[machine.Instructions]
	smallErr := (ApplyOverhead(small, 2, ov)[machine.Instructions] - small[machine.Instructions]) / small[machine.Instructions]
	if bigErr > 0.001 {
		t.Errorf("big region overhead %f should be <0.1%%", bigErr)
	}
	if smallErr < 0.01 {
		t.Errorf("small region overhead %f should exceed 1%%", smallErr)
	}
}

func TestSampleNonNegative(t *testing.T) {
	noise := machine.NoiseProfile{}
	noise.CV = [machine.NumMetrics]float64{0.5, 0.5, 0.5, 0.5}
	noise.Floor = [machine.NumMetrics]float64{100, 100, 100, 100}
	rng := xrand.New(1)
	tiny := machine.Counters{1, 1, 1, 1}
	for i := 0; i < 5000; i++ {
		s := Sample(tiny, noise, rng)
		for m, v := range s {
			if v < 0 {
				t.Fatalf("metric %d negative: %f", m, v)
			}
		}
	}
}

func TestSampleUnbiased(t *testing.T) {
	noise := machine.IntelI7().Noise
	rng := xrand.New(2)
	truth := machine.Counters{1e8, 2e8, 1e5, 1e4}
	var sums machine.Counters
	const n = 3000
	for i := 0; i < n; i++ {
		sums = sums.Add(Sample(truth, noise, rng))
	}
	for m := range truth {
		mean := sums[m] / n
		if math.Abs(mean-truth[m])/truth[m] > 0.01 {
			t.Errorf("metric %d mean %f deviates from truth %f", m, mean, truth[m])
		}
	}
}

func TestFloorDominatesSmallCounts(t *testing.T) {
	// The CoMD-on-ARM pathology: when the true count is comparable to the
	// noise floor, the coefficient of variation explodes.
	noise := machine.APMXGene().Noise
	rng := xrand.New(3)
	small := machine.Counters{1e9, 1e9, 120, 1e5} // ~120 L1D misses/BP
	m := Collect(small, noise, rng, 20)
	cvL1 := m[machine.L1DMisses].StdDev / m[machine.L1DMisses].Mean
	cvCyc := m[machine.Cycles].StdDev / m[machine.Cycles].Mean
	if cvL1 < 0.2 {
		t.Errorf("L1D CV %f should be large for low counts", cvL1)
	}
	if cvCyc > 0.02 {
		t.Errorf("cycle CV %f should stay small", cvCyc)
	}
}

func TestCollectSummaries(t *testing.T) {
	noise := machine.IntelI7().Noise
	m := Collect(machine.Counters{1e6, 1e6, 1e4, 1e3}, noise, xrand.New(4), 20)
	for i := range m {
		if m[i].N != 20 {
			t.Errorf("metric %d: N = %d", i, m[i].N)
		}
		if m[i].Mean <= 0 {
			t.Errorf("metric %d: non-positive mean", i)
		}
	}
	mean := m.Mean()
	if mean[machine.Cycles] != m[machine.Cycles].Mean {
		t.Error("Mean() should mirror the summaries")
	}
}

func TestCollectRepsFloor(t *testing.T) {
	m := Collect(machine.Counters{1, 1, 1, 1}, machine.NoiseProfile{}, xrand.New(5), 0)
	if m[0].N != 1 {
		t.Errorf("reps<=0 should collect one sample, got %d", m[0].N)
	}
}

func TestZeroNoiseProfileExact(t *testing.T) {
	truth := machine.Counters{123, 456, 78, 9}
	s := Sample(truth, machine.NoiseProfile{}, xrand.New(6))
	if s != truth {
		t.Errorf("zero noise should reproduce truth: %v vs %v", s, truth)
	}
}

func TestMultiplexedUnbiased(t *testing.T) {
	noise := machine.IntelI7().Noise
	rng := xrand.New(21)
	truth := machine.Counters{1e8, 2e8, 1e5, 1e4}
	m := CollectMultiplexed(truth, noise, rng, 4000, 4)
	for k := range truth {
		if rel := math.Abs(m[k].Mean-truth[k]) / truth[k]; rel > 0.01 {
			t.Errorf("metric %d: multiplexed mean off by %.2f%%", k, rel*100)
		}
	}
}

func TestMultiplexingInflatesVariance(t *testing.T) {
	noise := machine.IntelI7().Noise
	truth := machine.Counters{1e8, 2e8, 1e5, 1e4}
	single := CollectMultiplexed(truth, noise, xrand.New(22), 2000, 1)
	multi := CollectMultiplexed(truth, noise, xrand.New(22), 2000, 4)
	if multi[machine.Cycles].StdDev <= single[machine.Cycles].StdDev {
		t.Errorf("4-group multiplexing should inflate cycle stddev: %f vs %f",
			multi[machine.Cycles].StdDev, single[machine.Cycles].StdDev)
	}
}

func TestMultiplexGroupsFloor(t *testing.T) {
	truth := machine.Counters{100, 100, 100, 100}
	m := CollectMultiplexed(truth, machine.NoiseProfile{}, xrand.New(23), 5, 0)
	if m[0].N != 5 {
		t.Errorf("groups<1 should behave like 1, got N=%d", m[0].N)
	}
	if m[0].StdDev != 0 {
		t.Error("1 group + zero noise must be exact")
	}
}

// TestCollectMultiplexedAllocFree: at the paper's 20 repetitions the
// samples stay on the stack, multiplexed or not.
func TestCollectMultiplexedAllocFree(t *testing.T) {
	noise := machine.IntelI7().Noise
	rng := xrand.New(23)
	truth := machine.Counters{1e8, 2e8, 1e5, 1e4}
	for _, groups := range []int{1, 4} {
		if n := testing.AllocsPerRun(20, func() {
			CollectMultiplexed(truth, noise, rng, 20, groups)
		}); n != 0 {
			t.Errorf("groups=%d: %v allocations per collection, want 0", groups, n)
		}
	}
}

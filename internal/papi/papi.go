// Package papi models the performance-counter access layer the paper uses
// (PAPI reading the PMU): per-read instrumentation overhead that perturbs
// the application itself, and run-to-run measurement variability.
//
// Both effects drive Section V-C of the paper: instrumentation overhead is
// negligible for long barrier points but reaches tens of percent for
// LULESH's and HPGMG-FV's very short regions, and measurement noise makes
// low-count metrics (CoMD's L1D misses on ARM) impossible to estimate.
package papi

import (
	"math"

	"barrierpoint/internal/machine"
	"barrierpoint/internal/stats"
	"barrierpoint/internal/xrand"
)

// Overhead describes the cost of one counter read (one PAPI_read call per
// thread): instructions and cycles executed by the instrumentation, and
// cache lines it displaces.
type Overhead struct {
	Instr       float64
	Cycles      float64
	L1Pollution float64 // extra L1D misses caused per read
	L2Pollution float64 // extra L2 data misses caused per read
}

// ReadsPerBarrierPoint is how many counter reads per-thread instrumentation
// performs for every barrier point (one at the region fork, one at the
// barrier).
const ReadsPerBarrierPoint = 2

// DefaultOverhead returns the calibrated cost of one PAPI counter read.
func DefaultOverhead() Overhead {
	return Overhead{Instr: 420, Cycles: 600, L1Pollution: 1.5, L2Pollution: 0.3}
}

// ApplyOverhead returns the counters of a region whose execution included
// `reads` counter reads on one thread: the instrumented binary really does
// execute these extra instructions, so they show up in the "measured"
// values and bias per-barrier-point statistics.
func ApplyOverhead(c machine.Counters, reads float64, ov Overhead) machine.Counters {
	out := c
	out[machine.Instructions] += reads * ov.Instr
	out[machine.Cycles] += reads * ov.Cycles
	out[machine.L1DMisses] += reads * ov.L1Pollution
	out[machine.L2DMisses] += reads * ov.L2Pollution
	return out
}

// Sample draws one noisy measurement of the true counters under the
// machine's noise profile: a relative (CV-scaled) term plus an absolute
// perturbation floor that dominates when true counts are small.
func Sample(c machine.Counters, noise machine.NoiseProfile, rng *xrand.Rand) machine.Counters {
	var out machine.Counters
	for m := range c {
		v := c[m]*(1+noise.CV[m]*rng.NormFloat64()) + noise.Floor[m]*rng.NormFloat64()
		if v < 0 {
			v = 0
		}
		out[m] = v
	}
	return out
}

// Measurement aggregates repeated samples of one counter set.
type Measurement [machine.NumMetrics]stats.Summary

// Mean returns the mean values as counters.
func (m Measurement) Mean() machine.Counters {
	var c machine.Counters
	for i := range c {
		c[i] = m[i].Mean
	}
	return c
}

// Collect repeats Sample reps times (the paper repeats every experiment 20
// times) and summarises each metric with mean and standard deviation.
func Collect(c machine.Counters, noise machine.NoiseProfile, rng *xrand.Rand, reps int) Measurement {
	return CollectMultiplexed(c, noise, rng, reps, 1)
}

// CollectMultiplexed models PAPI's counter multiplexing: when more events
// are requested than the PMU has hardware counters, the events are
// time-sliced into `groups` round-robin groups, each observed only
// 1/groups of the time and extrapolated back up. The extrapolation is
// unbiased but adds sampling variance that grows with the number of
// groups — the reason the paper's future work on "a more comprehensive set
// of performance counters" is not free.
func CollectMultiplexed(c machine.Counters, noise machine.NoiseProfile, rng *xrand.Rand, reps, groups int) Measurement {
	if reps <= 0 {
		reps = 1
	}
	if groups < 1 {
		groups = 1
	}
	// Observing a counter for a fraction f of the run and scaling by 1/f
	// adds relative sampling error ~ sqrt((1-f)/f) per observation; the
	// calibration constant reflects per-window burstiness.
	const burstiness = 0.004
	extraCV := 0.0
	if groups > 1 {
		f := 1 / float64(groups)
		extraCV = burstiness * math.Sqrt((1-f)/f)
	}
	// The samples are kept metric-major (metric i's reps at
	// [i*reps:(i+1)*reps]) in a stack buffer that covers the paper's 20
	// repetitions; longer collections fall back to the heap.
	var buf [machine.NumMetrics * stackReps]float64
	acc := buf[:]
	if reps > stackReps {
		acc = make([]float64, int(machine.NumMetrics)*reps)
	}
	for r := 0; r < reps; r++ {
		s := Sample(c, noise, rng)
		if extraCV > 0 {
			for i := range s {
				s[i] *= rng.Noise(extraCV)
			}
		}
		for i := range s {
			acc[i*reps+r] = s[i]
		}
	}
	var out Measurement
	for i := range out {
		out[i] = stats.Summarize(acc[i*reps : (i+1)*reps])
	}
	return out
}

// stackReps is the largest repetition count CollectMultiplexed keeps on
// the stack.
const stackReps = 32

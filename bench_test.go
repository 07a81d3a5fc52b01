// Micro-benchmarks of the core substrates: native and instrumented
// execution, end-to-end discovery, clustering and signature projection.
//
// The paper's tables and figures are regenerated by
//
//	go run ./cmd/bpexperiments -exp all
//
// and cold studies at the paper's configuration are timed end to end by
// the repository benchmark in perfbench/ (the study-cold workload).
package barrierpoint_test

import (
	"testing"

	"barrierpoint"
	"barrierpoint/internal/isa"
	"barrierpoint/internal/machine"
	"barrierpoint/internal/omp"
	"barrierpoint/internal/pin"
	"barrierpoint/internal/sigvec"
	"barrierpoint/internal/simpoint"
	"barrierpoint/internal/xrand"
)

// BenchmarkNativeRunHPCG measures one full native (uninstrumented) machine
// run of HPCG on the Intel model with 8 threads.
func BenchmarkNativeRunHPCG(b *testing.B) {
	app, err := barrierpoint.AppByName("HPCG")
	if err != nil {
		b.Fatal(err)
	}
	v := isa.Variant{ISA: isa.X8664()}
	prog, err := app.Build(8, v)
	if err != nil {
		b.Fatal(err)
	}
	cfg := omp.Config{Machine: machine.IntelI7(), Variant: v, Threads: 8, WarmCaches: true}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := omp.Run(prog, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPinInstrumentedRunHPCG measures one discovery run with full
// BBV+LDV collection.
func BenchmarkPinInstrumentedRunHPCG(b *testing.B) {
	app, err := barrierpoint.AppByName("HPCG")
	if err != nil {
		b.Fatal(err)
	}
	v := isa.Variant{ISA: isa.X8664()}
	prog, err := app.Build(8, v)
	if err != nil {
		b.Fatal(err)
	}
	cfg := omp.Config{Machine: machine.IntelI7(), Variant: v, Threads: 8, WarmCaches: true}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		err := pin.Stream(prog, cfg, pin.Options{}, func(pin.Signature) { n++ })
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDiscoveryPipeline measures end-to-end barrier point discovery —
// the streaming signature pipeline this repository's hot path is built
// around: instrumented execution (sparse BBV/LDV collection with
// generation-reset stack distances), per-point signature projection, and
// clustering, for one canonical plus one jittered run.
func BenchmarkDiscoveryPipeline(b *testing.B) {
	app, err := barrierpoint.AppByName("HPCG")
	if err != nil {
		b.Fatal(err)
	}
	cfg := barrierpoint.DefaultDiscovery(8, false, 42)
	cfg.Runs = 2
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := barrierpoint.Discover(app.Build, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkKMeansClustering measures SimPoint-style clustering of 1000
// signature points.
func BenchmarkKMeansClustering(b *testing.B) {
	rng := xrand.New(1)
	points := make([]simpoint.Point, 1000)
	for i := range points {
		vec := make([]float64, 30)
		centre := float64(i % 7)
		for j := range vec {
			vec[j] = centre + 0.05*rng.NormFloat64()
		}
		points[i] = simpoint.Point{Vec: vec, Weight: 1}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := simpoint.Cluster(points, simpoint.DefaultConfig(uint64(i))); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSignatureProjection measures signature vector construction for
// a realistic BBV/LDV size (40 blocks x 8 threads, 20 bins x 8 threads).
func BenchmarkSignatureProjection(b *testing.B) {
	rng := xrand.New(2)
	bbv := make([]float64, 40*8)
	ldv := make([]float64, 20*8)
	for i := range bbv {
		bbv[i] = rng.Float64() * 1000
	}
	for i := range ldv {
		ldv[i] = rng.Float64() * 1000
	}
	opts := sigvec.DefaultOptions(3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sigvec.Build(bbv, ldv, opts)
	}
}

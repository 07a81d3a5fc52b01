package sigvec

import (
	"testing"
	"testing/quick"
)

// randVecs derives a dense vector and its ordered sparse view from a seed,
// with a controllable zero fraction (barrier-point vectors are mostly
// zero).
func randVecs(seed uint64, n int, zeroPct uint64) (dense []float64, idx []int32, val []float64) {
	dense = make([]float64, n)
	x := seed
	for i := range dense {
		x = x*6364136223846793005 + 1442695040888963407
		if (x>>7)%100 < zeroPct {
			continue
		}
		dense[i] = float64((x>>33)%100000) / 7
		if dense[i] != 0 {
			idx = append(idx, int32(i))
			val = append(val, dense[i])
		}
	}
	return dense, idx, val
}

// TestProjectorMatchesProject: the row-caching fused sparse path must be
// bit-identical to the reference Project(normalizeL1(v)).
func TestProjectorMatchesProject(t *testing.T) {
	p := NewProjector(15, 99)
	out := make([]float64, 15)
	if err := quick.Check(func(seed uint64) bool {
		dense, idx, val := randVecs(seed, 160, 70)
		p.ProjectSparseInto(out, idx, val)
		want := Project(normalizeL1(dense), 15, 99)
		for j := range want {
			if out[j] != want[j] {
				t.Logf("seed %d dim %d: %g != %g", seed, j, out[j], want[j])
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestProjectorSparseMatchesDense: a view that omits the zero entries must
// be bit-identical to one listing every dense index, zeros included, so
// explicit zeros are skipped exactly like omitted ones.
func TestProjectorSparseMatchesDense(t *testing.T) {
	p := NewProjector(15, 7)
	outD := make([]float64, 15)
	outS := make([]float64, 15)
	if err := quick.Check(func(seed uint64) bool {
		dense, idx, val := randVecs(seed, 200, 85)
		all := make([]int32, len(dense))
		for i := range all {
			all[i] = int32(i)
		}
		p.ProjectSparseInto(outD, all, dense)
		p.ProjectSparseInto(outS, idx, val)
		for j := range outD {
			if outD[j] != outS[j] {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestBuilderMatchesBuild: BuildSparseInto must be bit-identical to the
// reference Build, across component selections.
func TestBuilderMatchesBuild(t *testing.T) {
	for _, opts := range []Options{
		DefaultOptions(3),
		{Dim: 8, UseBBV: true, UseLDV: false, Seed: 11},
		{Dim: 8, UseBBV: false, UseLDV: true, Seed: 11},
		{UseBBV: true, UseLDV: true}, // zero Dim must default like Build
	} {
		b := NewBuilder(opts)
		out := make([]float64, b.Dims())
		if err := quick.Check(func(seed uint64) bool {
			bbv, bIdx, bVal := randVecs(seed, 320, 80)
			ldv, lIdx, lVal := randVecs(seed^0xabcdef, 160, 40)
			want := Build(bbv, ldv, opts)
			if len(want) != b.Dims() {
				t.Logf("Dims() = %d, Build produced %d", b.Dims(), len(want))
				return false
			}
			b.BuildSparseInto(out, bIdx, bVal, lIdx, lVal)
			for j := range want {
				if out[j] != want[j] {
					t.Logf("BuildSparseInto mismatch at %d", j)
					return false
				}
			}
			return true
		}, &quick.Config{MaxCount: 25}); err != nil {
			t.Errorf("opts %+v: %v", opts, err)
		}
	}
}

// TestBuilderZeroAllocs: steady-state signature building must not allocate.
func TestBuilderZeroAllocs(t *testing.T) {
	b := NewBuilder(DefaultOptions(5))
	out := make([]float64, b.Dims())
	_, bIdx, bVal := randVecs(123, 320, 80)
	_, lIdx, lVal := randVecs(456, 160, 40)
	// Warm the row caches.
	b.BuildSparseInto(out, bIdx, bVal, lIdx, lVal)
	if n := testing.AllocsPerRun(100, func() {
		b.BuildSparseInto(out, bIdx, bVal, lIdx, lVal)
	}); n != 0 {
		t.Errorf("BuildSparseInto allocates %v per point, want 0", n)
	}
}

func TestBuilderPanicsLikeBuild(t *testing.T) {
	for name, fn := range map[string]func(){
		"no components": func() { NewBuilder(Options{Dim: 4}) },
		"bad dim":       func() { NewProjector(0, 1) },
		"short out":     func() { NewBuilder(DefaultOptions(1)).BuildSparseInto(make([]float64, 3), nil, nil, nil, nil) },
		"ragged sparse": func() {
			NewProjector(4, 1).ProjectSparseInto(make([]float64, 4), []int32{1}, nil)
		},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			fn()
		}()
	}
}

// benchVecs is the realistic shape also used by the top-level
// BenchmarkSignatureProjection: 40 blocks x 8 threads, 20 bins x 8
// threads, with barrier-point-like sparsity.
func benchVecs() (bbv, ldv []float64, bIdx []int32, bVal []float64, lIdx []int32, lVal []float64) {
	bbv, bIdx, bVal = randVecs(2, 40*8, 80)
	ldv, lIdx, lVal = randVecs(3, 20*8, 40)
	return
}

// BenchmarkBuildReference is the allocating reference Build — the
// pre-refactor hot path, kept for before/after comparison.
func BenchmarkBuildReference(b *testing.B) {
	bbv, ldv, _, _, _, _ := benchVecs()
	opts := DefaultOptions(3)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Build(bbv, ldv, opts)
	}
}

// BenchmarkBuilderSparse is the streaming pipeline's per-point cost:
// reusable Builder consuming pin.Stream's sparse views into caller-owned
// scratch.
func BenchmarkBuilderSparse(b *testing.B) {
	_, _, bIdx, bVal, lIdx, lVal := benchVecs()
	bld := NewBuilder(DefaultOptions(3))
	out := make([]float64, bld.Dims())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bld.BuildSparseInto(out, bIdx, bVal, lIdx, lVal)
	}
}

package sigvec

import (
	"math"
	"testing"
	"testing/quick"
)

// accumulateNaive is the plain un-unrolled reference loop the 4-wide
// accumulate kernel must match bit-for-bit. The explicit conversion keeps
// the product rounding before the add, the same FMA barrier the real
// kernel uses.
func accumulateNaive(out, row []float64, x float64) {
	for j := range out {
		out[j] += float64(x * row[j])
	}
}

// kernelEdgeValues are the float64s most likely to expose a kernel that is
// not bit-identical: signed zeros, infinities, NaN, denormals, and
// magnitudes where rounding of the product and of the sum both matter.
var kernelEdgeValues = []float64{
	0, math.Copysign(0, -1),
	1, -1, 0.5, -0.5,
	math.Inf(1), math.Inf(-1), math.NaN(),
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
	math.MaxFloat64, -math.MaxFloat64,
	1e308, -1e308, 1e-308, -1e-308,
	0x1p-1022,          // smallest normal
	1.0000000000000002, // 1 + ulp
	3.141592653589793, 2.718281828459045,
}

// fillKernelVec derives a deterministic vector mixing edge values with
// pseudo-random magnitudes.
func fillKernelVec(dst []float64, seed uint64) {
	x := seed
	for i := range dst {
		x = x*6364136223846793005 + 1442695040888963407
		if (x>>5)%4 == 0 {
			dst[i] = kernelEdgeValues[(x>>33)%uint64(len(kernelEdgeValues))]
		} else {
			dst[i] = (float64((x>>33)%2000001) - 1e6) / 997
		}
	}
}

// sameBits reports bitwise equality — signed zeros differ — except that
// all NaNs form one equivalence class. IEEE 754 (and Go) leave *which*
// operand's NaN payload propagates through + and * unspecified, and the
// choice shifts with codegen (-race register allocation flips operand
// order), so payload identity is not a property any kernel can promise.
// Signature data is finite and non-negative, so the contract that matters
// is exact bits everywhere a number comes out.
func sameBits(a, b []float64) (int, bool) {
	for j := range a {
		if math.IsNaN(a[j]) && math.IsNaN(b[j]) {
			continue
		}
		if math.Float64bits(a[j]) != math.Float64bits(b[j]) {
			return j, false
		}
	}
	return -1, true
}

// TestScalarKernelMatchesNaive: the 4-wide unrolled scalar kernel must be
// bit-identical to the plain loop across every length class (0, tail-only,
// exact multiples of 4, and off-by-one around them) and edge values.
func TestScalarKernelMatchesNaive(t *testing.T) {
	for n := 0; n <= 33; n++ {
		got := make([]float64, n)
		want := make([]float64, n)
		row := make([]float64, n)
		for _, xSeed := range []uint64{1, 2, 3} {
			fillKernelVec(got, uint64(n)*1000+xSeed)
			copy(want, got)
			fillKernelVec(row, uint64(n)*2000+xSeed)
			xs := []float64{2.5, -1 / 3.0, kernelEdgeValues[(int(xSeed)+n)%len(kernelEdgeValues)]}
			for _, x := range xs {
				accumulate(got, row, x)
				accumulateNaive(want, row, x)
				if j, ok := sameBits(got, want); !ok {
					t.Fatalf("n=%d x=%g: scalar kernel diverges from naive at index %d: %x != %x",
						n, x, j, math.Float64bits(got[j]), math.Float64bits(want[j]))
				}
			}
		}
	}
}

// TestDispatchedKernelMatchesScalar: accumulate must be bit-identical to
// the naive loop on randomly drawn lengths, accumulators and scalars, the
// property-based complement to the exhaustive length sweep above.
func TestDispatchedKernelMatchesScalar(t *testing.T) {
	if err := quick.Check(func(seed uint64, nRaw uint8) bool {
		n := int(nRaw) % 67
		got := make([]float64, n)
		want := make([]float64, n)
		row := make([]float64, n)
		fillKernelVec(got, seed)
		copy(want, got)
		fillKernelVec(row, seed^0x5eed)
		x := kernelEdgeValues[seed%uint64(len(kernelEdgeValues))]
		if seed%3 == 0 {
			x = (float64(seed%2000001) - 1e6) / 1013
		}
		accumulate(got, row, x)
		accumulateNaive(want, row, x)
		j, ok := sameBits(got, want)
		if !ok {
			t.Logf("seed=%d n=%d x=%g: kernel diverges at %d: %x != %x",
				seed, n, x, j, math.Float64bits(got[j]), math.Float64bits(want[j]))
		}
		return ok
	}, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestProjectionUnalignedLengths: ProjectSparseInto must match the
// reference Project across dimensions that land on every lane-tail
// combination of the 4-wide kernel, including dims the paper pipeline
// never uses.
func TestProjectionUnalignedLengths(t *testing.T) {
	for _, dim := range []int{1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 30, 31, 33} {
		p := NewProjector(dim, uint64(dim)*31+7)
		outS := make([]float64, dim)
		for _, zeroPct := range []uint64{0, 50, 95} {
			dense, idx, val := randVecs(uint64(dim)*100+zeroPct, 160, zeroPct)
			want := Project(normalizeL1(dense), dim, uint64(dim)*31+7)
			p.ProjectSparseInto(outS, idx, val)
			if j, ok := sameBits(outS, want); !ok {
				t.Errorf("dim=%d zero=%d%%: ProjectSparseInto diverges at %d", dim, zeroPct, j)
			}
		}
	}
}

// FuzzAccumulateKernel: fuzz the accumulate kernel against the naive
// reference over raw float bit patterns, so the corpus can reach NaN
// payloads and denormals quick.Check's generator rarely produces.
func FuzzAccumulateKernel(f *testing.F) {
	f.Add(uint64(0x3ff0000000000000), uint64(0xbfe0000000000000), uint64(0x7ff8000000000001), uint8(13))
	f.Add(uint64(0x0000000000000001), uint64(0x7fefffffffffffff), uint64(0x8000000000000000), uint8(4))
	f.Add(uint64(0xfff0000000000000), uint64(0x7ff0000000000000), uint64(0x3ff0000000000000), uint8(7))
	f.Fuzz(func(t *testing.T, aBits, bBits, xBits uint64, nRaw uint8) {
		n := int(nRaw)%67 + 1
		got := make([]float64, n)
		want := make([]float64, n)
		row := make([]float64, n)
		a, b := math.Float64frombits(aBits), math.Float64frombits(bBits)
		for j := range got {
			v := a
			if j%2 == 1 {
				v = b
			}
			got[j] = v
			want[j] = v
			row[j] = b
			if j%3 == 2 {
				row[j] = a
			}
		}
		x := math.Float64frombits(xBits)
		accumulate(got, row, x)
		accumulateNaive(want, row, x)
		if j, ok := sameBits(got, want); !ok {
			t.Fatalf("n=%d a=%x b=%x x=%x: kernel diverges at %d: %x != %x",
				n, aBits, bBits, xBits, j, math.Float64bits(got[j]), math.Float64bits(want[j]))
		}
	})
}

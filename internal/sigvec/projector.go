package sigvec

import (
	"fmt"
	"math"
)

// Projector applies one seeded ±1 random projection repeatedly, the way
// the discovery hot loop needs it: the projection rows (the per-input-index
// {-1,+1} patterns Project derives by hashing on every call) are
// materialised once and reused, L1 normalisation is folded into the
// projection pass instead of materialising a normalised copy, and results
// are written into caller-owned storage. One Projector serves every
// barrier point of a run, so projecting a point allocates nothing.
//
// ProjectSparseInto is bit-identical to Project(normalizeL1(v), dim, seed):
// the same normalised values are accumulated in the same index order with
// the same final scaling. The golden-equivalence gate in internal/core
// rests on that.
type Projector struct {
	dim   int
	seed  uint64
	scale float64
	rows  []float64 // rows[i*dim : (i+1)*dim] = projEntry(i, ·, seed)
	nRows int
}

// NewProjector returns a projector onto dim dimensions for the seed.
func NewProjector(dim int, seed uint64) *Projector {
	if dim <= 0 {
		panic(fmt.Sprintf("sigvec: non-positive projection dimension %d", dim))
	}
	return &Projector{dim: dim, seed: seed, scale: 1 / math.Sqrt(float64(dim))}
}

// Dim returns the projected dimension.
func (p *Projector) Dim() int { return p.dim }

// ensureRows extends the materialised projection matrix to n input rows.
func (p *Projector) ensureRows(n int) {
	for i := p.nRows; i < n; i++ {
		for j := 0; j < p.dim; j++ {
			p.rows = append(p.rows, projEntry(i, j, p.seed))
		}
	}
	if n > p.nRows {
		p.nRows = n
	}
}

// accumulate adds x*row into out, 4-wide unrolled. The per-output-index
// accumulation order is unchanged from a plain loop, so results are
// bit-identical; the unrolling only breaks the loop-carried bookkeeping
// dependence so the FP adds on independent lanes pipeline. The explicit
// float64 conversions force the product to round before the add,
// forbidding the compiler from fusing x*row[j]+out[j] into an FMA on
// architectures where it otherwise would (arm64), so every architecture
// produces the same signature vectors.
//
//bp:noalloc
func accumulate(out, row []float64, x float64) {
	n := len(out)
	row = row[:n] // bounds-check hint
	j := 0
	for ; j+4 <= n; j += 4 {
		out[j] += float64(x * row[j])
		out[j+1] += float64(x * row[j+1])
		out[j+2] += float64(x * row[j+2])
		out[j+3] += float64(x * row[j+3])
	}
	for ; j < n; j++ {
		out[j] += float64(x * row[j])
	}
}

// Kernel names the projection kernel, always "scalar": projection is too
// small a share of a study to pay for a vector kernel. It exists because
// perfbench records it in the host line of every result.
func Kernel() string { return "scalar" }

// ProjectSparseInto writes the L1-normalised projection of an ordered
// sparse view into out, which must have length Dim: val[k] is the dense
// entry at index idx[k], idx is ascending, omitted entries are zero.
// Because Project sums and accumulates in index order and skips zeros,
// consuming the sparse view directly is bit-identical. It allocates only
// to extend the cached projection rows the first time a higher index is
// seen.
//
//bp:noalloc
func (p *Projector) ProjectSparseInto(out []float64, idx []int32, val []float64) {
	if len(out) != p.dim {
		//bp:lint-ok noalloc panic formatting, never runs on the hot path
		panic(fmt.Sprintf("sigvec: output length %d, want projection dimension %d", len(out), p.dim))
	}
	if len(idx) != len(val) {
		//bp:lint-ok noalloc panic formatting, never runs on the hot path
		panic(fmt.Sprintf("sigvec: sparse view with %d indices, %d values", len(idx), len(val)))
	}
	var sum float64
	for _, x := range val {
		sum += math.Abs(x)
	}
	for j := range out {
		out[j] = 0
	}
	if sum != 0 && len(idx) > 0 {
		p.ensureRows(int(idx[len(idx)-1]) + 1)
		for k, i := range idx {
			x := val[k]
			if x == 0 {
				continue
			}
			if xn := x / sum; xn != 0 {
				accumulate(out, p.rows[int(i)*p.dim:(int(i)+1)*p.dim], xn)
			}
		}
	}
	for j := range out {
		out[j] *= p.scale
	}
}

// Builder assembles whole signature vectors (the concatenation of the
// projected components Options selects) with zero allocations per point.
// It is the streaming counterpart of Build and produces bit-identical
// vectors.
type Builder struct {
	opts Options
	bbv  *Projector
	ldv  *Projector
}

// NewBuilder returns a Builder for the options, applying the same
// defaulting and validation as Build.
func NewBuilder(opts Options) *Builder {
	if !opts.UseBBV && !opts.UseLDV {
		panic("sigvec: signature must use at least one component")
	}
	if opts.Dim == 0 {
		opts.Dim = DefaultDim
	}
	b := &Builder{opts: opts}
	if opts.UseBBV {
		b.bbv = NewProjector(opts.Dim, opts.Seed^0xb1b1)
	}
	if opts.UseLDV {
		b.ldv = NewProjector(opts.Dim, opts.Seed^0x1d1d)
	}
	return b
}

// Dims returns the length of the signature vectors the Builder produces.
func (b *Builder) Dims() int {
	n := 0
	if b.opts.UseBBV {
		n += b.opts.Dim
	}
	if b.opts.UseLDV {
		n += b.opts.Dim
	}
	return n
}

// split carves out into the per-component destinations.
func (b *Builder) split(out []float64) (bbv, ldv []float64) {
	if len(out) != b.Dims() {
		panic(fmt.Sprintf("sigvec: output length %d, want %d", len(out), b.Dims()))
	}
	if b.opts.UseBBV {
		bbv, out = out[:b.opts.Dim], out[b.opts.Dim:]
	}
	if b.opts.UseLDV {
		ldv = out
	}
	return bbv, ldv
}

// BuildSparseInto writes the signature vector for ordered sparse BBV and
// LDV views into out. The discovery hot path feeds pin.Stream's sparse
// views straight through here: no densification, no per-point allocation.
//
//bp:noalloc
func (b *Builder) BuildSparseInto(out []float64, bbvIdx []int32, bbvVal []float64, ldvIdx []int32, ldvVal []float64) {
	dBBV, dLDV := b.split(out)
	if b.opts.UseBBV {
		b.bbv.ProjectSparseInto(dBBV, bbvIdx, bbvVal)
	}
	if b.opts.UseLDV {
		b.ldv.ProjectSparseInto(dLDV, ldvIdx, ldvVal)
	}
}

// Package good is the noalloc clean corpus: annotated hot loops that
// stay on the stack, next to an unannotated cold helper that may
// allocate freely.
package good

// Dot is the hot path; everything stays in registers and on the stack.
//
//bp:noalloc
func Dot(a, b []float64) float64 {
	var s float64
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

// Accumulate writes through a caller-provided buffer — the BuildSparseInto
// idiom from internal/sigvec.
//
//bp:noalloc
func Accumulate(dst, src []float64) {
	for i := range src {
		dst[i] += src[i]
	}
}

// grow is the cold helper pattern: allocation is fine here because the
// function is not annotated and its cost amortises to zero.
func grow(xs []int, n int) []int {
	return append(xs, make([]int, n)...)
}

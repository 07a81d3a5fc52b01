package simpoint

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"os"
	"strings"
	"testing"

	"barrierpoint/internal/xrand"
)

// digestCase is one frozen clustering input.
type digestCase struct {
	name string
	pts  []Point
	cfg  Config
}

func withMaxK(cfg Config, maxK int) Config {
	cfg.MaxK = maxK
	return cfg
}

// scaled multiplies every coordinate of pts by f, in place.
func scaled(pts []Point, f float64) []Point {
	for _, p := range pts {
		for j := range p.Vec {
			p.Vec[j] *= f
		}
	}
	return pts
}

// benchPoints is the BenchmarkKMeansClustering input: 1000 points in 30
// dimensions around seven centres.
func benchPoints() []Point {
	rng := xrand.New(1)
	points := make([]Point, 1000)
	for i := range points {
		vec := make([]float64, 30)
		centre := float64(i % 7)
		for j := range vec {
			vec[j] = centre + 0.05*rng.NormFloat64()
		}
		points[i] = Point{Vec: vec, Weight: 1}
	}
	return points
}

// latticePoints places n points on a small integer grid in dim
// dimensions, so many points coincide and many sit exactly halfway
// between two others: exact distance ties everywhere.
func latticePoints(n, dim, side int) []Point {
	pts := make([]Point, n)
	for i := range pts {
		v := make([]float64, dim)
		x := i*7 + i/3
		for j := range v {
			v[j] = float64(x % side)
			x /= side
		}
		pts[i] = Point{Vec: v, Weight: float64(1 + i%3)}
	}
	return pts
}

// repeatedPoints returns copies copies of each of the given vectors.
func repeatedPoints(vecs [][]float64, copies int) []Point {
	var pts []Point
	for i := 0; i < copies; i++ {
		for _, v := range vecs {
			pts = append(pts, Point{Vec: append([]float64(nil), v...), Weight: 1})
		}
	}
	return pts
}

// digestCases is the fixed input matrix behind testdata/cluster_digests.txt.
// It covers study-shaped signatures (TestScratchReuseBitIdentical's
// shapes and one paper-sized set), the BenchmarkKMeansClustering set,
// all-identical points and heavy duplication (the empty-cluster reseed),
// exact ties on integer lattices, n <= 2*maxK, and coordinates scaled to
// tiny, huge, subnormal-square and overflowing-square magnitudes.
func digestCases() []digestCase {
	return []digestCase{
		{"study/60x30-k8", studyPoints(1, 60, 30, 4), withMaxK(DefaultConfig(31), 8)},
		{"study/9x6-k20", studyPoints(2, 9, 6, 3), withMaxK(DefaultConfig(62), 20)},
		{"study/120x15-k6", studyPoints(3, 120, 15, 2), withMaxK(DefaultConfig(93), 6)},
		{"study/25x30-k8", studyPoints(4, 25, 30, 5), withMaxK(DefaultConfig(124), 8)},
		{"study/25x30-k8-b", studyPoints(5, 25, 30, 5), withMaxK(DefaultConfig(155), 8)},
		{"study/1500x30-k20", studyPoints(6, 1500, 30, 11), DefaultConfig(186)},
		{"bench/seed0", benchPoints(), DefaultConfig(0)},
		{"bench/seed1", benchPoints(), DefaultConfig(1)},
		{"identical/50x3", repeatedPoints([][]float64{{3, 3, 3}}, 50), DefaultConfig(2)},
		{"duplicates/3x10", repeatedPoints([][]float64{{0, 1}, {4, 1}, {2, 5}}, 10), withMaxK(DefaultConfig(3), 8)},
		{"ties/lattice-2d", latticePoints(80, 2, 5), withMaxK(DefaultConfig(4), 12)},
		{"ties/lattice-3d", latticePoints(150, 3, 3), withMaxK(DefaultConfig(5), 16)},
		{"ties/line", latticePoints(40, 1, 9), withMaxK(DefaultConfig(6), 10)},
		{"small/15-k10", studyPoints(7, 15, 8, 4), withMaxK(DefaultConfig(7), 10)},
		{"small/3-k20", studyPoints(8, 3, 4, 2), DefaultConfig(8)},
		{"scale/tiny", scaled(studyPoints(9, 200, 30, 6), 1e-120), withMaxK(DefaultConfig(9), 12)},
		{"scale/huge", scaled(studyPoints(10, 200, 30, 6), 1e120), withMaxK(DefaultConfig(10), 12)},
		{"scale/subnormal", scaled(studyPoints(11, 200, 30, 6), 1e-160), withMaxK(DefaultConfig(11), 12)},
		{"scale/overflow", scaled(studyPoints(12, 200, 30, 6), 1e160), withMaxK(DefaultConfig(12), 12)},
	}
}

// resultDigest hashes every field of a Result, floats as their bits.
func resultDigest(r *Result) string {
	h := sha256.New()
	var buf [8]byte
	word := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	ints := func(xs []int) {
		word(uint64(len(xs)))
		for _, x := range xs {
			word(uint64(int64(x)))
		}
	}
	floats := func(xs []float64) {
		word(uint64(len(xs)))
		for _, x := range xs {
			word(math.Float64bits(x))
		}
	}
	word(uint64(r.K))
	ints(r.Assign)
	ints(r.Representatives)
	floats(r.Multipliers)
	floats(r.ClusterWeights)
	word(math.Float64bits(r.BIC))
	return hex.EncodeToString(h.Sum(nil))
}

// TestClusterDigests freezes clustering: every case of digestCases must
// hash to its digest in testdata/cluster_digests.txt. The digests were
// taken from the plain Lloyd k-means before distance pruning landed, so
// they hold the pruned loop to bit-identical Results. A mismatch prints
// the computed digest; it means behaviour changed, not that the file
// needs regenerating.
func TestClusterDigests(t *testing.T) {
	data, err := os.ReadFile("testdata/cluster_digests.txt")
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, sum, ok := strings.Cut(line, " ")
		if !ok {
			t.Fatalf("malformed digest line %q", line)
		}
		want[name] = strings.TrimSpace(sum)
	}
	cases := digestCases()
	if len(want) != len(cases) {
		t.Errorf("%d frozen digests for %d cases", len(want), len(cases))
	}
	for _, tc := range cases {
		res, err := Cluster(tc.pts, tc.cfg)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got := resultDigest(res); got != want[tc.name] {
			t.Errorf("%s %s (frozen %q)", tc.name, got, want[tc.name])
		}
	}
}

package simpoint

import (
	"math"
	"testing"

	"barrierpoint/internal/xrand"
)

// blobs generates n points around each of the given centres with the given
// spread.
func blobs(centres [][]float64, n int, spread float64, seed uint64) []Point {
	rng := xrand.New(seed)
	var pts []Point
	for _, c := range centres {
		for i := 0; i < n; i++ {
			v := make([]float64, len(c))
			for j := range v {
				v[j] = c[j] + spread*rng.NormFloat64()
			}
			pts = append(pts, Point{Vec: v, Weight: 1})
		}
	}
	return pts
}

func TestClusterFindsObviousClusters(t *testing.T) {
	centres := [][]float64{{0, 0}, {10, 0}, {0, 10}}
	pts := blobs(centres, 30, 0.2, 1)
	res, err := Cluster(pts, DefaultConfig(7))
	if err != nil {
		t.Fatal(err)
	}
	if res.K != 3 {
		t.Fatalf("K = %d, want 3", res.K)
	}
	// All members of one blob must share an assignment.
	for blob := 0; blob < 3; blob++ {
		first := res.Assign[blob*30]
		for i := 0; i < 30; i++ {
			if res.Assign[blob*30+i] != first {
				t.Fatalf("blob %d split across clusters", blob)
			}
		}
	}
}

func TestClusterSinglePoint(t *testing.T) {
	res, err := Cluster([]Point{{Vec: []float64{1, 2}, Weight: 5}}, DefaultConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	if res.K != 1 || res.Representatives[0] != 0 {
		t.Errorf("single point: K=%d reps=%v", res.K, res.Representatives)
	}
	if res.Multipliers[0] != 1 {
		t.Errorf("single point multiplier = %f, want 1", res.Multipliers[0])
	}
}

func TestClusterIdenticalPoints(t *testing.T) {
	pts := make([]Point, 50)
	for i := range pts {
		pts[i] = Point{Vec: []float64{3, 3, 3}, Weight: 2}
	}
	res, err := Cluster(pts, DefaultConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	if res.K != 1 {
		t.Errorf("identical points should form one cluster, got K=%d", res.K)
	}
	if math.Abs(res.Multipliers[0]-50) > 1e-9 {
		t.Errorf("multiplier = %f, want 50", res.Multipliers[0])
	}
}

func TestMultipliersReconstructWeight(t *testing.T) {
	// Sum over clusters of multiplier x representative weight must equal
	// the total weight — that is the entire point of the multipliers.
	centres := [][]float64{{0, 0}, {8, 8}}
	pts := blobs(centres, 25, 0.3, 2)
	for i := range pts {
		pts[i].Weight = 1 + float64(i%7)
	}
	var total float64
	for _, p := range pts {
		total += p.Weight
	}
	res, err := Cluster(pts, DefaultConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	var reconstructed float64
	for c, rep := range res.Representatives {
		if rep < 0 {
			continue
		}
		reconstructed += res.Multipliers[c] * pts[rep].Weight
	}
	if math.Abs(reconstructed-total)/total > 1e-9 {
		t.Errorf("reconstructed weight %f != total %f", reconstructed, total)
	}
}

func TestClusterWeightsSumToOne(t *testing.T) {
	pts := blobs([][]float64{{0}, {5}, {9}}, 20, 0.2, 3)
	res, err := Cluster(pts, DefaultConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, w := range res.ClusterWeights {
		sum += w
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("cluster weights sum to %f", sum)
	}
}

func TestRepresentativesAreClusterMembers(t *testing.T) {
	pts := blobs([][]float64{{0, 0}, {6, 6}}, 40, 0.5, 4)
	res, err := Cluster(pts, DefaultConfig(5))
	if err != nil {
		t.Fatal(err)
	}
	for c, rep := range res.Representatives {
		if rep < 0 {
			continue
		}
		if res.Assign[rep] != c {
			t.Errorf("representative %d of cluster %d is assigned to cluster %d",
				rep, c, res.Assign[rep])
		}
	}
}

func TestDeterministicForSeed(t *testing.T) {
	pts := blobs([][]float64{{0, 0}, {7, 1}, {2, 9}}, 20, 0.4, 5)
	a, err := Cluster(pts, DefaultConfig(11))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Cluster(pts, DefaultConfig(11))
	if err != nil {
		t.Fatal(err)
	}
	if a.K != b.K {
		t.Fatalf("same seed, different K: %d vs %d", a.K, b.K)
	}
	for i := range a.Assign {
		if a.Assign[i] != b.Assign[i] {
			t.Fatal("same seed must give identical assignments")
		}
	}
}

func TestDifferentSeedsMayDiffer(t *testing.T) {
	// With ambiguous data, different seeds can legitimately pick different
	// clusterings; at minimum the call must succeed for many seeds.
	pts := blobs([][]float64{{0, 0}}, 60, 3.0, 6)
	for seed := uint64(0); seed < 10; seed++ {
		if _, err := Cluster(pts, DefaultConfig(seed)); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

func TestClusterErrors(t *testing.T) {
	if _, err := Cluster(nil, DefaultConfig(1)); err == nil {
		t.Error("empty input should fail")
	}
	if _, err := Cluster([]Point{{Vec: nil}}, DefaultConfig(1)); err == nil {
		t.Error("empty vector should fail")
	}
	if _, err := Cluster([]Point{
		{Vec: []float64{1}}, {Vec: []float64{1, 2}},
	}, DefaultConfig(1)); err == nil {
		t.Error("dimension mismatch should fail")
	}
	if _, err := Cluster([]Point{{Vec: []float64{1}, Weight: -1}}, DefaultConfig(1)); err == nil {
		t.Error("negative weight should fail")
	}
}

func TestMaxKRespected(t *testing.T) {
	pts := blobs([][]float64{{0}, {2}, {4}, {6}, {8}, {10}}, 10, 0.05, 7)
	cfg := DefaultConfig(8)
	cfg.MaxK = 2
	res, err := Cluster(pts, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.K > 2 {
		t.Errorf("K = %d exceeds MaxK", res.K)
	}
}

func TestConfigDefaultsApplied(t *testing.T) {
	pts := blobs([][]float64{{0}, {9}}, 15, 0.1, 9)
	res, err := Cluster(pts, Config{Seed: 3}) // all fields zero
	if err != nil {
		t.Fatal(err)
	}
	if res.K < 1 {
		t.Error("defaulted config should still cluster")
	}
}

func TestBICPrefersFewClustersForOneBlob(t *testing.T) {
	pts := blobs([][]float64{{5, 5}}, 80, 0.2, 10)
	res, err := Cluster(pts, DefaultConfig(12))
	if err != nil {
		t.Fatal(err)
	}
	if res.K > 2 {
		t.Errorf("one blob should not need %d clusters", res.K)
	}
}

func TestWeightlessRepresentativeFallsBackToCount(t *testing.T) {
	pts := []Point{
		{Vec: []float64{0}, Weight: 0},
		{Vec: []float64{0.01}, Weight: 0},
		{Vec: []float64{0.02}, Weight: 0},
	}
	res, err := Cluster(pts, DefaultConfig(13))
	if err != nil {
		t.Fatal(err)
	}
	var totalMult float64
	for _, m := range res.Multipliers {
		totalMult += m
	}
	if totalMult != 3 {
		t.Errorf("weightless multipliers should count members, got %f", totalMult)
	}
}

// TestSqDistMatchesSerialSum: the unrolled sqDist adds the squares in
// index order, so it must equal the one-element loop bit for bit at every
// length, including the tails the four-wide body leaves over.
func TestSqDistMatchesSerialSum(t *testing.T) {
	rng := xrand.New(7)
	for n := 0; n <= 33; n++ {
		a, b := make([]float64, n), make([]float64, n)
		for i := range a {
			a[i], b[i] = rng.NormFloat64()*1e3, rng.NormFloat64()*1e-3
		}
		var want float64
		for i := range a {
			d := a[i] - b[i]
			want += float64(d * d)
		}
		if got := sqDist(a, b); math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("n=%d: sqDist = %v, serial sum = %v", n, got, want)
		}
	}
}

// kmeansLloyd is the plain k-means++ / Lloyd loop kmeansOnce replaced,
// kept verbatim as the oracle its pruning is checked against: every
// distance computed, the lowest-index tie-break by strict < in index
// order. It uses s.cent, s.minDist, s.assign and s.counts like
// kmeansOnce and returns the distortion.
func (s *Scratch) kmeansLloyd(points []Point, k, dim int, rng *xrand.Rand, maxIter int) float64 {
	n := len(points)
	cent := s.cent[:k*dim]

	// k-means++ seeding.
	first := rng.Intn(n)
	copy(cent[:dim], points[first].Vec)
	minDist := s.minDist[:n]
	for i := range minDist {
		minDist[i] = sqDist(points[i].Vec, cent[:dim])
	}
	for nc := 1; nc < k; nc++ {
		var total float64
		for _, d := range minDist {
			total += d
		}
		var next int
		if total <= 0 {
			next = rng.Intn(n)
		} else {
			r := rng.Float64() * total
			acc := 0.0
			next = n - 1
			for i, d := range minDist {
				acc += d
				if acc >= r {
					next = i
					break
				}
			}
		}
		c := cent[nc*dim : (nc+1)*dim]
		copy(c, points[next].Vec)
		for i := range minDist {
			if d := sqDist(points[i].Vec, c); d < minDist[i] {
				minDist[i] = d
			}
		}
	}

	assign := s.assign[:n]
	counts := s.counts[:k]
	for iter := 0; iter < maxIter; iter++ {
		changed := false
		for i := range points {
			best, bestD := 0, math.Inf(1)
			for c := 0; c < k; c++ {
				if d := sqDist(points[i].Vec, cent[c*dim:(c+1)*dim]); d < bestD {
					best, bestD = c, d
				}
			}
			if assign[i] != best || iter == 0 {
				changed = changed || assign[i] != best
				assign[i] = best
			}
		}
		if iter > 0 && !changed {
			break
		}
		for c := 0; c < k; c++ {
			for j := c * dim; j < (c+1)*dim; j++ {
				cent[j] = 0
			}
			counts[c] = 0
		}
		for i, a := range assign {
			counts[a]++
			row := cent[a*dim : (a+1)*dim]
			for j, v := range points[i].Vec {
				row[j] += v
			}
		}
		for c := 0; c < k; c++ {
			if counts[c] == 0 {
				// Re-seed an empty cluster on the farthest point.
				far, farD := 0, -1.0
				for i := range points {
					if d := sqDist(points[i].Vec, cent[assign[i]*dim:(assign[i]+1)*dim]); d > farD {
						far, farD = i, d
					}
				}
				copy(cent[c*dim:(c+1)*dim], points[far].Vec)
				continue
			}
			inv := 1 / float64(counts[c])
			for j := c * dim; j < (c+1)*dim; j++ {
				cent[j] *= inv
			}
		}
	}
	var distortion float64
	for i, a := range assign {
		distortion += sqDist(points[i].Vec, cent[a*dim:(a+1)*dim])
	}
	return distortion
}

// checkKMeansExact runs kmeansOnce and the kmeansLloyd oracle on the same
// input and rng seed and requires the assignment, the centroid bits, the
// distortion bits and the rng position afterwards to match.
func checkKMeansExact(t *testing.T, pts []Point, k, maxIter int, seed uint64) {
	t.Helper()
	n, dim := len(pts), len(pts[0].Vec)
	want, got := NewScratch(), NewScratch()
	want.grow(n, dim, k)
	got.grow(n, dim, k)
	wantRng, gotRng := xrand.New(seed), xrand.New(seed)
	wantD := want.kmeansLloyd(pts, k, dim, wantRng, maxIter)
	gotD := got.kmeansOnce(pts, k, dim, gotRng, maxIter)
	for i := 0; i < n; i++ {
		if got.assign[i] != want.assign[i] {
			t.Fatalf("n=%d k=%d: point %d assigned %d, oracle %d", n, k, i, got.assign[i], want.assign[i])
		}
	}
	for j := 0; j < k*dim; j++ {
		if math.Float64bits(got.cent[j]) != math.Float64bits(want.cent[j]) {
			t.Fatalf("n=%d k=%d: centroid cell %d = %v, oracle %v", n, k, j, got.cent[j], want.cent[j])
		}
	}
	if math.Float64bits(gotD) != math.Float64bits(wantD) {
		t.Fatalf("n=%d k=%d: distortion %v, oracle %v", n, k, gotD, wantD)
	}
	if gotRng.Uint64() != wantRng.Uint64() {
		t.Fatalf("n=%d k=%d: rng stream diverged from the oracle", n, k)
	}
}

// TestKMeansExactOnDigestCases holds every k-means run behind the frozen
// digests to the oracle, not only each k's winning restart.
func TestKMeansExactOnDigestCases(t *testing.T) {
	for _, tc := range digestCases() {
		maxK := tc.cfg.MaxK
		if maxK > len(tc.pts) {
			maxK = len(tc.pts)
		}
		for k := 1; k <= maxK; k++ {
			checkKMeansExact(t, tc.pts, k, tc.cfg.MaxIterations, tc.cfg.Seed+uint64(k))
		}
	}
}

// FuzzKMeansExact draws small point sets on an integer grid — many
// duplicates, many points equidistant from two centroids — and requires
// kmeansOnce to reproduce the oracle exactly.
func FuzzKMeansExact(f *testing.F) {
	f.Add(uint64(1), uint8(20), uint8(2), uint8(4), uint8(99), []byte{0, 1, 2, 3, 4, 5, 6, 7, 8})
	f.Add(uint64(2), uint8(47), uint8(1), uint8(9), uint8(99), []byte{0, 0, 1, 2, 2, 2, 4})
	f.Add(uint64(3), uint8(30), uint8(3), uint8(7), uint8(2), []byte{3, 3, 3, 3, 200, 3, 3})
	f.Add(uint64(4), uint8(12), uint8(4), uint8(11), uint8(0), []byte{})
	f.Add(uint64(5), uint8(40), uint8(2), uint8(5), uint8(7), []byte{1, 5, 9, 13, 2, 6, 10, 14, 77, 140})
	f.Add(uint64(6), uint8(3), uint8(0), uint8(2), uint8(50), []byte{6, 0})
	f.Fuzz(func(t *testing.T, seed uint64, nRaw, dimRaw, kRaw, iterRaw uint8, coords []byte) {
		n := 1 + int(nRaw)%48
		dim := 1 + int(dimRaw)%5
		k := 1 + int(kRaw)%n
		if k > 12 {
			k = 12
		}
		maxIter := 1 + int(iterRaw)%100
		scale := [...]float64{1, 0.1, 1e-7, 3e5}[seed%4]
		pts := make([]Point, n)
		for i := range pts {
			v := make([]float64, dim)
			for j := range v {
				var b byte
				if len(coords) > 0 {
					b = coords[(i*dim+j)%len(coords)]
				}
				v[j] = float64(int(b%7)-3) * scale
			}
			pts[i] = Point{Vec: v, Weight: 1}
		}
		checkKMeansExact(t, pts, k, maxIter, seed)
	})
}

// Package simpoint reimplements the clustering side of the SimPoint 3.2
// tool that BarrierPoint drives: k-means over signature vectors with
// k-means++ seeding, multiple random restarts, and BIC-based selection of
// the number of clusters. Each cluster contributes one representative (the
// member closest to the centroid) and a multiplier derived from the
// cluster's weight, which the methodology later uses to scale counters
// back up to full-program estimates.
package simpoint

import (
	"fmt"
	"math"
	"sync"

	"barrierpoint/internal/xrand"
)

// Point is one barrier point in signature space.
type Point struct {
	Vec []float64
	// Weight is the point's share of the execution (instruction count).
	Weight float64
}

// Config controls the clustering.
type Config struct {
	// MaxK caps the number of clusters searched (the paper's selections
	// range up to 20, so SimPoint's default maxK=30 is plenty; we default
	// to 20 to match the observed selections).
	MaxK int
	// BICThreshold picks the smallest k whose BIC reaches this fraction
	// of the best BIC (SimPoint's default policy, 0.9).
	BICThreshold float64
	// Restarts is the number of random k-means initialisations per k.
	Restarts int
	// MaxIterations caps Lloyd iterations per run.
	MaxIterations int
	// Seed drives all randomness.
	Seed uint64
}

// DefaultConfig mirrors the parameters the paper reports using.
func DefaultConfig(seed uint64) Config {
	return Config{MaxK: 20, BICThreshold: 0.9, Restarts: 5, MaxIterations: 100, Seed: seed}
}

// Result is the outcome of clustering.
type Result struct {
	K int
	// Assign maps each point to its cluster.
	Assign []int
	// Representatives holds, per cluster, the index of the member point
	// nearest the centroid — the selected barrier points.
	Representatives []int
	// Multipliers holds, per cluster, the factor that scales the
	// representative's counters to stand in for the whole cluster:
	// (cluster total weight) / (representative weight).
	Multipliers []float64
	// ClusterWeights holds each cluster's fraction of the total weight.
	ClusterWeights []float64
	// BIC is the score of the chosen k.
	BIC float64
}

// sqDist is unrolled by four with the additions kept in index order, so
// its result is bit-identical to the one-element loop's. The one-element
// loop's speed depended on where the linker placed it: deleting 1.4 KB of
// unrelated code ahead of it made jittered discovery 27% slower on a
// 2-vCPU Xeon. The unrolled body was faster than either placement and
// insensitive to it.
//
//bp:noalloc
func sqDist(a, b []float64) float64 {
	var ss float64
	b = b[:len(a)] // bounds-check hint
	i := 0
	for ; i+4 <= len(a); i += 4 {
		aa, bb := a[i:i+4:i+4], b[i:i+4:i+4]
		d0, d1, d2, d3 := aa[0]-bb[0], aa[1]-bb[1], aa[2]-bb[2], aa[3]-bb[3]
		// The conversions force each square to round before its add,
		// blocking compiler FMA fusion (arm64) so every architecture
		// computes the same distances.
		ss += float64(d0 * d0)
		ss += float64(d1 * d1)
		ss += float64(d2 * d2)
		ss += float64(d3 * d3)
	}
	for ; i < len(a); i++ {
		d := a[i] - b[i]
		ss += float64(d * d)
	}
	return ss
}

// Scratch is the reusable working set for Cluster: Lloyd-iteration state
// and the per-k best-candidate store, all in flat one-slice backings
// (centroid c of a k-clustering lives at [c*dim:(c+1)*dim] of its block).
// A Scratch may be reused across studies of any size — grow reslices when
// capacity suffices and every cell is overwritten before it is read, so a
// reused Scratch produces bit-identical results to a fresh one (the
// property test in scratch_test.go holds this). A Scratch is not safe for
// concurrent use; Cluster draws from an internal pool, ClusterWith takes
// an explicit one.
type Scratch struct {
	cent    []float64 // working centroids, k*dim, for the current k-means run
	assign  []int     // working assignment, n
	counts  []int     // per-cluster member counts, k
	minDist []float64 // k-means++ seeding state, n

	// Best candidate per k, kept across restarts. candAssign row k-1 is
	// that k's assignment; candCent packs the k*dim centroid blocks
	// back-to-back (offset dim*k*(k-1)/2); candBIC[k-1] is its score.
	candAssign []int
	candCent   []float64
	candBIC    []float64
}

// NewScratch returns an empty Scratch; ClusterWith sizes it on first use.
func NewScratch() *Scratch { return &Scratch{} }

func growFloats(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

func growInts(s []int, n int) []int {
	if cap(s) < n {
		return make([]int, n)
	}
	return s[:n]
}

func (s *Scratch) grow(n, dim, maxK int) {
	s.cent = growFloats(s.cent, maxK*dim)
	s.assign = growInts(s.assign, n)
	s.counts = growInts(s.counts, maxK)
	s.minDist = growFloats(s.minDist, n)
	s.candAssign = growInts(s.candAssign, maxK*n)
	s.candCent = growFloats(s.candCent, dim*maxK*(maxK+1)/2)
	s.candBIC = growFloats(s.candBIC, maxK)
}

// candCentOff is the offset of k's centroid block in candCent: blocks for
// 1..k-1 clusters precede it, dim*(1+2+...+(k-1)) floats.
func candCentOff(k, dim int) int { return dim * (k * (k - 1) / 2) }

var scratchPool = sync.Pool{New: func() any { return &Scratch{} }}

// kmeansOnce runs one seeded k-means++ / Lloyd pass into s.assign and
// s.cent[:k*dim] and returns the distortion (sum of squared distances).
// Stale scratch contents never leak into the result: seeding overwrites
// cent and minDist, the first Lloyd iteration overwrites every assign
// cell before the update step reads it, and counts are zeroed before
// accumulation.
//
//bp:noalloc
func (s *Scratch) kmeansOnce(points []Point, k, dim int, rng *xrand.Rand, maxIter int) float64 {
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

// bic scores a clustering with the X-means spherical-Gaussian BIC
// (Pelleg & Moore), as SimPoint does: higher is better. distortion is the
// sum of squared point-to-centroid distances over assign, which
// kmeansOnce already accumulated in exactly this per-point order — it is
// passed in rather than recomputed (n*dim multiplies saved per restart).
// counts is zeroed and refilled scratch of length k.
//
//bp:noalloc
func bic(points []Point, assign []int, k, dim int, distortion float64, counts []int) float64 {
	n := len(points)
	if n <= k {
		return math.Inf(-1)
	}
	counts = counts[:k]
	for c := range counts {
		counts[c] = 0
	}
	for _, a := range assign {
		counts[a]++
	}
	variance := distortion / float64(dim*(n-k))
	if variance <= 0 {
		variance = 1e-12
	}
	var loglik float64
	for c := 0; c < k; c++ {
		nc := float64(counts[c])
		if nc == 0 {
			continue
		}
		loglik += nc*math.Log(nc/float64(n)) -
			nc*float64(dim)/2*math.Log(2*math.Pi*variance) -
			(nc-1)*float64(dim)/2
	}
	params := float64(k-1) + float64(k*dim) + 1
	return loglik - params/2*math.Log(float64(n))
}

// Cluster runs the SimPoint-style model selection: for each k in
// [1, MaxK], the best of Restarts k-means runs is scored with BIC, and the
// smallest k reaching BICThreshold x best BIC wins. Working storage comes
// from an internal pool; use ClusterWith to manage it explicitly.
func Cluster(points []Point, cfg Config) (*Result, error) {
	s := scratchPool.Get().(*Scratch)
	res, err := ClusterWith(points, cfg, s)
	scratchPool.Put(s)
	return res, err
}

// ClusterWith is Cluster against caller-owned scratch, for callers that
// run many studies back to back and want to pin the working set. The
// result never aliases the scratch.
func ClusterWith(points []Point, cfg Config, s *Scratch) (*Result, error) {
	n := len(points)
	if n == 0 {
		return nil, fmt.Errorf("simpoint: no points to cluster")
	}
	for i, p := range points {
		if len(p.Vec) == 0 {
			return nil, fmt.Errorf("simpoint: point %d has empty vector", i)
		}
		if len(p.Vec) != len(points[0].Vec) {
			return nil, fmt.Errorf("simpoint: point %d dimension %d != %d", i, len(p.Vec), len(points[0].Vec))
		}
		if p.Weight < 0 {
			return nil, fmt.Errorf("simpoint: point %d has negative weight", i)
		}
	}
	if cfg.MaxK <= 0 {
		cfg.MaxK = 20
	}
	if cfg.BICThreshold <= 0 || cfg.BICThreshold > 1 {
		cfg.BICThreshold = 0.9
	}
	if cfg.Restarts <= 0 {
		cfg.Restarts = 5
	}
	if cfg.MaxIterations <= 0 {
		cfg.MaxIterations = 100
	}
	maxK := cfg.MaxK
	if maxK > n {
		maxK = n
	}
	dim := len(points[0].Vec)
	s.grow(n, dim, maxK)
	rng := xrand.Derive(cfg.Seed, "simpoint-kmeans")

	for k := 1; k <= maxK; k++ {
		bestSet := false
		for r := 0; r < cfg.Restarts; r++ {
			distortion := s.kmeansOnce(points, k, dim, rng, cfg.MaxIterations)
			score := bic(points, s.assign[:n], k, dim, distortion, s.counts)
			if !bestSet || score > s.candBIC[k-1] {
				bestSet = true
				s.candBIC[k-1] = score
				copy(s.candAssign[(k-1)*n:k*n], s.assign[:n])
				off := candCentOff(k, dim)
				copy(s.candCent[off:off+k*dim], s.cent[:k*dim])
			}
		}
	}

	bestBIC := math.Inf(-1)
	for k := 1; k <= maxK; k++ {
		if s.candBIC[k-1] > bestBIC {
			bestBIC = s.candBIC[k-1]
		}
	}
	chosen := maxK
	for k := 1; k <= maxK; k++ {
		// BIC can be negative; use the SimPoint rule on the score range.
		if scoreReaches(s.candBIC[k-1], bestBIC, cfg.BICThreshold, s.candBIC[0]) {
			chosen = k
			break
		}
	}
	off := candCentOff(chosen, dim)
	return buildResult(points, chosen, dim,
		s.candAssign[(chosen-1)*n:chosen*n],
		s.candCent[off:off+chosen*dim],
		s.candBIC[chosen-1]), nil
}

// scoreReaches implements SimPoint's "within threshold of the best BIC"
// rule, mapping scores to [0,1] over the observed range so the rule works
// for negative BIC values too.
func scoreReaches(score, best, threshold, worst float64) bool {
	if best == worst {
		return true
	}
	norm := (score - worst) / (best - worst)
	return norm >= threshold
}

// buildResult assembles the Result from the winning candidate. assign and
// cents alias reusable scratch, so everything the Result keeps is copied.
func buildResult(points []Point, k, dim int, assign []int, cents []float64, score float64) *Result {
	res := &Result{K: k, Assign: append([]int(nil), assign...), BIC: score}
	res.Representatives = make([]int, k)
	res.Multipliers = make([]float64, k)
	res.ClusterWeights = make([]float64, k)

	bestD := make([]float64, k)
	clusterWeight := make([]float64, k)
	var totalWeight float64
	for c := range bestD {
		bestD[c] = math.Inf(1)
		res.Representatives[c] = -1
	}
	for i, a := range assign {
		clusterWeight[a] += points[i].Weight
		totalWeight += points[i].Weight
		if d := sqDist(points[i].Vec, cents[a*dim:(a+1)*dim]); d < bestD[a] {
			bestD[a] = d
		}
	}
	// Representative: among the members (essentially) nearest the
	// centroid, take the median occurrence. Perfectly periodic workloads
	// produce exact signature ties across iterations; always taking the
	// first occurrence would systematically select the earliest (often
	// atypical) iteration of each code region.
	const tie = 1e-12
	candidates := make([][]int, k)
	for i, a := range assign {
		if sqDist(points[i].Vec, cents[a*dim:(a+1)*dim]) <= bestD[a]+tie {
			candidates[a] = append(candidates[a], i)
		}
	}
	for c := range candidates {
		if n := len(candidates[c]); n > 0 {
			res.Representatives[c] = candidates[c][n/2]
		}
	}
	for c := 0; c < k; c++ {
		rep := res.Representatives[c]
		if rep < 0 {
			// Empty cluster: no representative, zero multiplier.
			res.Multipliers[c] = 0
			continue
		}
		if w := points[rep].Weight; w > 0 {
			res.Multipliers[c] = clusterWeight[c] / w
		} else {
			// Weightless representative: fall back to member count.
			var members float64
			for _, a := range assign {
				if a == c {
					members++
				}
			}
			res.Multipliers[c] = members
		}
		if totalWeight > 0 {
			res.ClusterWeights[c] = clusterWeight[c] / totalWeight
		}
	}
	return res
}

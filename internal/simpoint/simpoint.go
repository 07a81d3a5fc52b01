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
// and the per-k best-restart record, all in flat one-slice backings
// (centroid c lives at [c*dim:(c+1)*dim]). A Scratch may be reused
// across studies of any size — grow reslices when capacity suffices and
// every cell is overwritten before it is read, so a reused Scratch
// produces bit-identical results to a fresh one (the property test in
// scratch_test.go holds this). A Scratch is not safe for concurrent use;
// Cluster draws from an internal pool, ClusterWith takes an explicit one.
type Scratch struct {
	cent    []float64 // working centroids, k*dim, for the current k-means run
	assign  []int     // working assignment, n
	counts  []int     // per-cluster member counts, k
	minDist []float64 // k-means++ seeding state, n

	// Distance-pruning state of the current k-means run (see
	// kmeansOnce): per point an upper bound on the distance to its
	// centroid (n) and a lower bound per centroid (n*k); half the
	// distance between every centroid pair (k*k) and from each centroid
	// to its nearest other one (k); each centroid's last shift (k) and
	// its position before the update (k*dim).
	upper    []float64
	lower    []float64
	half     []float64
	halfNear []float64
	shift    []float64
	prev     []float64

	// Best restart per k: candBIC[k-1] is its score and candRng[k-1] the
	// rng state it started from, which replays it (see ClusterWith).
	candBIC []float64
	candRng []xrand.Rand
}

// NewScratch returns an empty Scratch; ClusterWith sizes it on first use.
func NewScratch() *Scratch { return &Scratch{} }

func growSlice[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

func (s *Scratch) grow(n, dim, maxK int) {
	s.cent = growSlice(s.cent, maxK*dim)
	s.assign = growSlice(s.assign, n)
	s.counts = growSlice(s.counts, maxK)
	s.minDist = growSlice(s.minDist, n)
	s.upper = growSlice(s.upper, n)
	s.lower = growSlice(s.lower, n*maxK)
	s.half = growSlice(s.half, maxK*maxK)
	s.halfNear = growSlice(s.halfNear, maxK)
	s.shift = growSlice(s.shift, maxK)
	s.prev = growSlice(s.prev, maxK*dim)
	s.candBIC = growSlice(s.candBIC, maxK)
	s.candRng = growSlice(s.candRng, maxK)
}

var scratchPool = sync.Pool{New: func() any { return &Scratch{} }}

// prunes reports whether a distance known to be at least lo is provably
// larger than one known to be at most u, with the rounding slack tol on
// both sides. Equality never prunes.
//
//bp:noalloc
func prunes(u, lo, tol float64) bool { return u+tol < lo-tol }

// pruneSlack is the absolute slack prunes demands when every distance
// the bounds involve is at most scale (see kmeansOnce). Above 1e150 the
// squares could overflow and pruning is off; the 1e-150 floor covers
// squares that fall to subnormals, whose rounding error is absolute
// rather than relative.
//
//bp:noalloc
func pruneSlack(scale float64) float64 {
	if !(scale <= 1e150) {
		return math.Inf(1)
	}
	return 1e-9*scale + 1e-150
}

// kmeansOnce runs one seeded k-means++ / Lloyd pass into s.assign and
// s.cent[:k*dim] and returns the distortion (sum of squared distances).
//
// The result is bit-identical to plain Lloyd iterations (the oracle in
// simpoint_test.go): the same assignments with the lowest-index
// tie-break, the same centroids and the same rng draws. Distances that
// provably cannot change an assignment are skipped by the triangle
// inequality (Elkan, ICML 2003):
//
//   - Seeding is the first Lloyd pass. k-means++ keeps each point's
//     running minimum over the same sqDist values, compared with the same
//     strict < in seed order, so its nearest-seed index is exactly that
//     pass's assignment.
//   - A new seed c is skipped for point i when c lies more than twice
//     √minDist[i] from i's nearest seed: then minDist[i] cannot drop, and
//     d(c, seed) − √minDist[i] is kept as a lower bound instead.
//   - Later passes keep, per point, an upper bound u on the distance to
//     its centroid a and a lower bound l[c] on the distance to every
//     centroid, both moved by each centroid's shift after an update. A
//     point is skipped when u is below half the distance from a to its
//     nearest other centroid, a centroid c when u < l[c] or
//     u < d(a,c)/2. Every other centroid gets the exact sqDist, compared
//     in (distance, index) order starting from a.
//
// Rounding: a skip needs the bounds apart by 2·tol, never equal, so a
// skipped centroid's computed sqDist is strictly larger than the kept
// one's and could not have won even a tie. Every distance the bounds
// involve is at most scale: twice the largest distance from the first
// seed to a point or (after updates) to a centroid. sqDist's relative
// error is about dim·2⁻⁵³ and every sqrt, halving and bound update adds
// a few 2⁻⁵³·scale (upper bounds only grow while skipped, lower bounds
// are clamped at zero), so after any number of iterations far below
// 10⁶ the error in a bound stays well under tol = 1e-9·scale. Vectors
// are assumed finite.
//
// Stale scratch contents never leak into the result: seeding overwrites
// cent, minDist, assign and every bound, the centroid distances are
// recomputed after each update, and counts are zeroed before
// accumulation.
//
//bp:noalloc
func (s *Scratch) kmeansOnce(points []Point, k, dim int, rng *xrand.Rand, maxIter int) float64 {
	n := len(points)
	cent := s.cent[:k*dim]
	prev := s.prev[:k*dim]
	assign := s.assign[:n]
	counts := s.counts[:k]
	minDist := s.minDist[:n]
	upper := s.upper[:n]
	lower := s.lower[:n*k] // point i's bounds at [i*k:(i+1)*k]
	half := s.half[:k*k]   // half the distance between centroids c and o at c*k+o
	halfNear := s.halfNear[:k]
	shift := s.shift[:k]

	// k-means++ seeding.
	first := rng.Intn(n)
	p0 := points[first].Vec
	copy(cent[:dim], p0)
	var maxD float64
	for i := range minDist {
		d := sqDist(points[i].Vec, cent[:dim])
		minDist[i], assign[i] = d, 0
		upper[i] = math.Sqrt(d)
		lower[i*k] = upper[i]
		if d > maxD {
			maxD = d
		}
	}
	scale := 2 * math.Sqrt(maxD)
	tol := pruneSlack(scale)
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
		// While seeding, half[j] is half the distance from seed j to c.
		for j := 0; j < nc; j++ {
			half[j] = math.Sqrt(sqDist(cent[j*dim:(j+1)*dim], c)) / 2
		}
		for i := range minDist {
			u, h := upper[i], half[assign[i]]
			if prunes(u, h, tol) {
				lower[i*k+nc] = 2*h - u
				continue
			}
			d := sqDist(points[i].Vec, c)
			lower[i*k+nc] = math.Sqrt(d)
			if d < minDist[i] {
				minDist[i], upper[i], assign[i] = d, lower[i*k+nc], nc
			}
		}
	}

	for iter := 0; iter < maxIter; iter++ {
		if iter > 0 {
			// Move the bounds by how far each centroid moved in the
			// update, then measure the new centroid separations.
			for c := 0; c < k; c++ {
				row := cent[c*dim : (c+1)*dim]
				shift[c] = math.Sqrt(sqDist(prev[c*dim:(c+1)*dim], row))
				if r := 2 * math.Sqrt(sqDist(p0, row)); r > scale {
					scale = r
				}
				halfNear[c] = math.Inf(1)
			}
			tol = pruneSlack(scale)
			for i, a := range assign {
				upper[i] += shift[a]
				lo := lower[i*k : (i+1)*k]
				for c, sh := range shift {
					if v := lo[c] - sh; v > 0 {
						lo[c] = v
					} else {
						lo[c] = 0
					}
				}
			}
			for c := 0; c < k; c++ {
				for o := c + 1; o < k; o++ {
					h := math.Sqrt(sqDist(cent[c*dim:(c+1)*dim], cent[o*dim:(o+1)*dim])) / 2
					half[c*k+o], half[o*k+c] = h, h
					if h < halfNear[c] {
						halfNear[c] = h
					}
					if h < halfNear[o] {
						halfNear[o] = h
					}
				}
			}

			// Assignment pass over the centroids the bounds cannot rule out.
			changed := false
			for i, a := range assign {
				u := upper[i]
				if prunes(u, halfNear[a], tol) {
					continue
				}
				x := points[i].Vec
				lo := lower[i*k : (i+1)*k]
				best, bestD, tight := a, 0.0, false
				for c := 0; c < k; c++ {
					if c == a || prunes(u, lo[c], tol) || prunes(u, half[best*k+c], tol) {
						continue
					}
					if !tight {
						// best is still a: make u exact and test again.
						bestD = sqDist(x, cent[a*dim:(a+1)*dim])
						u, tight = math.Sqrt(bestD), true
						lo[a] = u
						if prunes(u, lo[c], tol) || prunes(u, half[a*k+c], tol) {
							continue
						}
					}
					d := sqDist(x, cent[c*dim:(c+1)*dim])
					lo[c] = math.Sqrt(d)
					if d < bestD || d == bestD && c < best {
						best, bestD, u = c, d, lo[c]
					}
				}
				upper[i] = u
				if best != a {
					assign[i] = best
					changed = true
				}
			}
			if !changed {
				break
			}
		}
		copy(prev, cent)
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
			start := *rng
			distortion := s.kmeansOnce(points, k, dim, rng, cfg.MaxIterations)
			score := bic(points, s.assign[:n], k, dim, distortion, s.counts)
			if !bestSet || score > s.candBIC[k-1] {
				bestSet = true
				s.candBIC[k-1] = score
				s.candRng[k-1] = start
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
	// kmeansOnce is a function of its inputs and the rng state alone, so
	// replaying the chosen restart from its saved state reproduces its
	// assignment and centroids; storing every k's would hold maxK*n ints.
	replay := s.candRng[chosen-1]
	s.kmeansOnce(points, chosen, dim, &replay, cfg.MaxIterations)
	return buildResult(points, chosen, dim, s.assign[:n], s.cent[:chosen*dim], s.candBIC[chosen-1]), nil
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

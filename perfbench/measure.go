package main

import (
	"bufio"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"

	"barrierpoint/internal/sigvec"
)

// phase collects what one measured phase of a workload observed: one
// sample per completed study, failures, report digests and the layer
// figures the traced run adds. Workload clients record into it
// concurrently.
type phase struct {
	seed   uint64
	traced bool
	// limit is the measured phase's length; workloads stop issuing new
	// batches once it has passed (see batchFits).
	limit time.Duration
	start time.Time
	// minBatches is how many batches the phase runs whatever its limit.
	minBatches int
	// wall and cpu are the phase's elapsed and process CPU seconds,
	// rssMB its median per-window resident-set peak over the first
	// minBatches batches (a fixed amount of work, so a faster program
	// that fits more batches, and caches more, does not read as a
	// memory regression).
	wall, cpu, rssMB float64
	rss              *rssSampler

	mu        sync.Mutex
	samples   []float64
	attempted int
	failed    int
	problems  []string
	errCyc    float64
	errInstr  float64
	// reports maps a study's digest key to the SHA-256 of the first
	// report seen for it; a later report for the same key must match.
	reports map[string]string
	// layers holds measured-phase per-layer figures (traced runs only).
	layers map[string]float64
}

func newPhase(seed uint64, limit time.Duration, minBatches int, traced bool) *phase {
	return &phase{
		seed: seed, traced: traced, limit: limit, minBatches: minBatches, start: time.Now(),
		rss: startRSS(), reports: map[string]string{}, layers: map[string]float64{},
	}
}

// stopRSS ends the phase's resident-set sampling; later calls do nothing.
func (p *phase) stopRSS() {
	if p.rss != nil {
		p.rssMB = p.rss.finish()
		p.rss = nil
	}
}

// batchFits reports whether another batch may start, given how many
// have run and how long the last one took. The phase runs at least
// minBatches batches; beyond that it keeps going until its limit has
// passed, but does not start a batch predicted to overrun it by more
// than half.
func (p *phase) batchFits(done int, last time.Duration) bool {
	if done < p.minBatches {
		return true
	}
	p.stopRSS()
	el := time.Since(p.start)
	return el < p.limit && el+last <= p.limit*3/2
}

// record books one completed study: its submit-to-report seconds, its
// report bytes (digest-checked) and its best-set estimation errors.
func (p *phase) record(key string, secs float64, report []byte, errCyc, errInstr float64) {
	sum := sha256.Sum256(report)
	digest := hex.EncodeToString(sum[:])
	p.mu.Lock()
	defer p.mu.Unlock()
	p.attempted++
	if prev, ok := p.reports[key]; ok && prev != digest {
		p.failed++
		p.problems = append(p.problems, fmt.Sprintf("report for %s differs from its first copy", key))
		return
	}
	p.reports[key] = digest
	if want, ok := frozenDigest(p.seed, key); ok && want != digest {
		p.failed++
		p.problems = append(p.problems, fmt.Sprintf("report for %s does not match its committed digest", key))
		return
	}
	p.samples = append(p.samples, secs)
	p.errCyc = math.Max(p.errCyc, errCyc)
	p.errInstr = math.Max(p.errInstr, errInstr)
}

// fail books one attempted study that failed or was refused.
func (p *phase) fail(format string, args ...any) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.attempted++
	p.failed++
	p.problems = append(p.problems, fmt.Sprintf(format, args...))
}

// flag records a problem that invalidates the run without failing a
// particular study (a fleet that fell back to local execution, a count
// that does not repeat).
func (p *phase) flag(format string, args ...any) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.problems = append(p.problems, fmt.Sprintf(format, args...))
}

func (p *phase) setLayer(name string, v float64) {
	p.mu.Lock()
	p.layers[name] = v
	p.mu.Unlock()
}

func (p *phase) addLayer(name string, v float64) {
	p.mu.Lock()
	p.layers[name] += v
	p.mu.Unlock()
}

// median returns the middle of xs (the mean of the middle two for even
// lengths); xs is sorted in place.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// tail returns the highest percentile of xs with at least ten samples
// above it, the percentile it used and whether it used one. With fewer
// than 21 samples that percentile would not be above the median, and
// tail falls back to the maximum.
func tail(xs []float64) (v, pct float64, ok bool) {
	sort.Float64s(xs)
	n := len(xs)
	if n < 21 {
		return xs[n-1], 100, false
	}
	i := n - 11
	return xs[i], 100 * float64(i) / float64(n-1), true
}

// cpuSeconds returns the process's user+system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// rssWindow is the window of the resident-set sampler.
const rssWindow = time.Second

// rssSampler records the process's resident-set high-water mark once per
// window of a measured phase, resetting the mark after each read. The
// maximum over a whole run swings with where garbage collections fall;
// the median over windows is steady and still moves with what the
// process keeps resident.
type rssSampler struct {
	stop, done chan struct{}
	peaks      []float64 // MB
}

func startRSS() *rssSampler {
	s := &rssSampler{stop: make(chan struct{}), done: make(chan struct{})}
	resetHWM()
	go func() {
		defer close(s.done)
		t := time.NewTicker(rssWindow)
		defer t.Stop()
		for {
			select {
			case <-s.stop:
				s.sample()
				return
			case <-t.C:
				s.sample()
			}
		}
	}()
	return s
}

func (s *rssSampler) sample() {
	if mb, ok := readHWM(); ok {
		s.peaks = append(s.peaks, mb)
		resetHWM()
	}
}

// finish stops the sampler and returns the median window peak. Where
// the kernel offers no per-window mark it falls back to the process's
// lifetime high-water mark.
func (s *rssSampler) finish() float64 {
	close(s.stop)
	<-s.done
	if len(s.peaks) == 0 {
		var ru syscall.Rusage
		if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
			return math.NaN()
		}
		return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
	}
	return median(append([]float64(nil), s.peaks...))
}

// readHWM returns VmHWM from /proc/self/status in MB.
func readHWM() (float64, bool) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, false
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kb float64
			if _, err := fmt.Sscanf(strings.TrimSpace(v), "%g kB", &kb); err != nil {
				return 0, false
			}
			return kb / 1024, true
		}
	}
	return 0, false
}

// resetHWM resets VmHWM to the current resident set. Where the kernel
// refuses, VmHWM stays the lifetime mark, which only makes windows read
// high; the error carries nothing else.
func resetHWM() { _ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) }

// host is the metadata printed beside every result, so runs from
// different machines, Go versions or projection kernels are never read
// as one series.
type host struct {
	CPU        string `json:"cpu"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go"`
	Kernel     string `json:"sigvec_kernel"`
	PureGo     string `json:"bp_purego,omitempty"`
}

func hostInfo() host {
	h := host{
		CPU:        "unknown",
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Kernel:     sigvec.Kernel(),
		PureGo:     os.Getenv("BP_PUREGO"),
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	return h
}

// frozen is the committed correctness reference: report digests and
// deterministic layer counts for the default seed.
type frozen struct {
	Seed    uint64                        `json:"seed"`
	Reports map[string]string             `json:"reports"`
	Counts  map[string]map[string]float64 `json:"counts"`
}

//go:embed digests.json
var frozenJSON []byte

var frozenRef = func() frozen {
	var f frozen
	if err := json.Unmarshal(frozenJSON, &f); err != nil {
		panic(fmt.Sprintf("perfbench: digests.json: %v", err))
	}
	return f
}()

func frozenDigest(seed uint64, key string) (string, bool) {
	if seed != frozenRef.Seed {
		return "", false
	}
	d, ok := frozenRef.Reports[key]
	return d, ok
}

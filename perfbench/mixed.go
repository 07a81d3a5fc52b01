package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"barrierpoint/internal/sched"
	"barrierpoint/internal/service"
	"barrierpoint/internal/xrand"
)

// serviceMixed is a closed loop of two HTTP clients against an
// in-process bpserved with a fresh persistent cache directory. Each
// client submits POST /studies, long-polls the status until the study
// is done, fetches /report and submits its next study. Two submissions
// in three are new: a client's new studies cycle through mixedConfigs
// (the second client half a cycle ahead) with fresh seeds; they compute
// and then write through the result cache to the store. Every
// third submission repeats a seeded pick of the client's earlier
// studies: a cache read, whose report must be byte-identical to the
// first.
type serviceMixed struct {
	svc    *service.Server
	srv    *server
	before scrape

	mu       sync.Mutex
	timings  map[string]float64 // client-side service.* seconds, summed
	rejected int
}

func newServiceMixed() workload { return &serviceMixed{} }

// mixedConfigs is {MCB, graph500, HPCG, CoMD} × threads {2, 8}, each with
// small runs/reps; every runs × reps pair occurs twice.
var mixedConfigs = []service.SubmitRequest{
	{App: "MCB", Threads: 2, Runs: 2, Reps: 3},
	{App: "MCB", Threads: 8, Runs: 2, Reps: 5},
	{App: "graph500", Threads: 2, Runs: 3, Reps: 3},
	{App: "graph500", Threads: 8, Runs: 3, Reps: 5},
	{App: "HPCG", Threads: 2, Runs: 2, Reps: 5},
	{App: "HPCG", Threads: 8, Runs: 2, Reps: 3},
	{App: "CoMD", Threads: 2, Runs: 3, Reps: 5},
	{App: "CoMD", Threads: 8, Runs: 3, Reps: 3},
}

var (
	mixedApps    = []string{"MCB", "graph500", "HPCG", "CoMD"}
	mixedThreads = []int{2, 8}
)

const (
	mixedClients = 2
	// mixedRepeatEvery makes every third submission a repeat.
	mixedRepeatEvery = 3
)

func (w *serviceMixed) setup(ctx context.Context, dir string) (int, float64, error) {
	builds, secs, err := buildPrograms(appsNamed(mixedApps), mixedThreads)
	if err != nil {
		return builds, secs, err
	}
	w.timings = map[string]float64{}
	w.svc, err = service.New(service.Config{
		Executors: mixedClients,
		CacheDir:  filepath.Join(dir, "cache"),
		Log:       quietLog,
	})
	if err != nil {
		return builds, secs, err
	}
	if w.srv, err = listen(w.svc.Handler()); err != nil {
		return builds, secs, err
	}
	hctx, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	return builds, secs, waitHealthy(hctx, w.srv.url+"/healthz")
}

// mixer generates one client's submissions.
type mixer struct {
	rng     *xrand.Rand
	offset  int                     // the client's starting position in mixedConfigs
	n       int                     // submissions generated
	history []service.SubmitRequest // new studies, in order
}

func newMixer(seed uint64, client int) *mixer {
	return &mixer{
		rng:    xrand.Derive(seed, fmt.Sprintf("service-mixed/client-%d", client)),
		offset: client * len(mixedConfigs) / mixedClients,
	}
}

// next returns the next submission and whether it repeats an earlier one.
func (m *mixer) next() (service.SubmitRequest, bool) {
	m.n++
	if m.n%mixedRepeatEvery == 0 {
		return m.history[m.rng.Intn(len(m.history))], true
	}
	r := mixedConfigs[(m.offset+len(m.history))%len(mixedConfigs)]
	r.Seed = m.rng.Uint64() % 1_000_000
	m.history = append(m.history, r)
	return r, false
}

// batch is every client's first round of new studies, one per config.
func (w *serviceMixed) batch(seed uint64) []sched.StudyRequest {
	var out []service.SubmitRequest
	for c := 0; c < mixedClients; c++ {
		m := newMixer(seed, c)
		for len(m.history) < len(mixedConfigs) {
			if r, repeat := m.next(); !repeat {
				out = append(out, r)
			}
		}
	}
	return studyRequests(out)
}

// probes is one round of new studies: every config's program with its
// own discovery runs and one collection per ISA.
func (w *serviceMixed) probes() []probeSpec {
	var out []probeSpec
	for _, c := range mixedConfigs {
		a := appsNamed([]string{c.App})[0]
		out = append(out, probeSpec{app: a, threads: c.Threads, runs: c.Runs, collections: 1})
	}
	return out
}

func (w *serviceMixed) run(ctx context.Context, ph *phase) error {
	var err error
	if ph.traced {
		if w.before, err = scrapeMetrics(ctx, w.srv.url); err != nil {
			return err
		}
	}
	var wg sync.WaitGroup
	errs := make([]error, mixedClients)
	for c := 0; c < mixedClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			m := newMixer(ph.seed, c)
			for time.Since(ph.start) < ph.limit && errs[c] == nil {
				r, _ := m.next()
				errs[c] = w.submit(ctx, ph, r)
			}
		}()
	}
	wg.Wait()
	return firstErr(errs...)
}

// submit runs one study through the service: submit, long-poll until it
// is terminal, fetch its report.
func (w *serviceMixed) submit(ctx context.Context, ph *phase, r service.SubmitRequest) error {
	body := []byte(mustJSON(r))
	t0 := time.Now()
	code, resp, err := call(ctx, http.MethodPost, w.srv.url+"/studies", body)
	if err != nil {
		return err
	}
	submitted := time.Now()
	if code != http.StatusAccepted {
		w.mu.Lock()
		w.rejected++
		w.mu.Unlock()
		ph.fail("%s: submission refused: %d %s", studyKey("http", studyRequest(r)), code, resp)
		return nil
	}
	var st service.JobStatus
	if err := json.Unmarshal(resp, &st); err != nil {
		return err
	}
	for !terminal(st.State) {
		url := fmt.Sprintf("%s/studies/%s?wait=60s&since=%d", w.srv.url, st.ID, st.Version)
		if err := getJSON(ctx, url, &st); err != nil {
			return err
		}
	}
	seen := time.Now()
	fetchReport(ctx, ph, w.srv.url, st, t0)
	if ph.traced {
		w.mu.Lock()
		defer w.mu.Unlock()
		w.timings["service.submit_s"] += submitted.Sub(t0).Seconds()
		w.timings["service.report_s"] += time.Since(seen).Seconds()
		if st.StartedAt != nil && st.FinishedAt != nil {
			w.timings["service.queue_wait_s"] += st.StartedAt.Sub(st.SubmittedAt).Seconds()
			w.timings["service.run_s"] += st.FinishedAt.Sub(*st.StartedAt).Seconds()
			w.timings["service.notify_lag_s"] += seen.Sub(*st.FinishedAt).Seconds()
		}
	}
	return nil
}

func (w *serviceMixed) layers(ctx context.Context, ph *phase) error {
	after, err := scrapeMetrics(ctx, w.srv.url)
	if err != nil {
		return err
	}
	var h service.Health
	if err := getJSON(ctx, w.srv.url+"/healthz", &h); err != nil {
		return err
	}
	studies := float64(len(ph.samples))
	w.mu.Lock()
	for k, v := range w.timings {
		ph.setLayer(k, v/studies)
	}
	ph.setLayer("service.rejected", float64(w.rejected))
	w.mu.Unlock()
	ph.setLayer("service.http_requests", delta(w.before, after, "bp_http_request_seconds_count"))
	units := 0.0
	for _, k := range unitKinds {
		label := fmt.Sprintf(`kind="%s"`, k.kind)
		s := delta(w.before, after, "bp_sched_unit_seconds_sum", label)
		units += s
		ph.setLayer("sched.unit_s."+k.unit, s/studies)
		if n := delta(w.before, after, "bp_sched_unit_seconds_count", label); n > 0 {
			ph.setLayer("core."+k.core+"_s", s/n)
		}
	}
	// Each of the service's executors runs its study on GOMAXPROCS unit
	// workers.
	ph.setLayer("sched.busy_frac", units/(ph.wall*float64(mixedClients*runtime.GOMAXPROCS(0))))
	cacheLayers(ph, h)
	return nil
}

func (w *serviceMixed) close() {
	w.srv.close()
	if w.svc != nil {
		w.svc.Close()
	}
}

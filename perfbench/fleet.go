package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"time"

	"barrierpoint/internal/apps"
	"barrierpoint/internal/core"
	"barrierpoint/internal/sched"
	"barrierpoint/internal/service"
	"barrierpoint/internal/xrand"
)

// sweepFleet submits repeated POST /studies:batch sweeps to an in-process
// coordinator that dispatches every unit to two in-process bpworker
// handlers on loopback. Each sweep crosses {MCB, graph500, HPCG} ×
// threads {2, 8} × reps {5, 10, 20, 40} at 3 discovery runs, with one seed
// per sweep. The coordinator runs nproc units at a time and each worker
// accepts one, so no more than nproc units are ever in flight.
type sweepFleet struct {
	workers []*service.Worker
	wsrv    []*server
	svc     *service.Server
	coord   *server
	// before is the daemons' metrics at the start of the measured phase.
	before, wbefore scrape
}

func newSweepFleet() workload { return &sweepFleet{} }

var (
	fleetApps    = []string{"MCB", "graph500", "HPCG"}
	fleetThreads = []int{2, 8}
	fleetReps    = []int{5, 10, 20, 40}
)

const (
	fleetRuns    = 3
	fleetWorkers = 2
)

func appsNamed(names []string) []*apps.App {
	var out []*apps.App
	for _, n := range names {
		a, err := apps.ByName(n)
		if err != nil {
			panic(err)
		}
		out = append(out, a)
	}
	return out
}

func (w *sweepFleet) setup(ctx context.Context, dir string) (int, float64, error) {
	builds, secs, err := buildPrograms(appsNamed(fleetApps), fleetThreads)
	if err != nil {
		return builds, secs, err
	}
	var urls []string
	for i := 0; i < fleetWorkers; i++ {
		wk, err := service.NewWorker(service.WorkerConfig{MaxInflight: 1, Log: quietLog})
		if err != nil {
			return builds, secs, err
		}
		w.workers = append(w.workers, wk)
		s, err := listen(wk.Handler())
		if err != nil {
			return builds, secs, err
		}
		w.wsrv = append(w.wsrv, s)
		urls = append(urls, s.url)
	}
	w.svc, err = service.New(service.Config{
		Workers:        runtime.GOMAXPROCS(0),
		Executors:      1,
		WorkerURLs:     urls,
		WorkerInflight: 1,
		Log:            quietLog,
	})
	if err != nil {
		return builds, secs, err
	}
	if w.coord, err = listen(w.svc.Handler()); err != nil {
		return builds, secs, err
	}
	hctx, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	for _, u := range append(urls, w.coord.url) {
		if err := waitHealthy(hctx, u+"/healthz"); err != nil {
			return builds, secs, err
		}
	}
	var h service.Health
	if err := getJSON(hctx, w.coord.url+"/healthz", &h); err != nil {
		return builds, secs, err
	}
	if h.Distributed == nil || len(h.Distributed.Workers) != fleetWorkers {
		return builds, secs, fmt.Errorf("coordinator does not report a %d-worker fleet", fleetWorkers)
	}
	for _, wh := range h.Distributed.Workers {
		if !wh.Healthy {
			return builds, secs, fmt.Errorf("worker %s unhealthy", wh.URL)
		}
	}
	return builds, secs, nil
}

// sweep returns sweep i's member requests.
func (w *sweepFleet) sweep(seed uint64, i int) []service.SubmitRequest {
	s := xrand.Derive(seed, fmt.Sprintf("sweep-fleet/sweep-%d", i)).Uint64() % 1_000_000
	var out []service.SubmitRequest
	for _, a := range fleetApps {
		for _, t := range fleetThreads {
			for _, r := range fleetReps {
				out = append(out, service.SubmitRequest{App: a, Threads: t, Runs: fleetRuns, Reps: r, Seed: s})
			}
		}
	}
	return out
}

func (w *sweepFleet) batch(seed uint64) []sched.StudyRequest { return studyRequests(w.sweep(seed, 0)) }

func (w *sweepFleet) probes() []probeSpec {
	var out []probeSpec
	for _, a := range appsNamed(fleetApps) {
		for _, t := range fleetThreads {
			out = append(out, probeSpec{app: a, threads: t, runs: fleetRuns, collections: len(fleetReps)})
		}
	}
	return out
}

func (w *sweepFleet) run(ctx context.Context, ph *phase) error {
	var err error
	if ph.traced {
		if w.before, w.wbefore, err = w.scrapeAll(ctx); err != nil {
			return err
		}
	}
	var last time.Duration
	for i := 0; ph.batchFits(i, last); i++ {
		t0 := time.Now()
		if err := w.runSweep(ctx, ph, w.sweep(ph.seed, i)); err != nil {
			return err
		}
		last = time.Since(t0)
	}
	// A fleet that retried or fell back to local execution measured the
	// local path: the run is flagged, not recorded.
	var h service.Health
	if err := getJSON(ctx, w.coord.url+"/healthz", &h); err != nil {
		return err
	}
	if d := h.Distributed; d == nil || d.Retries > 0 || d.LocalFallbacks > 0 {
		ph.flag("fleet retried or fell back to local execution (/healthz distributed: %s)", mustJSON(d))
	}
	return nil
}

// runSweep submits one sweep and long-polls it, fetching each member's
// report as soon as the member is done.
func (w *sweepFleet) runSweep(ctx context.Context, ph *phase, members []service.SubmitRequest) error {
	body := []byte(mustJSON(service.BatchRequest{Studies: members}))
	t0 := time.Now()
	code, resp, err := call(ctx, http.MethodPost, w.coord.url+"/studies:batch", body)
	if err != nil {
		return err
	}
	if code != http.StatusAccepted {
		for range members {
			ph.fail("sweep refused: %d %s", code, resp)
		}
		return nil
	}
	var st service.SweepStatus
	if err := json.Unmarshal(resp, &st); err != nil {
		return err
	}
	seen := map[string]bool{}
	for {
		for _, m := range st.Studies {
			if seen[m.ID] || !terminal(m.State) {
				continue
			}
			seen[m.ID] = true
			fetchReport(ctx, ph, w.coord.url, m, t0)
		}
		if terminal(st.State) {
			// A finished sweep's members are all terminal; any that are
			// not would never be reported.
			for _, m := range st.Studies {
				if !seen[m.ID] {
					ph.fail("%s: sweep %s %s with the study %s", m.ID, st.ID, st.State, m.State)
				}
			}
			return nil
		}
		url := fmt.Sprintf("%s/sweeps/%s?wait=60s&since=%d", w.coord.url, st.ID, st.Version)
		if err := getJSON(ctx, url, &st); err != nil {
			return err
		}
	}
}

// fetchReport books one terminal study: a done study's report is
// fetched, digest-checked and timed from t0 (its submission); any other
// terminal state is a failure.
func fetchReport(ctx context.Context, ph *phase, base string, st service.JobStatus, t0 time.Time) {
	key := studyKey("http", studyRequest(st.Request))
	if st.State != service.StateDone {
		ph.fail("%s: %s: %s", key, st.State, st.Error)
		return
	}
	code, report, err := call(ctx, http.MethodGet, base+"/studies/"+st.ID+"/report", nil)
	if err != nil || code != http.StatusOK {
		ph.fail("%s: report: %d %v", key, code, err)
		return
	}
	errCyc, errInstr := summaryErrors(st.Summary)
	ph.record(key, time.Since(t0).Seconds(), report, errCyc, errInstr)
}

func terminal(st service.State) bool {
	return st == service.StateDone || st == service.StateFailed || st == service.StateCancelled
}

func studyRequest(r service.SubmitRequest) sched.StudyRequest {
	a, err := apps.ByName(r.App)
	if err != nil {
		panic(err)
	}
	return sched.StudyRequest{App: r.App, Build: a.Build, Config: core.StudyConfig{
		Threads: r.Threads, Vectorised: r.Vectorised, Runs: r.Runs, Reps: r.Reps, Seed: r.Seed, MaxK: r.MaxK,
	}}
}

func studyRequests(rs []service.SubmitRequest) []sched.StudyRequest {
	out := make([]sched.StudyRequest, len(rs))
	for i, r := range rs {
		out[i] = studyRequest(r)
	}
	return out
}

// summaryErrors is bestErrors for a study's wire summary.
func summaryErrors(s *core.Summary) (cyc, instr float64) {
	if s == nil {
		return 0, 0
	}
	for _, v := range []*core.ValidationSummary{s.BestSet.X86, s.BestSet.ARM} {
		if v == nil {
			continue
		}
		cyc = max(cyc, v.ErrCyclesPct)
		instr = max(instr, v.ErrInstructionsPct)
	}
	return cyc, instr
}

// scrapeAll snapshots the coordinator's and the workers' metrics (the
// workers' summed).
func (w *sweepFleet) scrapeAll(ctx context.Context) (coord, workers scrape, err error) {
	if coord, err = scrapeMetrics(ctx, w.coord.url); err != nil {
		return nil, nil, err
	}
	workers = scrape{}
	for i, s := range w.wsrv {
		ws, err := scrapeMetrics(ctx, s.url)
		if err != nil {
			return nil, nil, err
		}
		for k, v := range ws {
			workers[fmt.Sprintf("%s#%d", k, i)] = v
		}
	}
	return coord, workers, nil
}

func (w *sweepFleet) layers(ctx context.Context, ph *phase) error {
	after, wafter, err := w.scrapeAll(ctx)
	if err != nil {
		return err
	}
	var h service.Health
	if err := getJSON(ctx, w.coord.url+"/healthz", &h); err != nil {
		return err
	}
	studies := float64(len(ph.samples))
	coordUnits, workerUnits := 0.0, 0.0
	for _, k := range unitKinds {
		label := fmt.Sprintf(`kind="%s"`, k.kind)
		cs := delta(w.before, after, "bp_sched_unit_seconds_sum", label)
		coordUnits += cs
		ph.setLayer("sched.unit_s."+k.unit, cs/studies)
		ws := delta(w.wbefore, wafter, "bp_sched_unit_seconds_sum", label)
		workerUnits += ws
		if n := delta(w.wbefore, wafter, "bp_sched_unit_seconds_count", label); n > 0 {
			ph.setLayer("core."+k.core+"_s", ws/n)
		}
	}
	ph.setLayer("sched.busy_frac", coordUnits/(ph.wall*float64(runtime.GOMAXPROCS(0))))
	ph.setLayer("sched.dispatch_s", delta(w.before, after, "bp_dispatch_seconds_sum")/studies)
	ph.setLayer("sched.remote_overhead_s", (coordUnits-workerUnits)/studies)
	ph.setLayer("sched.remote_units", float64(h.Distributed.RemoteUnits))
	ph.setLayer("sched.retries", float64(h.Distributed.Retries))
	ph.setLayer("sched.fallbacks", float64(h.Distributed.LocalFallbacks))
	ph.setLayer("service.worker_busy_rejects", delta(w.wbefore, wafter, "bp_worker_busy_total"))
	ph.setLayer("service.http_requests", delta(w.before, after, "bp_http_request_seconds_count"))
	cacheLayers(ph, h)
	return nil
}

// cacheLayers books a daemon's result-cache and persistent-store
// counters from its /healthz.
func cacheLayers(ph *phase, h service.Health) {
	c := h.Cache
	ph.setLayer("resultcache.hits", float64(c.Hits))
	ph.setLayer("resultcache.misses", float64(c.Misses))
	ph.setLayer("resultcache.bytes", float64(c.Bytes))
	ph.setLayer("cachestore.spills", float64(c.Spills))
	ph.setLayer("cachestore.spill_errors", float64(c.SpillErrors))
	if c.Disk != nil {
		ph.setLayer("cachestore.writes", float64(c.Disk.Writes))
	}
}

func (w *sweepFleet) close() {
	w.coord.close()
	if w.svc != nil {
		w.svc.Close()
	}
	for _, s := range w.wsrv {
		s.close()
	}
	for _, wk := range w.workers {
		wk.Close()
	}
}

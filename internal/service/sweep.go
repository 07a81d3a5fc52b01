package service

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"barrierpoint/internal/apps"
	"barrierpoint/internal/core"
	"barrierpoint/internal/obs"
	"barrierpoint/internal/sched"
)

// BatchRequest is the POST /studies:batch body: a whole experiment sweep
// submitted as one unit. Priority schedules the sweep as a whole (one
// entry in the priority queue); member studies must leave their own
// priority unset.
type BatchRequest struct {
	Studies  []SubmitRequest `json:"studies"`
	Priority *int            `json:"priority,omitempty"`
}

// SweepStatus is the wire representation of one sweep.
type SweepStatus struct {
	ID       string `json:"id"`
	State    State  `json:"state"`
	Priority int    `json:"priority"`
	// Version increments on every visible change of the sweep or any
	// member (state transitions, member progress); long-pollers pass it
	// back as ?since=.
	Version int64 `json:"version"`

	SubmittedAt time.Time  `json:"submitted_at"`
	StartedAt   *time.Time `json:"started_at,omitempty"`
	FinishedAt  *time.Time `json:"finished_at,omitempty"`

	// Plan is the sweep compiler's dedup/subsumption accounting, set once
	// the sweep starts; PlanSeconds is how long compilation took.
	Plan        *sched.PlanStats `json:"plan,omitempty"`
	PlanSeconds float64          `json:"plan_seconds,omitempty"`

	// Studies snapshots every member job, in submission order.
	Studies []JobStatus `json:"studies,omitempty"`
	// Error explains a failed or cancelled sweep.
	Error string `json:"error,omitempty"`
}

// sweep is the server-side record behind a SweepStatus. members are set
// before the sweep is published and immutable after; the
// embedded lifecycle's mu guards the rest. status holds the sweep's own
// fields; its lifecycle fields are filled from the lifecycle at snapshot.
// Lock ordering: never acquire a member's j.mu while holding sw.mu
// (snapshot members outside the sweep lock).
type sweep struct {
	lifecycle
	members []*job
	status  SweepStatus
	// plan is the executing DAG, set once compilation finishes; member
	// cancellation routes through it.
	plan *sched.SweepPlan
}

// maxSweeps bounds how many sweep records are retained; the oldest
// finished sweeps are pruned past it, like job retention.
const maxSweeps = 256

// registerSweepMetrics creates the sweep transition log and the
// bp_sweep_* metric families.
func (s *Server) registerSweepMetrics() {
	s.sweepLog = transitionLog{
		total: s.reg.CounterVec("bp_sweeps_total",
			"Sweep state transitions, by the state entered.", "state"),
		msg: "sweep transition", idKey: "sweep",
	}
	s.sweepStudies = s.reg.Histogram("bp_sweep_studies",
		"Member studies per submitted sweep.",
		[]float64{1, 2, 4, 8, 16, 32, 64, 128})
	s.sweepPlanSecs = s.reg.Histogram("bp_sweep_plan_seconds",
		"Time the sweep compiler spent planning the merged unit DAG.", nil)
	s.sweepPlanned = s.reg.Counter("bp_sweep_units_planned_total",
		"Units the sweep compiler planned for execution, across all sweeps.")
	s.sweepDeduped = s.reg.Counter("bp_sweep_units_deduped_total",
		"Requested units dropped because an identical unit was already planned in the sweep.")
	s.sweepSubsumed = s.reg.Counter("bp_sweep_units_subsumed_total",
		"Requested discovery units dropped because a sibling study's discovery subsumes them.")
}

// sweepCounts tallies sweeps per state for /healthz; nil until the first
// sweep is submitted so local-only deployments keep their health shape.
func (s *Server) sweepCounts() map[State]int {
	s.mu.Lock()
	sws := make([]*sweep, 0, len(s.sweepOrder))
	for _, id := range s.sweepOrder {
		sws = append(sws, s.sweeps[id])
	}
	s.mu.Unlock()
	if len(sws) == 0 {
		return nil
	}
	counts := map[State]int{
		StateQueued: 0, StateRunning: 0, StateDone: 0, StateFailed: 0, StateCancelled: 0,
	}
	for _, sw := range sws {
		counts[sw.current()]++
	}
	return counts
}

// noteSweep counts and logs one sweep state transition.
func (s *Server) noteSweep(sw *sweep, st State) {
	sw.mu.Lock()
	id, pri := sw.status.ID, sw.status.Priority
	sw.mu.Unlock()
	s.noteTransition(s.sweepLog, &sw.lifecycle, st, id,
		"studies", strconv.Itoa(len(sw.members)), "priority", strconv.Itoa(pri))
}

// finishSweep moves the sweep to its terminal state exactly once and
// logs the transition.
func (s *Server) finishSweep(sw *sweep, st State, err error) {
	at := s.now()
	sw.mu.Lock()
	finished := sw.finishLocked(at, st, err)
	sw.mu.Unlock()
	if finished {
		s.noteSweep(sw, st)
	}
}

// submitSweep validates and enqueues one batch sweep: members register as
// ordinary (queued) jobs and the sweep takes one place in the priority
// queue, so it competes with individual submissions under the same
// banding rules.
func (s *Server) submitSweep(req BatchRequest) (SweepStatus, int, error) {
	if len(req.Studies) == 0 {
		return SweepStatus{}, http.StatusBadRequest,
			errors.New("service: batch needs at least one study")
	}
	if len(req.Studies) > s.maxSweepStudies {
		return SweepStatus{}, http.StatusBadRequest,
			fmt.Errorf("service: batch is limited to %d studies, got %d", s.maxSweepStudies, len(req.Studies))
	}
	pri, err := s.priority(req.Priority)
	if err != nil {
		return SweepStatus{}, http.StatusBadRequest, err
	}
	now := s.now()
	members := make([]*job, len(req.Studies))
	for i, sr := range req.Studies {
		if sr.Priority != nil {
			return SweepStatus{}, http.StatusBadRequest,
				fmt.Errorf("service: study %d: member priority is set by the sweep's priority field", i)
		}
		if _, err := s.validateSubmit(sr); err != nil {
			return SweepStatus{}, http.StatusBadRequest, fmt.Errorf("service: study %d: %w", i, err)
		}
		members[i] = newJob(sr, pri, now)
	}
	sw := &sweep{members: members, status: SweepStatus{Priority: pri}}
	sw.state, sw.submittedAt = StateQueued, now

	// As in submit, IDs are assigned and the response taken while the
	// sweep is still private, and s.mu is held across the push: a
	// rejected batch consumes no IDs and registers nothing.
	s.mu.Lock()
	swID := fmt.Sprintf("sw-%06d", s.nextSweepID+1)
	sw.status.ID = swID
	memberIDs := make([]string, len(members))
	for i, j := range members {
		memberIDs[i] = fmt.Sprintf("s-%06d", s.nextID+1+i)
		j.status.ID = memberIDs[i]
		j.status.Sweep = swID
		j.memberOf, j.memberIdx = sw, i
	}
	status := s.sweepSnapshot(sw)
	if err := s.queue.push(sw, pri); err != nil {
		s.mu.Unlock()
		if errors.Is(err, errQueueFull) {
			err = fmt.Errorf("%w (%d pending)", err, s.queue.len())
		}
		return SweepStatus{}, http.StatusServiceUnavailable, err
	}
	s.nextSweepID++
	s.nextID += len(members)
	for i, id := range memberIDs {
		s.jobs[id] = members[i]
	}
	s.order = append(s.order, memberIDs...)
	s.sweeps[swID] = sw
	s.sweepOrder = append(s.sweepOrder, swID)
	s.order = pruneFinished(s.order, s.jobs, s.maxJobs)
	s.sweepOrder = pruneFinished(s.sweepOrder, s.sweeps, maxSweeps)
	s.mu.Unlock()
	for _, j := range members {
		s.noteJob(j, StateQueued)
	}
	s.noteSweep(sw, StateQueued)
	s.sweepStudies.Observe(float64(len(members)))
	return status, http.StatusAccepted, nil
}

// lookupSweep returns the sweep for an ID.
func (s *Server) lookupSweep(id string) (*sweep, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	sw, ok := s.sweeps[id]
	return sw, ok
}

// sweepSnapshot copies the sweep's status and snapshots every member
// (outside sw.mu — see the lock-ordering note on sweep).
func (s *Server) sweepSnapshot(sw *sweep) SweepStatus {
	sw.mu.Lock()
	st := sw.status
	st.State, st.Version, st.SubmittedAt, st.StartedAt, st.FinishedAt, st.Error = sw.fieldsLocked()
	if st.Plan != nil {
		p := *st.Plan
		st.Plan = &p
	}
	sw.mu.Unlock()
	st.Studies = make([]JobStatus, len(sw.members))
	for i, j := range sw.members {
		st.Studies[i] = j.snapshot()
	}
	return st
}

func (sw *sweep) run(s *Server) { s.runSweep(sw) }

func (sw *sweep) abort(s *Server, err error) { s.abortQueuedSweep(sw, err, err) }

// abortQueuedSweep cancels a sweep that never started (queue drain on
// Close, DELETE before start, or a DELETE that raced with the dequeue):
// every member goes terminal-cancelled with memberErr, then the sweep
// itself with err.
func (s *Server) abortQueuedSweep(sw *sweep, memberErr, err error) {
	sw.requestCancel()
	for _, j := range sw.members {
		s.finishJob(j, StateCancelled, memberErr, nil)
	}
	s.finishSweep(sw, StateCancelled, err)
}

// runSweep drives one dequeued sweep: compile the member studies into the
// merged unit DAG, execute it, and stream member completions into their
// job records. Member failure or cancellation is isolated; the sweep
// itself fails only if a member failed, and cancels only via DELETE or
// server shutdown.
func (s *Server) runSweep(sw *sweep) {
	ctx, cancel := context.WithCancel(s.ctx)
	defer cancel()

	startedAt := s.now()
	sw.mu.Lock()
	started := sw.startLocked(startedAt, cancel)
	id := sw.status.ID
	sw.mu.Unlock()
	if !started {
		s.abortQueuedSweep(sw, errCancelledBeforeStart, context.Canceled)
		return
	}
	s.noteSweep(sw, StateRunning)

	// The sweep root span: the compiler's plan span and every unit below
	// attach as descendants via the context.
	root := s.tracer.StartJob(id).Root("sweep")
	root.SetAttr("studies", strconv.Itoa(len(sw.members)))
	ctx = obs.ContextWithSpan(ctx, root)
	final, finalErr := StateDone, error(nil)
	defer func() {
		root.SetAttr("state", string(final))
		if finalErr != nil {
			root.SetAttr("error", finalErr.Error())
		}
		root.End()
	}()
	// abandon ends a sweep that cannot execute: the sweep and every member
	// take the outcome err classifies to — cancelled when a DELETE or
	// shutdown interrupted compilation, failed otherwise.
	abandon := func(err error) {
		final, finalErr = s.outcome(err, sw.cancelWasRequested()), err
		for _, j := range sw.members {
			s.finishJob(j, final, err, nil)
		}
		s.finishSweep(sw, final, err)
	}

	// Start every not-yet-cancelled member and build its study request.
	// App names were validated at submission, so resolution cannot fail.
	reqs := make([]sched.StudyRequest, len(sw.members))
	for i, j := range sw.members {
		j.mu.Lock()
		req := j.status.Request
		j.mu.Unlock()
		a, err := apps.ByName(req.App)
		if err != nil {
			abandon(err)
			return
		}
		cfg := studyConfig(req)
		reqs[i] = sched.StudyRequest{App: a.Name, Build: a.Build, Config: cfg}
		j.mu.Lock()
		memberStarted := j.startLocked(startedAt, nil)
		if memberStarted {
			j.status.Progress = &Progress{UnitsTotal: sched.StudyUnits(cfg)}
		}
		j.mu.Unlock()
		if memberStarted {
			s.noteJob(j, StateRunning)
		}
	}

	planStart := time.Now()
	plan, err := sched.CompileSweep(ctx, reqs, s.opts)
	if err != nil {
		abandon(err)
		return
	}
	planSeconds := time.Since(planStart).Seconds()
	stats := plan.Stats()
	s.sweepPlanSecs.Observe(planSeconds)
	s.sweepPlanned.Add(uint64(stats.PlannedUnits))
	s.sweepDeduped.Add(uint64(stats.DedupedUnits))
	s.sweepSubsumed.Add(uint64(stats.SubsumedUnits))
	root.SetAttr("naive_units", strconv.Itoa(stats.NaiveUnits))
	root.SetAttr("planned_units", strconv.Itoa(stats.PlannedUnits))
	root.SetAttr("deduped_units", strconv.Itoa(stats.DedupedUnits))
	root.SetAttr("subsumed_units", strconv.Itoa(stats.SubsumedUnits))

	sw.mu.Lock()
	sw.plan = plan
	sw.status.Plan = &stats
	sw.status.PlanSeconds = planSeconds
	sw.bumpLocked()
	sw.mu.Unlock()

	// Members cancelled between submission and plan publication prune
	// now; later DELETEs reach the plan directly through sw.plan.
	for i, j := range sw.members {
		j.mu.Lock()
		cancelled := j.cancelRequested || j.state.terminal()
		j.mu.Unlock()
		if cancelled {
			plan.CancelStudy(i)
		}
	}

	_, execErr := plan.Execute(ctx, sched.SweepOptions{
		OnStudy: func(i int, res *core.StudyResult, err error) {
			s.finishSweepMember(sw, sw.members[i], res, err)
		},
		Progress: func(i, done, total int) {
			sw.members[i].setProgress(done, total)
			sw.bump()
		},
	})

	final, finalErr = s.outcome(execErr, sw.cancelWasRequested()), execErr
	if final == StateDone {
		var memberErr error
		failedMembers := 0
		for _, j := range sw.members {
			j.mu.Lock()
			if j.state == StateFailed {
				failedMembers++
				if memberErr == nil && j.err != "" {
					memberErr = errors.New(j.err)
				}
			}
			j.mu.Unlock()
		}
		if failedMembers > 0 {
			final = StateFailed
			finalErr = fmt.Errorf("service: %d member studies failed, first: %w", failedMembers, memberErr)
		}
	}
	s.finishSweep(sw, final, finalErr)
}

// finishSweepMember records one member outcome streamed out of the
// executing plan, classified exactly as runJob classifies a standalone
// study's outcome.
func (s *Server) finishSweepMember(sw *sweep, j *job, res *core.StudyResult, err error) {
	cancelled := j.cancelWasRequested() || sw.cancelWasRequested()
	if s.finishJob(j, s.outcome(err, cancelled), err, res) {
		sw.bump()
	}
}

// cancelMember cancels one batch-submitted job: the member is pruned from
// the sweep's plan (units only it still needs are skipped as they
// surface) while its siblings keep running.
func (s *Server) cancelMember(j *job) (JobStatus, int, error) {
	sw := j.memberOf
	st := j.requestCancel()
	if code, err := cancelSettled("study", j.snapshot().ID, st); code != 0 {
		return j.snapshot(), code, err
	}
	sw.mu.Lock()
	plan := sw.plan
	sw.mu.Unlock()
	code := http.StatusAccepted
	if st == StateQueued {
		// The sweep has not started this member: terminal immediately,
		// and prune it from the plan if compilation already happened.
		if s.finishJob(j, StateCancelled, errCancelledBeforeStart, nil) {
			sw.bump()
		}
		code = http.StatusOK
	}
	// A running member is finalised by the plan (OnStudy → cancelled),
	// which skips its exclusive units; 202 — poll for "cancelled".
	if plan != nil {
		plan.CancelStudy(j.memberIdx)
	}
	return j.snapshot(), code, nil
}

// cancelSweep cancels a whole sweep, cascading to every member: a
// still-queued sweep is removed from the queue and terminal immediately;
// a running one has its context cancelled and winds down at the next
// unit boundaries.
func (s *Server) cancelSweep(sw *sweep) (SweepStatus, int, error) {
	if s.queue.remove(sw) {
		s.abortQueuedSweep(sw, errCancelledBeforeStart, errCancelledBeforeStart)
		return s.sweepSnapshot(sw), http.StatusOK, nil
	}
	// Queued-but-claimed (an executor popped the sweep but has not
	// started it) is handled by runSweep's start check.
	st := sw.requestCancel()
	if code, err := cancelSettled("sweep", s.sweepSnapshot(sw).ID, st); code != 0 {
		return s.sweepSnapshot(sw), code, err
	}
	return s.sweepSnapshot(sw), http.StatusAccepted, nil
}

func (s *Server) handleBatchSubmit(w http.ResponseWriter, r *http.Request) {
	var req BatchRequest
	if !s.decodeRequest(w, r, "batch submission", &req) {
		return
	}
	status, code, err := s.submitSweep(req)
	if err != nil {
		s.writeError(w, code, err)
		return
	}
	s.writeJSON(w, code, status)
}

func (s *Server) handleSweepList(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	sws := make([]*sweep, 0, len(s.sweepOrder))
	for _, id := range s.sweepOrder {
		sws = append(sws, s.sweeps[id])
	}
	s.mu.Unlock()
	statuses := make([]SweepStatus, 0, len(sws))
	for _, sw := range sws {
		statuses = append(statuses, s.sweepSnapshot(sw))
	}
	s.writeJSON(w, http.StatusOK, statuses)
}

func (s *Server) handleSweepStatus(w http.ResponseWriter, r *http.Request) {
	sw, ok := s.lookupSweep(r.PathValue("id"))
	if !ok {
		s.writeError(w, http.StatusNotFound, fmt.Errorf("service: unknown sweep %q", r.PathValue("id")))
		return
	}
	s.longPoll(w, r, &sw.lifecycle, func() any { return s.sweepSnapshot(sw) })
}

func (s *Server) handleSweepCancel(w http.ResponseWriter, r *http.Request) {
	sw, ok := s.lookupSweep(r.PathValue("id"))
	if !ok {
		s.writeError(w, http.StatusNotFound, fmt.Errorf("service: unknown sweep %q", r.PathValue("id")))
		return
	}
	status, code, err := s.cancelSweep(sw)
	if err != nil {
		s.writeError(w, code, err)
		return
	}
	s.writeJSON(w, code, status)
}

// handleSweepTrace serves the sweep's span tree: the sweep root, the
// compiler's plan span, and every executed unit beneath.
func (s *Server) handleSweepTrace(w http.ResponseWriter, r *http.Request) {
	_, ok := s.lookupSweep(r.PathValue("id"))
	s.serveTrace(w, r, "sweep", ok)
}

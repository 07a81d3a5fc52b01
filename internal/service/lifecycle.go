package service

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"time"

	"barrierpoint/internal/obs"
)

// errCancelledBeforeStart explains a job or sweep cancelled while queued.
var errCancelledBeforeStart = errors.New("service: cancelled before start")

// lifecycle is the state machine jobs and sweeps share: queued → running
// → done/failed, with cancelled reachable from queued (removed before
// start) and running (context cancelled). It counts visible changes in a
// version that long-pollers wait on, and holds the hooks DELETE uses. mu
// guards every field here and the owner's own status fields; the owner's
// wire status takes its lifecycle fields from here (see fieldsLocked).
type lifecycle struct {
	mu          sync.Mutex
	state       State
	version     int64
	submittedAt time.Time
	startedAt   *time.Time
	finishedAt  *time.Time
	err         string
	// changed, when non-nil, is closed at the next visible change; it is
	// allocated lazily by the first long-poller waiting on this record.
	changed chan struct{}
	// cancel aborts the running context; non-nil only while running.
	cancel context.CancelFunc
	// cancelRequested records a DELETE, so the executor can tell a
	// cancelled run apart from one that failed on its own, and skip a
	// record whose cancellation raced with its dequeue.
	cancelRequested bool
}

// bumpLocked records a visible change: the version increments and any
// long-pollers waiting on the previous state wake. Callers hold l.mu.
func (l *lifecycle) bumpLocked() {
	l.version++
	if l.changed != nil {
		close(l.changed)
		l.changed = nil
	}
}

// bump records a visible change made outside the lifecycle fields (a
// sweep member's update, for instance).
func (l *lifecycle) bump() {
	l.mu.Lock()
	l.bumpLocked()
	l.mu.Unlock()
}

// waitChanLocked returns the channel closed at the next visible change.
// Callers hold l.mu.
func (l *lifecycle) waitChanLocked() <-chan struct{} {
	if l.changed == nil {
		l.changed = make(chan struct{})
	}
	return l.changed
}

// current reads just the lifecycle phase.
func (l *lifecycle) current() State {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.state
}

// fieldsLocked returns the lifecycle fields of a wire status: state,
// version, submission, start and finish times, and error. Callers hold
// l.mu.
func (l *lifecycle) fieldsLocked() (State, int64, time.Time, *time.Time, *time.Time, string) {
	return l.state, l.version, l.submittedAt, l.startedAt, l.finishedAt, l.err
}

// startLocked moves a queued record to running at `at`, installing the
// run's cancel hook (nil when the record has none of its own). It
// changes nothing and reports false when a DELETE arrived first or the
// record already finished. Callers hold l.mu.
func (l *lifecycle) startLocked(at time.Time, cancel context.CancelFunc) bool {
	if l.cancelRequested || l.state.terminal() {
		return false
	}
	l.state = StateRunning
	l.startedAt = &at
	l.cancel = cancel
	l.bumpLocked()
	return true
}

// finishLocked is the one terminal transition: it moves the record to st
// at `at` exactly once and reports whether this call did it. Callers
// hold l.mu.
func (l *lifecycle) finishLocked(at time.Time, st State, err error) bool {
	if l.state.terminal() {
		return false
	}
	l.state = st
	l.finishedAt = &at
	if err != nil {
		l.err = err.Error()
	}
	l.cancel = nil
	l.bumpLocked()
	return true
}

// requestCancel records a DELETE and aborts the running context, if any,
// then returns the state the record was in. Done, failed and cancelled
// records are left as they are.
func (l *lifecycle) requestCancel() State {
	l.mu.Lock()
	defer l.mu.Unlock()
	if !l.state.terminal() {
		l.cancelRequested = true
		if l.cancel != nil {
			l.cancel()
		}
	}
	return l.state
}

// cancelWasRequested reports whether a DELETE reached the record.
func (l *lifecycle) cancelWasRequested() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.cancelRequested
}

// cancelSettled answers a DELETE on a record that was already in state
// st: done and failed records conflict (409), and a cancelled one is a
// no-op (200). It returns code 0 for a record the DELETE does cancel.
func cancelSettled(noun, id string, st State) (int, error) {
	switch st {
	case StateDone, StateFailed:
		return http.StatusConflict, fmt.Errorf("service: %s %s is already %s", noun, id, st)
	case StateCancelled:
		return http.StatusOK, nil
	}
	return 0, nil
}

// outcome classifies how a run ended: done without an error; cancelled
// when it stopped on a context cancellation that a DELETE (cancelled) or
// server shutdown asked for; failed otherwise.
func (s *Server) outcome(err error, cancelled bool) State {
	switch {
	case err == nil:
		return StateDone
	case errors.Is(err, context.Canceled) && (cancelled || s.ctx.Err() != nil):
		return StateCancelled
	}
	return StateFailed
}

// transitionLog is how one kind of record reports its state transitions:
// a counter by the state entered, and a structured event named msg whose
// first field is idKey.
type transitionLog struct {
	total *obs.CounterVec
	msg   string
	idKey string
}

// noteTransition counts one state transition and logs it as one
// structured event: the record's id, state, the caller's attrs, plus
// duration (start → finish, or submit → finish for records that never
// started) and error on terminal states.
func (s *Server) noteTransition(tl transitionLog, l *lifecycle, st State, id string, attrs ...any) {
	tl.total.With(string(st)).Inc()
	l.mu.Lock()
	from, finished, errMsg := l.submittedAt, l.finishedAt, l.err
	if l.startedAt != nil {
		from = *l.startedAt
	}
	l.mu.Unlock()
	kv := append([]any{tl.idKey, id, "state", string(st)}, attrs...)
	if st.terminal() && finished != nil {
		kv = append(kv, "duration", finished.Sub(from).Round(time.Millisecond))
	}
	level := obs.LevelInfo
	if errMsg != "" && (st == StateFailed || st == StateCancelled) {
		kv = append(kv, "error", errMsg)
		if st == StateFailed {
			level = obs.LevelError
		}
	}
	s.log.Log(context.Background(), level, tl.msg, kv...)
}

// priority resolves a submission's scheduling band: the request's, if it
// lies within ±MaxPriority, or the server default when it is unset.
func (s *Server) priority(p *int) (int, error) {
	if p == nil {
		return s.defaultPri, nil
	}
	if *p < -MaxPriority || *p > MaxPriority {
		return 0, fmt.Errorf("service: priority must be in [%d, %d], got %d", -MaxPriority, MaxPriority, *p)
	}
	return *p, nil
}

// pruneFinished drops the oldest finished records once order holds more
// than limit, so a long-running server does not accumulate results
// without bound, and returns the order kept. Queued and running records
// are kept even beyond the bound (the queue depth caps how many those
// can be). The caller holds s.mu.
func pruneFinished[R interface{ current() State }](order []string, records map[string]R, limit int) []string {
	excess := len(order) - limit
	if excess <= 0 {
		return order
	}
	kept := order[:0]
	for _, id := range order {
		if excess > 0 && records[id].current().terminal() {
			delete(records, id)
			excess--
			continue
		}
		kept = append(kept, id)
	}
	return kept
}

// maxLongPoll caps how long one status request may be held open; longer
// waits simply return the unchanged status and the client re-issues.
const maxLongPoll = 2 * time.Minute

// longPoll answers a status GET for l's record. Without ?wait it returns
// the status at once. With ?wait=<dur> the response is held back until
// the version passes ?since= (by default, the version as of the request),
// the record is terminal, or the wait elapses.
func (s *Server) longPoll(w http.ResponseWriter, r *http.Request, l *lifecycle, snapshot func() any) {
	q := r.URL.Query()
	waitStr := q.Get("wait")
	if waitStr == "" {
		s.writeJSON(w, http.StatusOK, snapshot())
		return
	}
	wait, err := time.ParseDuration(waitStr)
	if err != nil || wait < 0 {
		s.writeError(w, http.StatusBadRequest,
			fmt.Errorf("service: wait must be a non-negative duration, got %q", waitStr))
		return
	}
	wait = min(wait, maxLongPoll)
	var since int64 = -1
	if sinceStr := q.Get("since"); sinceStr != "" {
		since, err = strconv.ParseInt(sinceStr, 10, 64)
		if err != nil {
			s.writeError(w, http.StatusBadRequest,
				fmt.Errorf("service: since must be a version number, got %q", sinceStr))
			return
		}
	}
	timer := time.NewTimer(wait)
	defer timer.Stop()
	for {
		l.mu.Lock()
		version, terminal := l.version, l.state.terminal()
		ch := l.waitChanLocked()
		l.mu.Unlock()
		if since < 0 {
			since = version
		}
		// A terminal record can never change again: return rather than
		// hold the request open for nothing.
		if version > since || terminal {
			s.writeJSON(w, http.StatusOK, snapshot())
			return
		}
		select {
		case <-ch:
		case <-timer.C:
			s.writeJSON(w, http.StatusOK, snapshot())
			return
		case <-r.Context().Done():
			return
		}
	}
}

// serveTrace serves the span tree recorded for the study or sweep named
// by the {id} path value — as a nested JSON tree by default, or one span
// per line with ?format=jsonl. noun names the record kind in errors;
// known reports whether the record exists. Traces exist once a record
// starts and are retained for the most recent ones only, so a 404 here
// can mean not-started as well as evicted.
func (s *Server) serveTrace(w http.ResponseWriter, r *http.Request, noun string, known bool) {
	id := r.PathValue("id")
	if !known {
		s.writeError(w, http.StatusNotFound, fmt.Errorf("service: unknown %s %q", noun, id))
		return
	}
	jt, ok := s.tracer.Job(id)
	if !ok {
		s.writeError(w, http.StatusNotFound,
			fmt.Errorf("service: no trace for %s %s (not started, or evicted)", noun, id))
		return
	}
	if r.URL.Query().Get("format") == "jsonl" {
		w.Header().Set("Content-Type", "application/x-ndjson")
		if err := jt.WriteJSONL(w); err != nil {
			s.log.Error(r.Context(), "trace write failed", "job", id, "err", err)
		}
		return
	}
	s.writeJSON(w, http.StatusOK, jt.Tree())
}

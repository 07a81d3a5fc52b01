package sched

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"sync"
	"testing"

	"barrierpoint/internal/apps"
	"barrierpoint/internal/core"
	"barrierpoint/internal/isa"
	"barrierpoint/internal/obs"
	"barrierpoint/internal/resultcache"
	"barrierpoint/internal/trace"
)

func testRequest(t *testing.T) StudyRequest {
	t.Helper()
	a, err := apps.ByName("MCB")
	if err != nil {
		t.Fatal(err)
	}
	return StudyRequest{
		App:   "MCB",
		Build: a.Build,
		Config: core.StudyConfig{
			Threads: 2, Runs: 4, Reps: 5, Seed: 41,
		},
	}
}

// TestRunDeterministicAcrossWorkerCounts is the subsystem's core
// guarantee: the worker count must not leak into the result.
func TestRunDeterministicAcrossWorkerCounts(t *testing.T) {
	req := testRequest(t)
	serial, err := Run(context.Background(), req, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 8} {
		parallel, err := Run(context.Background(), req, Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(serial, parallel) {
			t.Errorf("Workers:1 and Workers:%d disagree on the StudyResult", workers)
		}
	}
}

// TestRunMatchesSerialReference pins the scheduler to core.RunStudy: both
// compose the same per-unit primitives, so their results must be
// indistinguishable.
func TestRunMatchesSerialReference(t *testing.T) {
	req := testRequest(t)
	want, err := core.RunStudy(req.App, req.Build, req.Config)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Run(context.Background(), req, Options{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Error("sched.Run diverges from the serial core.RunStudy reference")
	}
}

func TestRunCachesIntermediatesAndStudies(t *testing.T) {
	req := testRequest(t)
	cache := resultcache.New(128)
	opts := Options{Workers: 4, Cache: cache}

	first, err := Run(context.Background(), req, opts)
	if err != nil {
		t.Fatal(err)
	}
	cold := cache.Stats()
	if cold.Misses == 0 || cold.Puts == 0 {
		t.Fatalf("first run should populate the cache: %+v", cold)
	}

	second, err := Run(context.Background(), req, opts)
	if err != nil {
		t.Fatal(err)
	}
	warm := cache.Stats()
	if warm.Hits <= cold.Hits {
		t.Errorf("repeated run should hit the cache: cold %+v warm %+v", cold, warm)
	}
	if warm.Misses != cold.Misses {
		t.Errorf("repeated run should add no misses: cold %+v warm %+v", cold, warm)
	}
	if first != second {
		t.Error("whole-study cache hit should return the memoised result")
	}

	// An overlapping study — same seed and collections, more discovery
	// runs — must reuse the shared intermediates.
	bigger := req
	bigger.Config.Runs = 6
	if _, err := Run(context.Background(), bigger, opts); err != nil {
		t.Fatal(err)
	}
	overlap := cache.Stats()
	// Collections and the discovery baseline are shared; only the extra
	// jittered runs and the new study key should miss.
	if overlap.Hits <= warm.Hits {
		t.Errorf("overlapping study should share intermediates: %+v", overlap)
	}
}

func TestRunCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Run(ctx, testRequest(t), Options{Workers: 2}); !errors.Is(err, context.Canceled) {
		t.Errorf("want context.Canceled, got %v", err)
	}
}

func TestRunPropagatesBuildError(t *testing.T) {
	boom := errors.New("broken builder")
	req := StudyRequest{
		App: "broken",
		Build: func(threads int, v isa.Variant) (*trace.Program, error) {
			return nil, boom
		},
		Config: core.StudyConfig{Threads: 2, Runs: 2, Reps: 2},
	}
	if _, err := Run(context.Background(), req, Options{Workers: 4}); !errors.Is(err, boom) {
		t.Errorf("want builder error, got %v", err)
	}
}

func TestCollectNilVariantErrors(t *testing.T) {
	a, err := apps.ByName("MCB")
	if err != nil {
		t.Fatal(err)
	}
	req := CollectRequest{App: "MCB", Build: a.Build,
		Config: core.CollectConfig{Threads: 2}}
	if _, err := Collect(context.Background(), req, Options{}); err == nil {
		t.Error("zero-variant collection must error, not panic")
	}
	if _, err := Collect(context.Background(), req, Options{Cache: resultcache.New(8)}); err == nil {
		t.Error("zero-variant collection with cache must error, not panic")
	}
}

func TestRunNilBuilder(t *testing.T) {
	if _, err := Run(context.Background(), StudyRequest{App: "x"}, Options{}); err == nil {
		t.Error("nil builder must error")
	}
}

func TestFanOutOrderIndependence(t *testing.T) {
	got := make([]int, 64)
	err := ForEach(context.Background(), len(got), 7, func(ctx context.Context, i int) error {
		got[i] = i * i
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != i*i {
			t.Fatalf("slot %d holds %d", i, v)
		}
	}
}

// TestFanOutRealErrorBeatsCollateralCancellation covers a nested
// fan-out: a long-running unit 0 that reports context.Canceled once a
// sibling fails must not mask the sibling's real error, even though it
// has the lower index.
func TestFanOutRealErrorBeatsCollateralCancellation(t *testing.T) {
	boom := errors.New("collection failed")
	err := ForEach(context.Background(), 2, 2, func(ctx context.Context, i int) error {
		if i == 1 {
			return boom
		}
		<-ctx.Done() // unit 0 winds down only after unit 1's failure cancels
		return ctx.Err()
	})
	if !errors.Is(err, boom) {
		t.Errorf("collateral cancellation masked the real error: got %v", err)
	}
}

// TestRunReportsProgress pins the progress contract: with one worker the
// callback sees every count 1..total in order, total equals StudyUnits,
// and the last report is total/total.
func TestRunReportsProgress(t *testing.T) {
	req := testRequest(t)
	wantTotal := StudyUnits(req.Config)
	var got []int
	opts := Options{Workers: 1, Progress: func(done, total int) {
		if total != wantTotal {
			t.Errorf("progress total = %d, want %d", total, wantTotal)
		}
		got = append(got, done)
	}}
	if _, err := Run(context.Background(), req, opts); err != nil {
		t.Fatal(err)
	}
	if len(got) != wantTotal {
		t.Fatalf("got %d progress reports, want %d: %v", len(got), wantTotal, got)
	}
	for i, d := range got {
		if d != i+1 {
			t.Fatalf("report %d carries done=%d, want %d (units must count up one by one)", i, d, i+1)
		}
	}
}

// TestRunCachedStudyReportsFullProgress: a whole-study cache hit skips
// every unit, so progress must jump straight to total/total rather than
// staying silent, and the caller's span is tagged study_cache=hit.
func TestRunCachedStudyReportsFullProgress(t *testing.T) {
	req := testRequest(t)
	cache := resultcache.New(128)
	if _, err := Run(context.Background(), req, Options{Workers: 4, Cache: cache}); err != nil {
		t.Fatal(err)
	}
	jt := obs.NewJobTrace("cached", 64)
	root := jt.Root("study")
	var reports [][2]int
	_, err := Run(obs.ContextWithSpan(context.Background(), root), req, Options{Workers: 4, Cache: cache,
		Progress: func(done, total int) { reports = append(reports, [2]int{done, total}) }})
	if err != nil {
		t.Fatal(err)
	}
	root.End()
	total := StudyUnits(req.Config)
	if len(reports) != 1 || reports[0] != [2]int{total, total} {
		t.Errorf("cached study should report one %d/%d, got %v", total, total, reports)
	}
	tree := jt.Tree()
	if len(tree.Spans) != 1 || tree.Spans[0].Attrs["study_cache"] != "hit" {
		t.Fatalf("caller's span should carry study_cache=hit: %+v", tree.Spans)
	}
	for _, c := range tree.Spans[0].Children {
		if strings.HasPrefix(c.Name, "unit:") {
			t.Errorf("cached study executed %s", c.Name)
		}
	}
}

// TestRunTraceShape: a standalone study's direct children under the
// caller's span are the plan span and one span per executed unit —
// no stage or wrapper spans in between.
func TestRunTraceShape(t *testing.T) {
	req := testRequest(t)
	jt := obs.NewJobTrace("shape", 256)
	root := jt.Root("study")
	if _, err := Run(obs.ContextWithSpan(context.Background(), root), req, Options{Workers: 2}); err != nil {
		t.Fatal(err)
	}
	root.End()
	tree := jt.Tree()
	if len(tree.Spans) != 1 {
		t.Fatalf("want one root span, got %d", len(tree.Spans))
	}
	plans, units := 0, 0
	for _, c := range tree.Spans[0].Children {
		switch {
		case c.Name == "plan":
			plans++
		case strings.HasPrefix(c.Name, "unit:"):
			units++
		default:
			t.Errorf("unexpected direct child %q of the study span", c.Name)
		}
	}
	if plans != 1 || units != StudyUnits(req.Config) {
		t.Errorf("study children: %d plan, %d unit spans; want 1 and %d", plans, units, StudyUnits(req.Config))
	}
}

// TestRunCancelledMidStudy cancels from inside a progress callback, so
// the cancellation lands between units; Run must wind down with
// context.Canceled rather than completing.
func TestRunCancelledMidStudy(t *testing.T) {
	req := testRequest(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	opts := Options{Workers: 1, Progress: func(done, total int) {
		if done == 1 {
			cancel()
		}
	}}
	if _, err := Run(ctx, req, opts); !errors.Is(err, context.Canceled) {
		t.Errorf("want context.Canceled after mid-study cancel, got %v", err)
	}
}

// TestForEachExternalCancelReturnsCtxErr: a fan-out abandoned by its
// caller reports the context's error, not nil and not a unit error
// manufactured from the cancellation.
func TestForEachExternalCancelReturnsCtxErr(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	started := make(chan struct{})
	go func() {
		<-started
		cancel()
	}()
	var once sync.Once
	err := ForEach(ctx, 1000, 2, func(ctx context.Context, i int) error {
		once.Do(func() { close(started) })
		<-ctx.Done()
		return ctx.Err()
	})
	if !errors.Is(err, context.Canceled) {
		t.Errorf("want context.Canceled, got %v", err)
	}
}

// TestForEachCancelledUnitsNeverMaskRealError stresses the ordering
// matrix: many units fail with collateral context.Canceled after one
// real failure, at every worker count, and the real error must always
// surface.
func TestForEachCancelledUnitsNeverMaskRealError(t *testing.T) {
	boom := errors.New("unit 7 exploded")
	for _, workers := range []int{1, 2, 4, 16} {
		err := ForEach(context.Background(), 32, workers, func(ctx context.Context, i int) error {
			if i == 7 {
				return boom
			}
			select {
			case <-ctx.Done():
				return ctx.Err()
			default:
				return nil
			}
		})
		if !errors.Is(err, boom) {
			t.Errorf("workers=%d: collateral cancellations masked the real error: got %v", workers, err)
		}
	}
}

func TestFanOutReportsLowestIndexedError(t *testing.T) {
	errA, errB := errors.New("a"), errors.New("b")
	// Workers:1 visits units in order, so unit 2's error must win over
	// unit 5's even though both would fail.
	err := ForEach(context.Background(), 8, 1, func(ctx context.Context, i int) error {
		switch i {
		case 2:
			return errA
		case 5:
			return errB
		}
		return nil
	})
	if !errors.Is(err, errA) {
		t.Errorf("want lowest-indexed error, got %v", err)
	}
}

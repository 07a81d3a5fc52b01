package sched

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"strings"
	"testing"

	"barrierpoint/internal/apps"
	"barrierpoint/internal/core"
)

// digestCase is one study of the frozen digest matrix.
type digestCase struct {
	name, app string
	cfg       core.StudyConfig
}

// digestMatrix is the fixed study matrix whose reports are frozen in
// testdata/run_digests.txt: three workloads at two thread counts,
// scalar, plus one vectorised configuration, each at 3 runs / 5 reps
// with a fixed seed.
func digestMatrix() []digestCase {
	var m []digestCase
	add := func(app string, threads int, vect bool) {
		m = append(m, digestCase{
			name: fmt.Sprintf("%s/%dt/vect=%v", app, threads, vect),
			app:  app,
			cfg:  core.StudyConfig{Threads: threads, Vectorised: vect, Runs: 3, Reps: 5, Seed: 2017},
		})
	}
	for _, app := range []string{"MCB", "HPCG", "CoMD"} {
		for _, threads := range []int{2, 4} {
			add(app, threads, false)
		}
	}
	add("HPCG", 4, true)
	return m
}

// readDigests parses a "<name> <sha256>" per line digest file.
func readDigests(t *testing.T, path string) map[string]string {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	want := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, sum, ok := strings.Cut(line, " ")
		if !ok {
			t.Fatalf("%s: malformed line %q", path, line)
		}
		want[name] = strings.TrimSpace(sum)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return want
}

// TestRunReportDigests is the frozen correctness reference for study
// execution: the WriteJSON report of every study in digestMatrix must
// hash to the digest checked in under testdata. The digests were taken
// from the staged fork-join scheduler before study execution moved onto
// the sweep plan executor, so they pin every later execution path to
// the same bytes. Floating-point results are those of an amd64 build
// (arm64 fuses multiply-adds, which changes the last bits).
func TestRunReportDigests(t *testing.T) {
	want := readDigests(t, "testdata/run_digests.txt")
	for _, c := range digestMatrix() {
		a, err := apps.ByName(c.app)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Run(context.Background(), StudyRequest{App: c.app, Build: a.Build, Config: c.cfg}, Options{Workers: 2})
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		var rep bytes.Buffer
		if err := res.WriteJSON(&rep); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		sum := sha256.Sum256(rep.Bytes())
		if got := hex.EncodeToString(sum[:]); got != want[c.name] {
			t.Errorf("%s: report digest %s, frozen %q", c.name, got, want[c.name])
		}
	}
}

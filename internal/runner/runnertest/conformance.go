// Package runnertest is the shared backend-conformance suite: every
// runner.Backend implementation — LocalBackend, the remote
// coordinator/worker backend, whatever comes next — must pass
// Conformance, so drivers can switch backends without re-auditing the
// execution contract.
package runnertest

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"repro/internal/prefetch"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Jobs builds n small serializable jobs (registry workloads, registry
// prefetcher, live source), the common currency of conformance checks:
// every backend, including remote ones that ship jobs over a wire, can
// run them.
func Jobs(tb testing.TB, n int) []runner.Job {
	tb.Helper()
	suite := workload.StandardSuite()
	cfg := sim.DefaultConfig()
	cfg.WarmupInstrs = 50_000
	cfg.MeasureInstrs = 50_000
	jobs := make([]runner.Job, n)
	for i := range jobs {
		wl := suite[i%len(suite)]
		jobs[i] = runner.Job{
			Label:    fmt.Sprintf("job%d/%s", i, wl.Name),
			Workload: wl,
			Config:   cfg,
			Engine:   prefetch.Spec{Name: "nextline"},
		}
	}
	return jobs
}

// Conformance runs the backend contract against a fresh backend from mk
// per check. mk is called with the subtest's testing.T; backends are
// Closed by the suite.
func Conformance(t *testing.T, mk func(t *testing.T) runner.Backend) {
	t.Run("EchoesIndicesOnce", func(t *testing.T) { testEcho(t, mk(t)) })
	t.Run("ReusableAcrossRuns", func(t *testing.T) { testReuse(t, mk(t)) })
	t.Run("SubmitAfterCloseSentinel", func(t *testing.T) { testClosedSentinel(t, mk(t)) })
	t.Run("LaneJob", func(t *testing.T) { testLanes(t, mk(t)) })
}

// testLanes checks that a job with lanes returns one labeled result per
// lane, each equal to the result of the same cell run as its own job,
// and that progress counts the lanes as cells.
func testLanes(t *testing.T, b runner.Backend) {
	defer b.Close()
	cells := Jobs(t, 1)
	for _, eng := range []string{"none", "tifs"} {
		c := cells[0]
		c.Label = fmt.Sprintf("%s/%s", cells[0].Label, eng)
		c.Engine = prefetch.Spec{Name: eng}
		c.Config.PerfectL1 = eng == "none"
		cells = append(cells, c)
	}
	job := cells[0]
	for _, c := range cells[1:] {
		job.Lanes = append(job.Lanes, runner.Lane{Label: c.Label, Config: c.Config, Engine: c.Engine})
	}
	var progress []runner.Progress
	got, err := runner.RunOn(context.Background(), b, []runner.Job{job}, func(p runner.Progress) { progress = append(progress, p) })
	if err != nil {
		t.Fatal(err)
	}
	solo, err := runner.RunOn(context.Background(), b, cells, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got[0].Lanes) != len(job.Lanes) {
		t.Fatalf("job with %d lanes returned %d lane results", len(job.Lanes), len(got[0].Lanes))
	}
	if got[0].Sim != solo[0].Sim {
		t.Errorf("lane 0 differs from its solo job")
	}
	for i, l := range got[0].Lanes {
		if l.Label != cells[i+1].Label || l.Sim != solo[i+1].Sim {
			t.Errorf("lane %d = %q %+v, want %q %+v", i+1, l.Label, l.Sim, cells[i+1].Label, solo[i+1].Sim)
		}
	}
	if len(progress) != 1 || progress[0].Done != len(cells) || progress[0].Total != len(cells) {
		t.Errorf("progress = %+v, want one callback counting %d cells", progress, len(cells))
	}
}

// testEcho checks the core protocol: one result per Submit, each
// echoing its submission index, none failed, none zero-valued.
func testEcho(t *testing.T, b runner.Backend) {
	defer b.Close()
	jobs := Jobs(t, 4)
	results, err := runner.RunOn(context.Background(), b, jobs, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(jobs) {
		t.Fatalf("got %d results, want %d", len(results), len(jobs))
	}
	for i, r := range results {
		if r.Index != i {
			t.Errorf("result %d echoes index %d", i, r.Index)
		}
		if r.Err != nil {
			t.Errorf("job %d (%s) failed: %v", i, r.Label, r.Err)
		}
		if r.Sim.Instructions == 0 {
			t.Errorf("job %d (%s) returned a zero-valued sim result", i, r.Label)
		}
		if r.Label != jobs[i].Label {
			t.Errorf("job %d label = %q, want %q", i, r.Label, jobs[i].Label)
		}
	}
}

// testReuse checks that one backend serves sequential RunOn batches:
// the results stream spans runs and only Close ends it.
func testReuse(t *testing.T, b runner.Backend) {
	defer b.Close()
	for batch := 0; batch < 2; batch++ {
		jobs := Jobs(t, 2)
		results, err := runner.RunOn(context.Background(), b, jobs, nil)
		if err != nil {
			t.Fatalf("batch %d: %v", batch, err)
		}
		for i, r := range results {
			if r.Err != nil {
				t.Fatalf("batch %d job %d: %v", batch, i, r.Err)
			}
		}
	}
}

// testClosedSentinel checks that Submit on a closed backend reports
// runner.ErrBackendClosed — the signal a dispatcher uses to reroute
// jobs rather than fail them.
func testClosedSentinel(t *testing.T, b runner.Backend) {
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	for range b.Results() {
	}
	err := b.Submit(context.Background(), 0, Jobs(t, 1)[0])
	if !errors.Is(err, runner.ErrBackendClosed) {
		t.Fatalf("Submit after Close = %v, want runner.ErrBackendClosed", err)
	}
}

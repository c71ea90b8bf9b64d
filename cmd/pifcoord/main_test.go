package main

import (
	"context"
	"encoding/json"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/experiments"
	"repro/internal/remote"
	"repro/internal/report"
	"repro/internal/runner"
	"repro/internal/sim"
)

// TestResultStoreSkipsFailedResults locks the salvage-store invariant:
// jobs/ holds only completed simulations. A failed task — a worker
// error, or the coordinator's max-attempts give-up whose Sim is
// zero-valued — must never be written where LoadJobResults would read
// it as a success; it lands in failed.jsonl instead.
func TestResultStoreSkipsFailedResults(t *testing.T) {
	dir := t.TempDir()
	s := newResultStore(dir)
	s.enqueue("run-a", remote.WireResult{V: remote.WireVersion, Label: "good", Sim: sim.Result{Instructions: 42}})
	s.enqueue("run-a", remote.WireResult{V: remote.WireVersion, Label: "bad", Err: "remote: task 2 (bad) lost its worker 3 times; giving up"})
	s.close()

	jobs, err := report.LoadJobResults(filepath.Join(dir, "run-a"))
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 1 || jobs[0].Label != "good" {
		t.Fatalf("jobs/ holds %d results, want exactly the successful one: %+v", len(jobs), jobs)
	}
	b, err := os.ReadFile(filepath.Join(dir, "run-a", "failed.jsonl"))
	if err != nil {
		t.Fatalf("failure record: %v", err)
	}
	if !strings.Contains(string(b), "lost its worker") {
		t.Fatalf("failed.jsonl = %q, want the task's error text", b)
	}
}

// TestResultStoreEnqueueAfterClose guards the shutdown ordering: a
// handler completing inside the shutdown grace may call enqueue after
// the store closed; that must drop the result, not panic on a closed
// channel.
func TestResultStoreEnqueueAfterClose(t *testing.T) {
	s := newResultStore(t.TempDir())
	s.close()
	s.enqueue("run-a", remote.WireResult{V: remote.WireVersion, Label: "late"})
	s.close() // idempotent
}

// TestResultStoreOneFilePerLane: a job with lanes is several cells, so
// its result lands as one jobs/ file per lane, each under its own label
// and carrying its own simulation.
func TestResultStoreOneFilePerLane(t *testing.T) {
	dir := t.TempDir()
	s := newResultStore(dir)
	s.enqueue("run-a", remote.WireResult{V: remote.WireVersion, Label: "cell/pif", Sim: sim.Result{Instructions: 1},
		Lanes: []remote.WireLane{
			{Label: "cell/none", Sim: sim.Result{Instructions: 2}},
			{Label: "cell/tifs", Sim: sim.Result{Instructions: 3}},
		}})
	s.close()

	jobs, err := report.LoadJobResults(filepath.Join(dir, "run-a"))
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]uint64{}
	for _, j := range jobs {
		var r sim.Result
		if err := json.Unmarshal(j.Data, &r); err != nil {
			t.Fatal(err)
		}
		got[j.Label] = r.Instructions
	}
	want := map[string]uint64{"cell/pif": 1, "cell/none": 2, "cell/tifs": 3}
	if len(got) != len(want) {
		t.Fatalf("jobs/ holds %v, want %v", got, want)
	}
	for l, n := range want {
		if got[l] != n {
			t.Errorf("%s: instructions %d, want %d", l, got[l], n)
		}
	}
}

// TestRemoteFig10MatchesLocal runs the Figure 10 grid — six workloads by
// five engines, whose cells group into lanes — through a coordinator
// persisting results and a worker, and checks that every cell equals a
// local run and lands as its own jobs/ file.
func TestRemoteFig10MatchesLocal(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test runs real simulations")
	}
	dir := t.TempDir()
	store := newResultStore(dir)
	core := remote.NewCore(remote.CoreOptions{OnResult: store.enqueue})
	srv := httptest.NewServer(remote.NewServer(core))
	defer srv.Close()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- (&remote.Worker{Coord: srv.URL, Name: "w", Parallel: 2}).Run(ctx) }()
	defer func() { cancel(); <-done }()

	opts := experiments.QuickOptions()
	opts.WarmupInstrs, opts.MeasureInstrs = 30_000, 20_000
	opts.Parallel = 2
	run := func(b runner.Backend) []report.JobResult {
		o := opts
		o.Backend = b
		env := experiments.NewEnvContext(context.Background(), o)
		if _, err := experiments.Run(env, "fig10"); err != nil {
			t.Fatal(err)
		}
		return env.JobResults()
	}
	local := run(nil)
	b, err := remote.Dial(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	got := run(b)
	b.Close()
	store.close()

	if len(local) != 30 || len(got) != len(local) {
		t.Fatalf("remote run has %d cells, local %d, want 30", len(got), len(local))
	}
	for i := range local {
		if got[i].Key != local[i].Key || string(got[i].Data) != string(local[i].Data) {
			t.Errorf("cell %s: remote result differs from local", local[i].Key)
		}
	}
	files, err := filepath.Glob(filepath.Join(dir, "*", "jobs", "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	labels := map[string]bool{}
	runs, err := filepath.Glob(filepath.Join(dir, "*"))
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range runs {
		jobs, err := report.LoadJobResults(r)
		if err != nil {
			t.Fatal(err)
		}
		for _, j := range jobs {
			labels[j.Label] = true
		}
	}
	if len(files) != len(local) || len(labels) != len(local) {
		t.Errorf("coordinator persisted %d jobs/ files with %d distinct labels, want one per cell (%d)", len(files), len(labels), len(local))
	}
	for _, j := range local {
		if !labels[j.Label] {
			t.Errorf("no jobs/ file for cell %q", j.Label)
		}
	}
}

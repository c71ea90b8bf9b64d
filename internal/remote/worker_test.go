package remote

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"

	"repro/internal/prefetch"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/workload"
)

// TestWorkerBuildsEachImageOnce serves several live tasks of one
// workload — single jobs and a lane job — from one worker. The worker
// must build the workload's program image once for all of them, and
// every result must be byte-identical (as JSON) to a local sim.RunJob of
// the same cell.
func TestWorkerBuildsEachImageOnce(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test runs real simulations")
	}
	wl := workload.DSSQry2()
	cfg := sim.DefaultConfig()
	cfg.WarmupInstrs = 50_000
	cfg.MeasureInstrs = 50_000
	cell := func(engine string) runner.Job {
		return runner.Job{Label: engine, Workload: wl, Config: cfg, Engine: prefetch.Spec{Name: engine}}
	}
	jobs := []runner.Job{cell("pif"), cell("tifs"), cell("nextline"), cell("none")}
	laned := cell("pif")
	laned.Label = "pif+lanes"
	laned.Lanes = []runner.Lane{{Label: "tifs", Config: cfg, Engine: prefetch.Spec{Name: "tifs"}}}
	jobs = append(jobs, laned)

	h := newHarness(t, CoreOptions{})
	w := &Worker{Coord: h.srv.URL, Name: "w1", Parallel: 2}
	h.runWorker(w)
	b, err := Dial(h.srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	got, err := runner.RunOn(context.Background(), b, jobs, nil)
	if err != nil {
		t.Fatal(err)
	}

	same := func(label string, remote sim.Result, engine prefetch.Spec) {
		t.Helper()
		want, err := sim.RunJob(context.Background(), sim.Job{Config: cfg, Workload: wl, Engine: engine})
		if err != nil {
			t.Fatal(err)
		}
		gj, err := json.Marshal(remote)
		if err != nil {
			t.Fatal(err)
		}
		wj, err := json.Marshal(want)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(gj, wj) {
			t.Errorf("%s: remote result differs from local sim.RunJob:\nremote %s\nlocal  %s", label, gj, wj)
		}
	}
	for i, j := range jobs {
		if got[i].Err != nil {
			t.Fatalf("job %s: %v", j.Label, got[i].Err)
		}
		same(j.Label, got[i].Sim, j.Engine)
		if len(got[i].Lanes) != len(j.Lanes) {
			t.Fatalf("job %s: %d lane results, want %d", j.Label, len(got[i].Lanes), len(j.Lanes))
		}
		for k, l := range j.Lanes {
			same(j.Label+"/"+l.Label, got[i].Lanes[k].Sim, l.Engine)
		}
	}
	if n := w.programs.Len(); n != 1 {
		t.Errorf("worker cached %d program images after %d live tasks of one workload, want 1", n, len(jobs))
	}
}

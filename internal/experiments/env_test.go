package experiments

import (
	"context"
	"sync"
	"testing"

	"repro/internal/prefetch"
	"repro/internal/runner"
	"repro/internal/workload"
)

// recordingBackend is a LocalBackend that keeps every job submitted
// to it.
type recordingBackend struct {
	*runner.LocalBackend
	mu   sync.Mutex
	jobs []runner.Job
}

func (b *recordingBackend) Submit(ctx context.Context, idx int, j runner.Job) error {
	b.mu.Lock()
	b.jobs = append(b.jobs, j)
	b.mu.Unlock()
	return b.LocalBackend.Submit(ctx, idx, j)
}

// envJobs is two live cells on each of two workloads.
func envJobs(e *Env) []runner.Job {
	var jobs []runner.Job
	for _, wl := range e.Options().Workloads {
		for _, engine := range []string{"pif", "none"} {
			jobs = append(jobs, runner.Job{
				Label:    wl.Name + "/" + engine,
				Workload: wl,
				Config:   e.Options().SimConfig(),
				Engine:   prefetch.Spec{Name: engine},
			})
		}
	}
	return jobs
}

func envTestOptions(t *testing.T) Options {
	t.Helper()
	if testing.Short() {
		t.Skip("simulation test skipped in -short mode")
	}
	opts := QuickOptions()
	opts.Workloads = []workload.Profile{workload.DSSQry2(), workload.WebApache()}
	opts.WarmupInstrs = 50_000
	opts.MeasureInstrs = 50_000
	opts.Parallel = 2
	return opts
}

// TestEnvSuppliedBackendGetsNoImages: jobs bound for a supplied backend
// travel without program images (the backend builds them where the
// jobs run), and the environment builds none for them.
func TestEnvSuppliedBackendGetsNoImages(t *testing.T) {
	opts := envTestOptions(t)
	be := &recordingBackend{LocalBackend: runner.NewLocalBackend(2)}
	defer be.Close()
	opts.Backend = be
	e := NewEnv(opts)
	jobs := envJobs(e)
	res, err := e.RunJobs(jobs)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res {
		if r.Err != nil {
			t.Fatalf("job %s: %v", r.Label, r.Err)
		}
	}
	if len(be.jobs) != len(jobs) {
		t.Fatalf("backend saw %d jobs, want %d", len(be.jobs), len(jobs))
	}
	for _, j := range be.jobs {
		if j.Program != nil {
			t.Errorf("job %s reached the supplied backend with a program image attached", j.Label)
		}
	}
	if n := e.programs.Len(); n != 0 {
		t.Errorf("environment built %d program images for jobs it did not run", n)
	}
}

// TestEnvPrivatePoolSharesImages: jobs run on the environment's own
// pool carry its cached image, one per workload, shared by every job of
// that workload.
func TestEnvPrivatePoolSharesImages(t *testing.T) {
	e := NewEnv(envTestOptions(t))
	jobs := envJobs(e)
	if _, err := e.RunJobs(jobs); err != nil {
		t.Fatal(err)
	}
	for _, j := range jobs {
		want, err := e.Program(j.Workload)
		if err != nil {
			t.Fatal(err)
		}
		if j.Program == nil || j.Program != want {
			t.Errorf("job %s ran with image %p, want the environment's shared %p", j.Label, j.Program, want)
		}
	}
	if n := e.programs.Len(); n != len(e.Options().Workloads) {
		t.Errorf("environment built %d program images, want one per workload (%d)", n, len(e.Options().Workloads))
	}
}

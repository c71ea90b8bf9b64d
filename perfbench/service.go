package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/experiments"
	"repro/internal/expsvc"
	"repro/internal/remote"
	"repro/internal/report"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/workload"
)

// svcStack is the in-process service stack over loopback: the expsvc
// HTTP server, backed by a remote coordinator, served by one worker.
type svcStack struct {
	dir        string
	core       *remote.Core
	coordSrv   *http.Server
	coordAddr  string
	svc        *expsvc.Service
	svcSrv     *http.Server
	svcAddr    string
	stopWorker context.CancelFunc
	workerDone chan error
	servers    sync.WaitGroup
}

// serve starts h on a loopback port and returns its address.
func (s *svcStack) serve(h http.Handler) (*http.Server, string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", err
	}
	srv := &http.Server{Handler: h}
	s.servers.Add(1)
	go func() {
		defer s.servers.Done()
		if err := srv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			logf("serve %s: %v", ln.Addr(), err)
		}
	}()
	return srv, ln.Addr().String(), nil
}

func startStack(dir string, workers int) (*svcStack, error) {
	s := &svcStack{dir: dir}
	s.core = remote.NewCore(remote.CoreOptions{})
	var err error
	if s.coordSrv, s.coordAddr, err = s.serve(remote.NewServer(s.core)); err != nil {
		s.close()
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	s.stopWorker = cancel
	s.workerDone = make(chan error, 1)
	w := &remote.Worker{Coord: s.coordAddr, Name: "perfbench-worker", Parallel: workers}
	go func() { s.workerDone <- w.Run(ctx) }()

	s.svc, err = expsvc.New(expsvc.Config{
		DBDir:    filepath.Join(dir, "db"),
		Backend:  "remote@" + s.coordAddr,
		Parallel: workers,
	})
	if err != nil {
		s.close()
		return nil, err
	}
	if s.svcSrv, s.svcAddr, err = s.serve(expsvc.NewServer(s.svc)); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

// close stops the stack and waits for every goroutine it started.
func (s *svcStack) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if s.svcSrv != nil {
		s.svcSrv.Shutdown(ctx)
	}
	if s.svc != nil {
		s.svc.Close()
	}
	if s.stopWorker != nil {
		s.stopWorker()
		<-s.workerDone
	}
	if s.coordSrv != nil {
		s.coordSrv.Shutdown(ctx)
	}
	s.core.Close()
	s.servers.Wait()
	os.RemoveAll(s.dir)
}

// service drives the stack with closed-loop HTTP clients, each
// submitting a two-cell sweep and following it to completion.
type service struct {
	b     *bench
	req   expsvc.Request
	stack *svcStack
	pool  chan *expsvc.Client
	ref   []report.JobResult
	reps  int
}

const serviceClients = 2

func newService(b *bench) *service {
	return &service{b: b, req: expsvc.Request{
		Name:          "perfbench-svc",
		Axes:          []string{"workload=OLTP DB2", "engine=pif,none"},
		WarmupInstrs:  b.sc.svcWarmup,
		MeasureInstrs: b.sc.svcMeasure,
	}}
}

// options are the experiment options the service builds for the request.
func (w *service) options() experiments.Options {
	opts := experiments.DefaultOptions()
	opts.WarmupInstrs, opts.MeasureInstrs = w.req.WarmupInstrs, w.req.MeasureInstrs
	opts.Parallel = w.b.workers
	return opts
}

// setup starts the stack and runs the request's spec through a local
// experiments environment: the reference every service run must match.
func (w *service) setup(ctx context.Context) error {
	if w.stack != nil {
		w.stack.close()
	}
	w.reps++
	st, err := startStack(filepath.Join(w.b.workDir, fmt.Sprintf("svc-%d", w.reps)), w.b.workers)
	if err != nil {
		return err
	}
	w.stack = st
	w.pool = make(chan *expsvc.Client, serviceClients)
	for i := 0; i < serviceClients; i++ {
		c, err := expsvc.DialService(st.svcAddr, "")
		if err != nil {
			return err
		}
		w.pool <- c
	}
	env := experiments.NewEnvContext(ctx, w.options())
	spec, err := experiments.BuildSweep(env, w.req.Name, w.req.Axes, w.req.Engines)
	if err != nil {
		return err
	}
	if _, err := env.RunGrid(spec); err != nil {
		return err
	}
	w.ref = env.JobResults()
	return nil
}

func (w *service) clients() int      { return serviceClients }
func (w *service) reference() string { return jobsDigest(w.ref) }

// op submits the sweep and waits for it. Its latency is submit to done
// as the client sees it; the queue and run phases come from the state
// transitions WaitRun reports, not from the persisted record.
func (w *service) op(ctx context.Context, tr *tracer, opID, parent int) (opOutcome, error) {
	var out opOutcome
	cl := <-w.pool
	defer func() { w.pool <- cl }()

	t0 := time.Now()
	var st expsvc.Status
	err := tr.call("expsvc.Client.Submit", parent, opID, func() error {
		var err error
		st, err = cl.Submit(ctx, w.req)
		return err
	})
	if err != nil {
		return out, err
	}
	submitted := time.Now()
	var running, done time.Time
	wait := tr.start("expsvc.Client.WaitRun", parent, opID)
	final, err := cl.WaitRun(ctx, st.ID, func(s expsvc.Status) {
		now := time.Now()
		if s.State == expsvc.StateRunning && running.IsZero() {
			running = now
		}
		if s.State.Terminal() {
			done = now
			if running.IsZero() {
				running = now
			}
		}
	})
	tr.end(wait)
	if err != nil {
		return out, err
	}
	out.dur = done.Sub(t0)
	tr.add("expsvc.queue", wait, opID, submitted, running)
	tr.add("expsvc.run", wait, opID, running, done)
	out.extra = map[string]float64{
		"submit_ms": ms(submitted.Sub(t0)),
		"queue_ms":  ms(running.Sub(submitted)),
		"run_ms":    ms(done.Sub(running)),
	}
	out.id = st.ID
	if final.State != expsvc.StateDone {
		return out, fmt.Errorf("service run %s ended %s: %s", st.ID, final.State, final.Error)
	}

	var jobs []report.JobResult
	if err := tr.call("expsvc.Client.Jobs", parent, opID, func() error {
		var err error
		jobs, err = cl.Jobs(ctx, st.ID)
		return err
	}); err != nil {
		return out, err
	}
	if d := report.DiffJobResults(w.ref, jobs, report.Exact()); !d.Clean() {
		return out, checkError{fmt.Errorf("service run %s differs from the local run of the same spec:\n%s", st.ID, d.Render())}
	}
	out.records = uint64(len(jobs)) * (w.req.WarmupInstrs + w.req.MeasureInstrs)
	out.digest = jobsDigest(jobs)
	return out, nil
}

func (w *service) ledger(context.Context) (ledgerInput, error) {
	p := workload.OLTPDB2()
	return liveLedger(w.b.workDir, p, []workload.Profile{p}, min(w.b.sc.ledgerRecords, w.req.WarmupInstrs+w.req.MeasureInstrs))
}

func (w *service) probe(ctx context.Context, l *layers, traced loopResult) error {
	env := experiments.NewEnvContext(ctx, w.options())
	spec, err := experiments.BuildSweep(env, w.req.Name, w.req.Axes, w.req.Engines)
	if err != nil {
		return err
	}
	if err := l.timeExpand(spec); err != nil {
		return err
	}
	var submit, queue, run []time.Duration
	stamped := 0
	db, err := expsvc.OpenDB(filepath.Join(w.stack.dir, "db"))
	if err != nil {
		return err
	}
	for _, o := range traced.ok {
		submit = append(submit, fromMS(o.extra["submit_ms"]))
		queue = append(queue, fromMS(o.extra["queue_ms"]))
		run = append(run, fromMS(o.extra["run_ms"]))
		if rec, err := db.LoadRecord(o.id); err == nil && rec.StartedAt != nil && rec.FinishedAt != nil &&
			rec.StartedAt.Equal(*rec.FinishedAt) {
			stamped++
		}
	}
	l.set("expsvc.submit_ms", ms(median(submit)))
	l.set("expsvc.queue_ms", ms(median(queue)))
	l.set("expsvc.run_ms", ms(median(run)))
	l.note("persisted exprun.json records with started_at == finished_at: %d of %d (queue and run phases above come from client-observed transitions instead)",
		stamped, len(traced.ok))
	l.set("runner.cpu_util", ratio(float64(traced.cpu), float64(traced.wall)*float64(w.b.workers)))

	// remote: closed-loop single jobs straight through a coordinator
	// backend; the overhead is completion seen on Backend.Results minus
	// the job's own wall time.
	be, err := remote.Dial(w.stack.coordAddr)
	if err != nil {
		return err
	}
	defer be.Close()
	wl, err := workload.ByName("OLTP DB2")
	if err != nil {
		return err
	}
	job := runner.Job{Label: "perfbench/remote", Workload: wl, Engine: pifSpec, Config: sim.Config{
		System: w.options().System, WarmupInstrs: w.req.WarmupInstrs, MeasureInstrs: w.req.MeasureInstrs}}
	var over, jobs []time.Duration
	for i := 0; i < 10; i++ {
		t0 := time.Now()
		res, err := runner.RunOn(ctx, be, []runner.Job{job}, nil)
		if err != nil {
			return err
		}
		over = append(over, time.Since(t0)-res[0].Elapsed)
		jobs = append(jobs, res[0].Elapsed)
	}
	l.set("remote.job_overhead_ms", ms(median(over)))
	l.set("runner.job_ms_p50", ms(median(jobs)))

	// report: persist one service run's artifacts and jobs locally.
	if len(traced.ok) > 0 {
		cl := <-w.pool
		defer func() { w.pool <- cl }()
		id := traced.ok[0].id
		run, arts, err := cl.Artifacts(ctx, id)
		if err != nil {
			return err
		}
		jobs, err := cl.Jobs(ctx, id)
		if err != nil {
			return err
		}
		dir := filepath.Join(w.b.workDir, "svc-save")
		d, err := timeMedian(5, func() error {
			if err := report.Save(dir, run, arts); err != nil {
				return err
			}
			return report.SaveJobResults(dir, jobs)
		})
		if err != nil {
			return err
		}
		l.set("report.save_ms", ms(d))
		l.set("report.bytes_written", float64(dirBytes(dir)))
	}
	return nil
}

func (w *service) close() {
	if w.stack != nil {
		w.stack.close()
	}
}

func fromMS(v float64) time.Duration { return time.Duration(v * float64(time.Millisecond)) }

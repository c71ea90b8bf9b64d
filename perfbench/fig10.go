package main

import (
	"context"
	"fmt"
	"io/fs"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/experiments"
	"repro/internal/report"
	"repro/internal/runner"
	"repro/internal/sweep"
	"repro/internal/workload"
)

// fig10Quick regenerates the paper's Figure 10 at -quick scale through a
// fresh experiments environment and persists it, the path of
// `experiments -run fig10 -quick -parallel 2 -out DIR`. Every scale,
// the self-test's included, keeps the -quick preset: with less warmup
// PIF does not lead on every workload.
type fig10Quick struct {
	b        *bench
	profiles []workload.Profile
}

func newFig10(b *bench) *fig10Quick { return &fig10Quick{b: b} }

func (w *fig10Quick) options() experiments.Options {
	opts := experiments.QuickOptions()
	opts.Workloads = w.profiles
	opts.Parallel = w.b.workers
	return opts
}

// setup derives the seeded suite and checks that every profile builds.
func (w *fig10Quick) setup(context.Context) error {
	w.profiles = nil
	for _, p := range workload.StandardSuite() {
		p = w.b.profile(p)
		if err := p.Validate(); err != nil {
			return err
		}
		if _, err := workload.BuildProgram(p); err != nil {
			return err
		}
		w.profiles = append(w.profiles, p)
	}
	return w.options().Validate()
}

func (w *fig10Quick) clients() int      { return 1 }
func (w *fig10Quick) reference() string { return "" }

func (w *fig10Quick) op(ctx context.Context, tr *tracer, opID, parent int) (opOutcome, error) {
	var out opOutcome
	opts := w.options()
	run := tr.start("experiments.Run", parent, opID)
	if tr != nil {
		opts.OnProgress = func(p runner.Progress) {
			now := time.Now()
			tr.add("runner.job", run, opID, now.Add(-p.Elapsed), now)
			out.jobs = append(out.jobs, p.Elapsed)
		}
	}
	env := experiments.NewEnvContext(ctx, opts)
	t0 := time.Now()
	rep, err := experiments.Run(env, "fig10")
	total := time.Since(t0)
	tr.end(run)
	if err != nil {
		return out, err
	}
	arts, err := experiments.Artifacts([]experiments.Report{rep})
	if err != nil {
		return out, err
	}
	dir := filepath.Join(w.b.workDir, fmt.Sprintf("fig10-run-%d", opID))
	meta := report.Run{
		ID:         "fig10-quick",
		CreatedAt:  time.Now().UTC(),
		Options:    opts.RunOptions(),
		Timings:    []report.Timing{{ID: "fig10", Nanos: int64(total)}},
		TotalNanos: int64(total),
	}
	if err := tr.call("report.Save", parent, opID, func() error { return report.Save(dir, meta, arts) }); err != nil {
		return out, err
	}
	jobs := env.JobResults()
	if err := tr.call("report.SaveJobResults", parent, opID, func() error { return report.SaveJobResults(dir, jobs) }); err != nil {
		return out, err
	}
	if tr != nil {
		out.extra = map[string]float64{"bytes": float64(dirBytes(dir))}
	}

	res, ok := rep.Data.(experiments.Fig10Result)
	if !ok {
		return out, fmt.Errorf("fig10 data is %T", rep.Data)
	}
	// PIF must out-cover both baselines on every workload. TIFS over
	// Next-Line is the paper's order too, but reseeded DSS and Web
	// profiles break it on about one seed in four with PIF still ahead,
	// so it is reported rather than failed (see NOTES.md).
	for i, wl := range res.Workloads {
		pif, tifs, nl := res.PIFCov[i], res.TIFSCov[i], res.NextLineCov[i]
		if !(pif > tifs && pif > nl) {
			return out, checkError{fmt.Errorf("%s: coverage PIF %.4f, TIFS %.4f, Next-Line %.4f: PIF does not lead", wl, pif, tifs, nl)}
		}
		if tifs <= nl {
			out.notes = append(out.notes, fmt.Sprintf("%s: TIFS coverage %.4f <= Next-Line %.4f (PIF %.4f)", wl, tifs, nl, pif))
		}
	}
	out.records = uint64(len(jobs)) * (opts.WarmupInstrs + opts.MeasureInstrs)
	out.digest = jobsDigest(jobs)
	return out, nil
}

func (w *fig10Quick) ledger(context.Context) (ledgerInput, error) {
	return liveLedger(w.b.workDir, w.profiles[0], w.profiles, w.b.sc.ledgerRecords)
}

func (w *fig10Quick) probe(ctx context.Context, l *layers, traced loopResult) error {
	spec := sweep.Spec{
		Name: "fig10",
		Base: w.options().SimConfig(),
		Axes: []sweep.Axis{
			sweep.WorkloadAxis("workload", w.profiles),
			sweep.EngineAxis("engine", "none", "nextline", "tifs", "pif", "pif-unlimited"),
		},
	}
	if err := l.timeExpand(spec); err != nil {
		return err
	}
	l.runnerFrom(traced, w.b.workers)

	st := w.b.tr.stats()
	self, n := selfOf(st, "experiments.Run")
	l.set("experiments.artifact_self_ms", ms(self)/float64(max(n, 1)))
	save, n := selfOf(st, "report.Save")
	saveJobs, _ := selfOf(st, "report.SaveJobResults")
	l.set("report.save_ms", ms(save+saveJobs)/float64(max(n, 1)))
	var bytes float64
	for _, o := range traced.ok {
		bytes += o.extra["bytes"]
	}
	l.set("report.bytes_written", ratio(bytes, float64(len(traced.ok))))

	// The environment's in-memory stream memo, built cold per profile.
	var stream time.Duration
	for _, p := range w.profiles {
		env := experiments.NewEnvContext(ctx, w.options())
		t0 := time.Now()
		if _, err := env.Stream(p); err != nil {
			return err
		}
		stream += time.Since(t0)
	}
	l.set("experiments.stream_ms", ms(stream)/float64(len(w.profiles)))
	return nil
}

func (w *fig10Quick) close() {}

// jobsDigest hashes per-job results in key order.
func jobsDigest(jobs []report.JobResult) string {
	s := append([]report.JobResult(nil), jobs...)
	sort.Slice(s, func(i, j int) bool { return s[i].Key < s[j].Key })
	parts := make([][]byte, 0, 2*len(s))
	for _, j := range s {
		parts = append(parts, []byte(j.Key), j.Data)
	}
	return digestOf(parts...)
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) int64 {
	var n int64
	filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err == nil && d.Type().IsRegular() {
			if fi, err := d.Info(); err == nil {
				n += fi.Size()
			}
		}
		return nil
	})
	return n
}

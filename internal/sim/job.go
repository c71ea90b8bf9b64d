package sim

import (
	"context"
	"errors"
	"fmt"
	"io"
	"reflect"

	"repro/internal/frontend"
	"repro/internal/prefetch"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Job names one simulation: a record source (live workload execution by
// default), a configuration, and a declarative spec for the prefetch
// engine. Jobs are the unit of work of the execution backends
// (internal/runner): because every engine is stateful, a job carries a
// spec rather than an instance, and RunJob constructs everything it
// touches, so any number of jobs can run concurrently — goroutine safety
// by construction, with no package-level state anywhere in the
// simulation path. The spec is plain data, so the same job runs
// identically on a local worker or across the remote wire.
type Job struct {
	// Config parameterizes the run (system, warmup, measured interval).
	Config Config
	// Workload is the simulated workload profile. It supplies the
	// front-end seed and the result's name even when the record stream
	// comes from a recorded source.
	Workload workload.Profile
	// Program optionally supplies a pre-built program image (e.g. from the
	// experiments environment cache). Programs are immutable after
	// construction, so one image may be shared by concurrent jobs. When
	// nil, RunJob builds the image from Workload.
	Program *workload.Program
	// From, when non-nil, supplies the job's record stream: RunJob opens
	// the source, pulls warmup plus measured records from the returned
	// iterator, and closes it (when it implements io.Closer) after the
	// run. Store and slice sources replay recorded traces instead of
	// executing the workload; a LiveSource with no explicit phases runs
	// the executor directly, byte-identical to a job with no source at
	// all. A source that cannot supply WarmupInstrs+MeasureInstrs records
	// is a hard error — never a silently short run.
	From Source
	// Source, when non-nil, supplies the retire-order stream as an
	// already-open iterator. The iterator must be private to the job and
	// is not closed by RunJob.
	//
	// Deprecated: use From with StoreSource/SliceSource/OpenerSource,
	// which carry source metadata and manage the iterator's lifetime.
	Source trace.Iterator
	// Engine is the declarative spec of the job's prefetch engine: a
	// registry name plus parameters, resolved into a fresh private
	// instance through the prefetch registry when the job runs.
	Engine prefetch.Spec
	// Instrument, when non-nil, is invoked once with the job's freshly
	// constructed engine before the run starts (e.g. to attach a
	// stream-end hook). It is process-local state: remote backends
	// refuse jobs carrying it.
	Instrument func(prefetch.Prefetcher)
	// Observer, when non-nil, receives per-event callbacks during the
	// measured interval. It must be private to the job (observers are
	// invoked from the job's goroutine).
	Observer Observer
}

// cancelCheckMask throttles context polling to once per 64K retired
// instructions (~microseconds of real time), keeping the cancellation
// check off the per-instruction hot path.
const cancelCheckMask = 1<<16 - 1

// RunJob executes one simulation job: resolve the engine spec into a
// fresh prefetcher, resolve the record source, build (or adopt) the
// program image when executing live, warm up, measure. The context is
// polled periodically; on cancellation the run is aborted and ctx.Err()
// returned. RunJob is safe for concurrent use — it shares no mutable
// state with other runs beyond the read-only Program. It is the
// one-lane case of RunJobs.
func RunJob(ctx context.Context, j Job) (Result, error) {
	res, err := RunJobs(ctx, []Job{j})
	if err != nil {
		return Result{}, err
	}
	return res[0], nil
}

// RunJobs executes jobs that read the same record stream as lanes of one
// pass: one executor (or source iterator) and one frontend feed every
// lane's back half — its own L1-I, prefetch engine, polluter and
// counters — in lockstep. Each lane sees its own events in the same
// order as when it runs alone, so its Result is identical to RunJob's
// for that job, and the front half is simulated once instead of once
// per job.
//
// Lanes must agree on everything the front half reads: workload and
// program, record stream (From nil, or the same source value),
// Config.System's front-end parameters, and the warmup, offset and
// measure lengths. Anything else — engine spec, PerfectL1, L1-I and
// polluter geometry, latencies, Instrument, Observer — may differ per
// lane. A mismatch is an error naming the differing field. Results are
// in lane order; an error (cancellation included) applies to every
// lane.
func RunJobs(ctx context.Context, jobs []Job) ([]Result, error) {
	engines := make([]prefetch.Prefetcher, len(jobs))
	for i, j := range jobs {
		if j.Engine.Name == "" {
			return nil, fmt.Errorf("sim: job for %q names no engine", j.Workload.Name)
		}
		p, err := prefetch.Resolve(j.Engine)
		if err != nil {
			return nil, fmt.Errorf("sim: job for %q: %w", j.Workload.Name, err)
		}
		engines[i] = p
	}
	jobs, err := checkLanes(jobs, engines)
	if err != nil {
		return nil, err
	}
	for i, j := range jobs {
		if j.Instrument != nil {
			j.Instrument(engines[i])
		}
	}
	return runLanes(ctx, jobs, engines)
}

// RunWith executes a job with an already-constructed engine instance,
// bypassing the job's Engine spec. It exists for instance-based entry
// points (pif.SimulateSource, parity tests); the instance must be
// private to this run — engines are stateful.
func RunWith(ctx context.Context, j Job, p prefetch.Prefetcher) (Result, error) {
	engines := []prefetch.Prefetcher{p}
	jobs, err := checkLanes([]Job{j}, engines)
	if err != nil {
		return Result{}, err
	}
	res, err := runLanes(ctx, jobs, engines)
	if err != nil {
		return Result{}, err
	}
	return res[0], nil
}

// checkLanes validates each lane, adopts a live source's profile into a
// lane that names no workload, and checks that every lane agrees with
// lane 0 on what the front half reads. It returns the adopted copies.
func checkLanes(jobs []Job, engines []prefetch.Prefetcher) ([]Job, error) {
	if len(jobs) == 0 {
		return nil, fmt.Errorf("sim: no jobs")
	}
	jobs = append([]Job(nil), jobs...)
	for i := range jobs {
		j := &jobs[i]
		if j.Config.MeasureInstrs == 0 {
			return nil, fmt.Errorf("sim: zero measurement interval")
		}
		if engines[i] == nil {
			return nil, fmt.Errorf("sim: job for %q has no prefetch engine", j.Workload.Name)
		}
		if j.From != nil && j.Source != nil {
			return nil, fmt.Errorf("sim: job for %q sets both From and the deprecated Source iterator", j.Workload.Name)
		}
		if ls, ok := j.From.(*liveSource); ok {
			// A live source carries the full profile, so a job that
			// names no workload adopts it (front-end seed included)
			// instead of silently simulating with a zero profile.
			if j.Workload.Name == "" {
				j.Workload = ls.w
			} else if j.Workload.Name != ls.w.Name {
				return nil, fmt.Errorf("sim: job for %q has a live source for %q", j.Workload.Name, ls.w.Name)
			}
		}
	}
	lead := jobs[0]
	for i := 1; i < len(jobs); i++ {
		if field := laneMismatch(lead, jobs[i]); field != "" {
			return nil, fmt.Errorf("sim: lane %d (job for %q) differs from lane 0 in %s; lanes share one record stream and frontend",
				i, jobs[i].Workload.Name, field)
		}
	}
	return jobs, nil
}

// laneMismatch names the first field the front half reads on which j
// differs from lead ("" when the two can share a pass).
func laneMismatch(lead, j Job) string {
	a, b := lead.Config, j.Config
	switch {
	case j.Workload != lead.Workload:
		return "Workload"
	case j.Program != lead.Program:
		return "Program"
	case !sameValue(j.From, lead.From):
		return "From"
	case !sameValue(j.Source, lead.Source):
		return "Source"
	case b.System.Predictor != a.System.Predictor:
		return "Config.System.Predictor"
	case b.System.MaxWrongPathBlocks != a.System.MaxWrongPathBlocks:
		return "Config.System.MaxWrongPathBlocks"
	case b.WarmupInstrs != a.WarmupInstrs:
		return "Config.WarmupInstrs"
	case b.MeasureOffsetInstrs != a.MeasureOffsetInstrs:
		return "Config.MeasureOffsetInstrs"
	case b.MeasureInstrs != a.MeasureInstrs:
		return "Config.MeasureInstrs"
	}
	return ""
}

// sameValue reports whether a and b hold the same comparable value (or
// are both nil); values of uncomparable types never match.
func sameValue(a, b any) bool {
	if a == nil || b == nil {
		return a == nil && b == nil
	}
	t := reflect.TypeOf(a)
	return t == reflect.TypeOf(b) && t.Comparable() && a == b
}

// runLanes resolves the lanes' shared record stream and runs the pass.
// jobs have been through checkLanes, so lane 0 speaks for all of them
// on everything the front half reads.
func runLanes(ctx context.Context, jobs []Job, engines []prefetch.Prefetcher) ([]Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	lead := jobs[0]
	if lead.Source != nil {
		// Deprecated pre-opened iterator path: the caller owns the
		// iterator's lifetime.
		return replayJob(ctx, jobs, engines, lead.Source)
	}
	if lead.From == nil {
		return liveJob(ctx, jobs, engines)
	}
	if ls, ok := lead.From.(*liveSource); ok && len(ls.phases) == 0 {
		// Live fast path: run the executor directly under the job's own
		// warmup/measure split — no iterator goroutine, and
		// byte-identical to a job with no source at all.
		return liveJob(ctx, jobs, engines)
	}
	if lead.Workload.Name == "" {
		// Replay sources supply records but not a profile, and the
		// profile's front-end seed shapes the result: running with the
		// zero profile would silently diverge from every workload-named
		// run of the same trace.
		return nil, fmt.Errorf("sim: job with a record source names no workload profile (the profile supplies the front-end seed)")
	}
	it, info, err := lead.From.Open(ctx)
	if err != nil {
		return nil, err
	}
	res, rerr := runOpened(ctx, jobs, engines, it, info)
	if c, ok := it.(io.Closer); ok {
		if cerr := c.Close(); cerr != nil && rerr == nil {
			rerr = cerr
		}
	}
	return res, rerr
}

// runOpened validates an opened source against the jobs and replays it.
func runOpened(ctx context.Context, jobs []Job, engines []prefetch.Prefetcher, it trace.Iterator, info SourceInfo) ([]Result, error) {
	j := jobs[0]
	if info.Workload != "" && j.Workload.Name != "" && info.Workload != j.Workload.Name {
		return nil, fmt.Errorf("sim: job for %q replays a source recorded from %q (%s)",
			j.Workload.Name, info.Workload, info)
	}
	if need := j.Config.WarmupInstrs + j.Config.MeasureOffsetInstrs + j.Config.MeasureInstrs; info.Records > 0 && info.Records < need {
		return nil, fmt.Errorf("sim: %s supplies %d records, need %d (warmup+offset+measure)",
			info, info.Records, need)
	}
	return replayJob(ctx, jobs, engines, it)
}

// pass is one pass over a record stream: a single frontend feeding the
// back halves (lanes) of one or more simulators in lockstep. The
// frontend reads no cache or engine state, so every lane receives
// exactly the access stream it would produce alone.
type pass struct {
	lanes []*Simulator
	// step consumes one retired instruction in every lane: the
	// frontend's accesses for it first, then the retirement. A single
	// lane steps through Simulator.Step directly, with no per-record
	// loop over lanes.
	step func(trace.Record)
}

// newPass builds the pass's frontend from lane 0 (the lanes agree on its
// configuration) and one back half per job.
func newPass(jobs []Job, engines []prefetch.Prefetcher) *pass {
	lead := jobs[0]
	fe := frontend.New(lead.Config.System.Frontend(lead.Workload.Seed))
	p := &pass{}
	for i, j := range jobs {
		p.lanes = append(p.lanes, newLane(j.Config, engines[i], j.Workload.Seed, fe))
	}
	if len(p.lanes) == 1 {
		p.step = p.lanes[0].Step
		return p
	}
	lanes := p.lanes
	emit := func(a frontend.Access) {
		for _, s := range lanes {
			s.access(a)
		}
	}
	p.step = func(r trace.Record) {
		fe.Feed(r, emit)
		for _, s := range lanes {
			s.retire(r)
		}
	}
	return p
}

// results snapshots every lane.
func (p *pass) results(workload string) []Result {
	out := make([]Result, len(p.lanes))
	for i, s := range p.lanes {
		out[i] = s.result(workload)
	}
	return out
}

// measure runs the methodology over the pass — warm up, reset, offset,
// measure — pulling records through feed, which steps the pass n times
// or fails.
func (p *pass) measure(jobs []Job, feed func(n uint64) error) ([]Result, error) {
	cfg, name := jobs[0].Config, jobs[0].Workload.Name
	if cfg.WarmupInstrs > 0 {
		if err := feed(cfg.WarmupInstrs); err != nil {
			return nil, err
		}
		for _, s := range p.lanes {
			s.resetStats()
		}
	}
	var snap []Result
	if cfg.MeasureOffsetInstrs > 0 {
		// The offset runs with statistics accumulating (no reset): the
		// measured interval is reported as deltas against this snapshot,
		// so state and clock evolve exactly as in an offset-free run
		// (see Config.MeasureOffsetInstrs).
		if err := feed(cfg.MeasureOffsetInstrs); err != nil {
			return nil, err
		}
		snap = p.results(name)
	}
	for i, s := range p.lanes {
		s.obs = jobs[i].Observer
	}
	if err := feed(cfg.MeasureInstrs); err != nil {
		return nil, err
	}
	res := p.results(name)
	if snap != nil {
		for i := range res {
			res[i] = res[i].deltaFrom(snap[i])
		}
	}
	return res, nil
}

// liveJob executes the jobs by running the workload program once.
func liveJob(ctx context.Context, jobs []Job, engines []prefetch.Prefetcher) ([]Result, error) {
	prog := jobs[0].Program
	if prog == nil {
		var err error
		prog, err = workload.BuildProgram(jobs[0].Workload)
		if err != nil {
			return nil, err
		}
	}

	ex := workload.NewExecutor(prog)
	p := newPass(jobs, engines)

	// The cancellation wrapper does not perturb the instruction stream, so
	// completed runs are bit-identical whether or not a cancelable context
	// is attached.
	step := p.step
	if ctx.Done() != nil {
		var n uint64
		step = func(r trace.Record) {
			p.step(r)
			n++
			if n&cancelCheckMask == 0 {
				select {
				case <-ctx.Done():
					ex.Abort()
				default:
				}
			}
		}
	}
	return p.measure(jobs, func(n uint64) error {
		ex.Run(n, step)
		return ctx.Err()
	})
}

// replayBatch is the record batch replayJob decodes per NextBatch call:
// large enough to amortize the batch call and the context poll, small
// enough that the buffer stays cache-warm across the step loop.
const replayBatch = 4096

// replayJob drives the jobs from a record iterator instead of a live
// executor: records stream through the same pass in batches decoded
// into one preallocated buffer, so the replay loop performs no
// per-record interface calls and no allocation, and peak memory is the
// source's own buffer (one store chunk, one executor batch), never the
// trace length.
func replayJob(ctx context.Context, jobs []Job, engines []prefetch.Prefetcher, src trace.Iterator) ([]Result, error) {
	name := jobs[0].Workload.Name
	p := newPass(jobs, engines)
	step := p.step
	b := trace.Batched(src)
	buf := make([]trace.Record, replayBatch)
	return p.measure(jobs, func(n uint64) error {
		for done := uint64(0); done < n; {
			want := n - done
			if want > replayBatch {
				want = replayBatch
			}
			k, err := b.NextBatch(buf[:want])
			for _, r := range buf[:k] {
				step(r)
			}
			done += uint64(k)
			if err != nil {
				if errors.Is(err, io.EOF) {
					return fmt.Errorf("sim: trace source for %q exhausted after %d of %d records: %w",
						name, done, n, io.ErrUnexpectedEOF)
				}
				return fmt.Errorf("sim: trace source for %q: %w", name, err)
			}
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		return nil
	})
}

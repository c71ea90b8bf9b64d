package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/cache"
	"repro/internal/config"
	"repro/internal/frontend"
	"repro/internal/isa"
	"repro/internal/prefetch"
	"repro/internal/sim"
	"repro/internal/sweep"
	"repro/internal/trace"
	"repro/internal/workload"
)

// fixedJobRecords is the window of the job that measures RunJob's fixed
// per-job cost.
const fixedJobRecords = 1000

// engineNames are the registered engines the traced run drives.
var engineNames = []string{"pif", "tifs", "nextline", "none"}

// perLayer lists every per-layer metric with its unit, in print order.
// A layer a workload leaves idle reports 0.
func perLayer() [][2]string {
	m := [][2]string{
		{"trace.decode_ns_per_rec", "ns"},
		{"trace.allocs_per_rec", "count"},
		{"trace.open_us", "us"},
		{"workload.build_program_ms", "ms"},
		{"workload.exec_ns_per_rec", "ns"},
		{"frontend.feed_ns_per_rec", "ns"},
		{"frontend.accesses_per_rec", "count"},
		{"frontend.wrong_path_frac", "ratio"},
		{"cache.access_ns", "ns"},
		{"cache.hit_rate", "ratio"},
	}
	for _, e := range engineNames {
		m = append(m,
			[2]string{"prefetch." + e + ".ns_per_event", "ns"},
			[2]string{"prefetch." + e + ".issued_per_kinstr", "1/kinstr"},
			[2]string{"prefetch." + e + ".accuracy", "ratio"})
	}
	return append(m,
		[2]string{"sim.self_ns_per_rec", "ns"},
		[2]string{"sim.job_fixed_ms", "ms"},
		[2]string{"sim.split_us", "us"},
		[2]string{"sim.merge_us", "us"},
		[2]string{"sim.allocs_per_job", "count"},
		[2]string{"sweep.expand_us", "us"},
		[2]string{"runner.busy_frac", "ratio"},
		[2]string{"runner.cpu_util", "ratio"},
		[2]string{"runner.job_ms_p50", "ms"},
		[2]string{"experiments.stream_ms", "ms"},
		[2]string{"experiments.artifact_self_ms", "ms"},
		[2]string{"report.save_ms", "ms"},
		[2]string{"report.bytes_written", "bytes"},
		[2]string{"remote.job_overhead_ms", "ms"},
		[2]string{"expsvc.submit_ms", "ms"},
		[2]string{"expsvc.queue_ms", "ms"},
		[2]string{"expsvc.run_ms", "ms"},
		[2]string{"go.gc_cpu_frac", "ratio"},
		[2]string{"go.alloc_bytes_per_rec", "bytes"},
		[2]string{"go.gc_cycles_per_op", "count"},
		[2]string{"trace.overhead_ratio", "ratio"},
	)
}

// layers collects the traced run's per-layer metrics and the
// informational lines printed beside them.
type layers struct {
	vals  map[string]float64
	notes []string
	// plainP50 is the untraced op median of the same run.
	plainP50 time.Duration
}

func newLayers() *layers {
	l := &layers{vals: map[string]float64{}}
	for _, m := range perLayer() {
		l.vals[m[0]] = 0
	}
	return l
}

func (l *layers) set(name string, v float64) {
	if _, ok := l.vals[name]; !ok {
		panic("perfbench: unlisted per-layer metric " + name)
	}
	l.vals[name] = v
}

func (l *layers) get(name string) float64 { return l.vals[name] }

func (l *layers) note(format string, args ...any) {
	l.notes = append(l.notes, fmt.Sprintf(format, args...))
}

// timeExpand times the grid expansion of the workload's sweep spec.
func (l *layers) timeExpand(spec sweep.Spec) error {
	const reps = 200
	d, err := timeMedian(5, func() error {
		for i := 0; i < reps; i++ {
			if _, err := spec.Expand(); err != nil {
				return err
			}
		}
		return nil
	})
	l.set("sweep.expand_us", us(d)/reps)
	return err
}

// runnerFrom fills the runner metrics from the jobs the traced ops'
// runner reported: busy is Σ job wall time over (op time × workers).
func (l *layers) runnerFrom(traced loopResult, workers int) {
	var jobs []time.Duration
	var busy, span time.Duration
	for _, o := range traced.ok {
		span += o.dur
		for _, j := range o.jobs {
			busy += j
			jobs = append(jobs, j)
		}
	}
	l.set("runner.busy_frac", ratio(float64(busy), float64(span)*float64(workers)))
	l.set("runner.cpu_util", ratio(float64(traced.cpu), float64(traced.wall)*float64(workers)))
	l.set("runner.job_ms_p50", ms(median(jobs)))
}

// ledgerInput is the record stream the traced run drives every
// per-record layer over in isolation: records of the workload's own
// stream, and the trace store holding them at offset off.
type ledgerInput struct {
	prof     workload.Profile   // profile the records come from
	profiles []workload.Profile // every profile the workload builds
	records  trace.Stream
	store    string
	off      uint64
}

func (in ledgerInput) window(n uint64) trace.Window { return trace.Window{Off: in.off, Len: n} }

// liveLedger executes the profile for n records and stores them.
func liveLedger(dir string, prof workload.Profile, profiles []workload.Profile, n uint64) (ledgerInput, error) {
	prog, err := workload.BuildProgram(prof)
	if err != nil {
		return ledgerInput{}, err
	}
	recs := make(trace.Stream, 0, n)
	workload.NewExecutor(prog).Run(n, func(r trace.Record) { recs = append(recs, r) })
	store := filepath.Join(dir, "ledger-store")
	os.RemoveAll(store)
	if _, err := trace.BuildStore(store, prof.Name, 0, recs.Iter()); err != nil {
		return ledgerInput{}, err
	}
	return ledgerInput{prof: prof, profiles: profiles, records: recs, store: store}, nil
}

// cacheIssuer is the prefetch.Issuer of an isolated engine drive: a real
// L1-I model that prefetches fill directly.
type cacheIssuer struct {
	c      *cache.Cache
	issued uint64
}

func (i *cacheIssuer) Contains(b isa.Block) bool { return i.c.Contains(b) }

func (i *cacheIssuer) Prefetch(b isa.Block) {
	if i.c.Contains(b) {
		return
	}
	i.c.Fill(b, true)
	i.issued++
}

// feed is the frontend's access stream for a record stream: ends[i] is
// one past the last access emitted while feeding record i.
type feed struct {
	accs []frontend.Access
	ends []uint32
}

// engineDrive replays the access and retire streams through an L1-I and
// one engine, the way the simulator interleaves them. A nil engine
// drives the cache alone, so the engine's cost is the difference.
func engineDrive(recs trace.Stream, f feed, l1 cache.Config, p prefetch.Prefetcher) (d time.Duration, issued, covered uint64) {
	c := cache.New(l1)
	iss := &cacheIssuer{c: c}
	tagged := true
	k := 0
	t0 := time.Now()
	for i, r := range recs {
		for end := int(f.ends[i]); k < end; k++ {
			a := f.accs[k]
			hit, wasPref := c.Access(a.Block)
			if !a.WrongPath {
				if hit && wasPref {
					covered++
				}
				tagged = !(hit && wasPref)
			}
			if !hit {
				c.Fill(a.Block, false)
			}
			if p != nil {
				p.OnAccess(prefetch.AccessEvent{Block: a.Block, TL: a.TL, WrongPath: a.WrongPath, Hit: hit, WasPrefetched: wasPref}, iss)
			}
		}
		if p != nil {
			p.OnRetire(r, tagged, iss)
		}
	}
	return time.Since(t0), iss.issued, covered
}

// driveLedger times each per-record layer in isolation over the ledger
// stream, and the simulator's fixed per-job costs. Timing each record
// separately would measure the clock, so every figure is one timed pass
// over the whole stream (the median of several) divided by its length.
func (b *bench) driveLedger(ctx context.Context, in ledgerInput, l *layers) error {
	const reps = 5
	sys := config.Default()
	recs := in.records
	n := uint64(len(recs))
	fn := float64(n)

	// trace: batch decode of the ledger's window of the store.
	buf := make([]trace.Record, 4096)
	var decodes []time.Duration
	var allocs uint64
	for i := 0; i < reps; i++ {
		r, err := trace.OpenSlice(in.store, in.window(n))
		if err != nil {
			return err
		}
		m0 := mallocs()
		t0 := time.Now()
		got := uint64(0)
		for {
			k, err := r.NextBatch(buf)
			got += uint64(k)
			if err != nil {
				break
			}
		}
		decodes = append(decodes, time.Since(t0))
		allocs = mallocs() - m0
		r.Close()
		if got != n {
			return fmt.Errorf("ledger decode read %d records, want %d", got, n)
		}
	}
	decode := median(decodes)
	l.set("trace.decode_ns_per_rec", float64(decode)/fn)
	l.set("trace.allocs_per_rec", float64(allocs)/fn)
	open, err := timeMedian(50, func() error {
		r, err := trace.OpenStore(in.store)
		if err != nil {
			return err
		}
		return r.Close()
	})
	if err != nil {
		return err
	}
	l.set("trace.open_us", us(open))

	// workload: program builds and executor throughput.
	var build time.Duration
	for _, p := range in.profiles {
		d, err := timeMedian(3, func() error { _, err := workload.BuildProgram(p); return err })
		if err != nil {
			return err
		}
		build += d
	}
	l.set("workload.build_program_ms", ms(build)/float64(len(in.profiles)))
	prog, err := workload.BuildProgram(in.prof)
	if err != nil {
		return err
	}
	exec, _ := timeMedian(3, func() error {
		workload.NewExecutor(prog).Run(n, func(trace.Record) {})
		return nil
	})
	l.set("workload.exec_ns_per_rec", float64(exec)/fn)

	// frontend: the access stream, recorded once and reused below.
	f := feed{accs: make([]frontend.Access, 0, 2*n), ends: make([]uint32, n)}
	feCfg := sys.Frontend(in.prof.Seed)
	feedDur, _ := timeMedian(reps, func() error {
		fe := frontend.New(feCfg)
		f.accs = f.accs[:0]
		emit := func(a frontend.Access) { f.accs = append(f.accs, a) }
		for i, r := range recs {
			fe.Feed(r, emit)
			f.ends[i] = uint32(len(f.accs))
		}
		return nil
	})
	wrong := 0
	for _, a := range f.accs {
		if a.WrongPath {
			wrong++
		}
	}
	nacc := float64(len(f.accs))
	l.set("frontend.feed_ns_per_rec", float64(feedDur)/fn)
	l.set("frontend.accesses_per_rec", nacc/fn)
	l.set("frontend.wrong_path_frac", ratio(float64(wrong), nacc))

	// cache alone over the access stream (demand fills, no prefetch).
	l1 := sys.L1I()
	var hits uint64
	access, _ := timeMedian(reps, func() error {
		c := cache.New(l1)
		hits = 0
		for _, a := range f.accs {
			hit, _ := c.Access(a.Block)
			if hit {
				hits++
			} else {
				c.Fill(a.Block, false)
			}
		}
		return nil
	})
	l.set("cache.access_ns", ratio(float64(access), nacc))
	l.set("cache.hit_rate", ratio(float64(hits), nacc))

	// Each engine against a real cache, less the same drive without an
	// engine.
	base, _ := timeMedian(reps, func() error {
		engineDrive(recs, f, l1, nil)
		return nil
	})
	events := nacc + fn
	var pifDrive time.Duration
	for _, name := range engineNames {
		var issued, covered uint64
		d, err := timeMedian(reps, func() error {
			p, err := prefetch.Resolve(prefetch.Spec{Name: name})
			if err != nil {
				return err
			}
			_, issued, covered = engineDrive(recs, f, l1, p)
			return nil
		})
		if err != nil {
			return err
		}
		if name == "pif" {
			pifDrive = d
		}
		l.set("prefetch."+name+".ns_per_event", float64(d-base)/events)
		l.set("prefetch."+name+".issued_per_kinstr", 1000*float64(issued)/fn)
		l.set("prefetch."+name+".accuracy", ratio(float64(covered), float64(issued)))
	}

	// sim: a whole RunJob over the same records, minus the isolated
	// layers, is the simulator's own per-record work.
	cfg := sim.Config{System: sys, WarmupInstrs: n / 2, MeasureInstrs: n - n/2}
	src := sim.SliceSource(in.store, in.window(n))
	var res sim.Result
	job, err := timeMedian(3, func() error {
		var err error
		res, err = sim.RunJob(ctx, sim.Job{Config: cfg, Workload: in.prof, From: src, Engine: pifSpec})
		return err
	})
	if err != nil {
		return err
	}
	l.set("sim.self_ns_per_rec", float64(job-decode-feedDur-access-(pifDrive-base))/fn)

	fixedN := min(fixedJobRecords, n)
	fixedJob := sim.Job{Config: sim.Config{System: sys, MeasureInstrs: fixedN}, Workload: in.prof,
		From: sim.SliceSource(in.store, trace.Window{Len: fixedN}), Engine: pifSpec}
	fixed, err := timeMedian(20, func() error { _, err := sim.RunJob(ctx, fixedJob); return err })
	if err != nil {
		return err
	}
	m0 := mallocs()
	if _, err := sim.RunJob(ctx, fixedJob); err != nil {
		return err
	}
	l.set("sim.allocs_per_job", float64(mallocs()-m0))
	l.set("sim.job_fixed_ms", ms(fixed))

	const small = 2000
	split, err := timeMedian(5, func() error {
		for i := 0; i < small; i++ {
			if _, err := sim.SplitReplay(cfg, 4, false); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	l.set("sim.split_us", us(split)/small)
	shards := []sim.Result{res, res, res, res}
	merge, err := timeMedian(5, func() error {
		for i := 0; i < small; i++ {
			if _, err := sim.MergeShardResults(shards); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	l.set("sim.merge_us", us(merge)/small)
	return nil
}

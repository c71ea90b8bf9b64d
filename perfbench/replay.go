package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/config"
	"repro/internal/prefetch"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/sweep"
	"repro/internal/trace"
	"repro/internal/workload"
)

var pifSpec = prefetch.Spec{Name: "pif"}

// xlShards is the shard-xl cell's shard count.
const xlShards = 4

// xlCell is the OLTP XL trace store that replay-xl and shard-xl replay:
// a ~7 MB instruction footprint against the 64 KB L1-I, recorded once at
// set-up with the simulator's warmup/measure phase boundaries.
type xlCell struct {
	b    *bench
	prof workload.Profile
	cfg  sim.Config
	dir  string
	ref  string // digest of the oracle's replayed result
	reps int
}

func newXLCell(b *bench) *xlCell {
	return &xlCell{
		b:    b,
		prof: b.profile(workload.OLTPXL()),
		cfg: sim.Config{
			System:        config.Default(),
			WarmupInstrs:  b.sc.xlWarmup,
			MeasureInstrs: b.sc.xlMeasure,
		},
	}
}

func (c *xlCell) records() uint64 { return c.cfg.WarmupInstrs + c.cfg.MeasureInstrs }

// setup records the store and checks that replaying it equals running
// the workload live (the TestReplayMatchesLive oracle).
func (c *xlCell) setup(ctx context.Context) error {
	if c.dir != "" {
		os.RemoveAll(c.dir)
	}
	c.reps++
	c.dir = filepath.Join(c.b.workDir, fmt.Sprintf("xl-store-%d", c.reps))
	prog, err := workload.BuildProgram(c.prof)
	if err != nil {
		return err
	}
	it := workload.NewIterator(prog, c.cfg.WarmupInstrs, c.cfg.MeasureInstrs)
	n, err := trace.BuildStore(c.dir, c.prof.Name, 0, it, c.cfg.WarmupInstrs, c.cfg.MeasureInstrs)
	it.Close()
	if err != nil {
		return fmt.Errorf("record %s store: %w", c.prof.Name, err)
	}
	if n != c.records() {
		return fmt.Errorf("recorded %d records, want %d", n, c.records())
	}
	live, err := sim.RunJob(ctx, sim.Job{Config: c.cfg, Workload: c.prof, Program: prog, Engine: pifSpec})
	if err != nil {
		return err
	}
	replayed, err := sim.RunJob(ctx, sim.Job{Config: c.cfg, Workload: c.prof, From: sim.StoreSource(c.dir), Engine: pifSpec})
	if err != nil {
		return err
	}
	lj, err := json.Marshal(live)
	if err != nil {
		return err
	}
	rj, err := json.Marshal(replayed)
	if err != nil {
		return err
	}
	if !bytes.Equal(lj, rj) {
		return checkError{fmt.Errorf("replay differs from live execution:\nlive:   %s\nreplay: %s", lj, rj)}
	}
	c.ref = digestOf(rj)
	return nil
}

func (c *xlCell) ledger(context.Context) (ledgerInput, error) {
	// Steady-state records: the ledger starts at the first chunk boundary
	// (so opening it decodes nothing to seek), near where the op measures.
	var off uint64
	if c.records() >= trace.DefaultChunkRecords+c.b.sc.ledgerRecords {
		off = trace.DefaultChunkRecords
	}
	n := min(c.b.sc.ledgerRecords, c.records()-off)
	r, err := trace.OpenSlice(c.dir, trace.Window{Off: off, Len: n})
	if err != nil {
		return ledgerInput{}, err
	}
	defer r.Close()
	recs, err := trace.Collect(r)
	if err != nil {
		return ledgerInput{}, err
	}
	return ledgerInput{prof: c.prof, profiles: []workload.Profile{c.prof}, records: recs, store: c.dir, off: off}, nil
}

func (c *xlCell) close() {
	if c.dir != "" {
		os.RemoveAll(c.dir)
	}
}

// replayXL is one serial RunJob of the pif engine over the XL store.
type replayXL struct{ *xlCell }

func (w replayXL) clients() int      { return 1 }
func (w replayXL) reference() string { return w.ref }

func (w replayXL) op(ctx context.Context, tr *tracer, opID, parent int) (opOutcome, error) {
	var res sim.Result
	err := tr.call("sim.RunJob", parent, opID, func() error {
		var err error
		res, err = sim.RunJob(ctx, sim.Job{Config: w.cfg, Workload: w.prof, From: sim.StoreSource(w.dir), Engine: pifSpec})
		return err
	})
	if err != nil {
		return opOutcome{}, err
	}
	j, err := json.Marshal(res)
	return opOutcome{records: w.records(), digest: digestOf(j)}, err
}

func (w replayXL) probe(ctx context.Context, l *layers, traced loopResult) error {
	spec := w.cellSpec(0)
	if err := l.timeExpand(spec); err != nil {
		return err
	}
	// The op is one RunJob: its traced time less the isolated per-record
	// layers is the simulator's own work. Each layer's share is taken of
	// the untraced op time, so the shares sum to the tracing overhead.
	job, n := selfOf(w.b.tr.stats(), "sim.RunJob")
	recs := float64(w.records())
	parts := []string{"trace", "frontend", "cache", "prefetch.pif"}
	vals := []float64{
		l.get("trace.decode_ns_per_rec"),
		l.get("frontend.feed_ns_per_rec"),
		l.get("cache.access_ns") * l.get("frontend.accesses_per_rec"),
		l.get("prefetch.pif.ns_per_event") * (1 + l.get("frontend.accesses_per_rec")),
	}
	self := ratio(float64(job), float64(n)*recs)
	for _, v := range vals {
		self -= v
	}
	l.set("sim.self_ns_per_rec", self)
	parts, vals = append(parts, "sim"), append(vals, self)
	op := float64(l.plainP50) / recs
	sum := 0.0
	line := ""
	for i, p := range parts {
		sum += vals[i]
		line += fmt.Sprintf(" %s %.1f%%", p, 100*ratio(vals[i], op))
	}
	l.note("layer shares of replay-xl op time (serial, 1 worker, GOMAXPROCS=%d):%s; sum %.1f%% against a tracing overhead ratio of %.3f",
		gomaxprocs(), line, 100*ratio(sum, op), l.get("trace.overhead_ratio"))
	return nil
}

// cellSpec is the XL cell as a one-cell sweep, sharded when shards > 1.
func (c *xlCell) cellSpec(shards int) sweep.Spec {
	dir := c.dir
	return sweep.Spec{
		Name:            "shard-xl",
		Base:            c.cfg,
		BaseShards:      shards,
		BaseShardApprox: true,
		Axes: []sweep.Axis{
			sweep.WorkloadAxis("workload", []workload.Profile{c.prof}),
			sweep.EngineAxis("engine", "pif"),
			sweep.SourceAxis("source", []sweep.SourceChoice{{
				Key: "store",
				New: func(*sweep.Settings) sim.Source { return sim.StoreSource(dir) },
			}}),
		},
	}
}

// shardXL is the same cell run through sweep.Run with its measured
// interval split into window shards (approximate mode) on a local pool.
type shardXL struct{ *xlCell }

func (w shardXL) clients() int      { return 1 }
func (w shardXL) reference() string { return "" }

func (w shardXL) op(ctx context.Context, tr *tracer, opID, parent int) (opOutcome, error) {
	var out opOutcome
	eng := sweep.PoolEngine{Ctx: ctx, Workers: w.b.workers}
	sp := tr.start("sweep.Run", parent, opID)
	if tr != nil {
		eng.OnProgress = func(p runner.Progress) {
			now := time.Now()
			tr.add("runner.job", sp, opID, now.Add(-p.Elapsed), now)
			out.jobs = append(out.jobs, p.Elapsed)
		}
	}
	g, err := sweep.Run(eng, w.cellSpec(xlShards))
	tr.end(sp)
	if err != nil {
		return out, err
	}
	if len(g.Results) != 1 || g.Results[0].Err != nil {
		return out, fmt.Errorf("sharded cell: %v", g.Results)
	}
	j, err := json.Marshal(g.Results[0].Sim)
	out.records = w.records()
	out.digest = digestOf(j)
	return out, err
}

func (w shardXL) probe(ctx context.Context, l *layers, traced loopResult) error {
	spec := w.cellSpec(xlShards)
	if err := l.timeExpand(spec); err != nil {
		return err
	}
	plans, err := sim.SplitReplay(w.cfg, xlShards, false)
	if err != nil {
		return err
	}
	open, err := timeMedian(50, func() error {
		for _, p := range plans {
			r, err := trace.OpenSlice(w.dir, p.Window)
			if err != nil {
				return err
			}
			r.Close()
		}
		return nil
	})
	if err != nil {
		return err
	}
	l.set("trace.open_us", us(open)/float64(len(plans)))
	l.runnerFrom(traced, w.b.workers)

	// The unsharded twin, in the same process, for the speed-up ratio.
	serial := replayXL{w.xlCell}
	var sd []time.Duration
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		if _, err := serial.op(ctx, nil, 0, 0); err != nil {
			return err
		}
		sd = append(sd, time.Since(t0))
	}
	shardRate := float64(w.records()) / median(traced.durations()).Seconds()
	serialRate := float64(w.records()) / median(sd).Seconds()
	l.note("shard-xl over replay-xl sim_mrec_per_s: %.3fx (%d shards, approximate mode, %d workers, GOMAXPROCS=%d; serial twin at 1 worker)",
		ratio(shardRate, serialRate), xlShards, w.b.workers, gomaxprocs())
	return nil
}

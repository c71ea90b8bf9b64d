// Command pifsim runs workload/prefetcher simulations and prints the
// measured coverage, miss ratio, and UIPC — the unit of work every figure
// of the evaluation is built from.
//
// -workload accepts a comma-separated list (or "all") and -engine is
// repeatable; the cross product is one design-space sweep (pif.RunSweep)
// whose cells fan out over a worker pool (-parallel) with per-cell
// wall-clock timing. Cells that read the same record stream run as
// lanes of one pass. A single cell prints the full result detail.
//
// Engines are declarative specs: -engine takes "name" or
// "name:param=value,..." (integer params accept K/M suffixes),
// validated against each engine's registered schema — run
// `pifsim -list-engines` to print every schema. Without -engine the
// engine is pif.
//
// Usage:
//
//	pifsim [-workload "OLTP DB2,Web Apache"|all] [-engine pif:budget_kb=32]
//	       [-engine tifs] [-parallel N] [-perfect] [-warmup N] [-measure N] [-v]
//	pifsim -trace apache.store [-engine pif ...] ...
//	pifsim -trace apache.store -source slice@8M:2M [-engine ...] ...
//	pifsim -trace apache.store -shards 4 [-exact] [-engine ...] ...
//	pifsim -list-engines
//
// The -source flag selects where the instruction stream comes from:
// "live" (default — execute the workload program), "store" (replay the
// sharded on-disk trace store named by -trace from record 0; implied by
// -trace alone), or "slice@off:len" (replay only the record window
// [off, off+len) of the store, located through the store index without
// decoding the prefix — off and len accept K/M suffixes). Replay jobs
// stream the trace chunk by chunk (peak memory one chunk, not the trace
// length). The store is checked before any job starts: it must hold
// warmup+measure records (the slice, its window) and, for a full-store
// replay, carry a compatible phase split.
//
// -shards K splits each store-replay cell into K window-shard jobs that
// run on the same pool (-parallel) and are stitched back into one
// result: a sharded run is a one-cell sweep with BaseShards = K. With
// -exact the stitched result is bit-identical to the unsharded replay.
// With -v each shard job prints its own progress line ("[shard k/K]").
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	pif "repro"
	"repro/internal/prof"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "pifsim:", err)
		os.Exit(1)
	}
}

// run parses args, runs the requested simulations and writes the report
// to out; progress lines (-v) go to stderr.
func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("pifsim", flag.ExitOnError)
	wlNames := fs.String("workload", "OLTP DB2", "comma-separated workload names, or \"all\" (see -list)")
	traceDir := fs.String("trace", "", "replay a sharded trace store directory instead of executing a workload")
	sourceSpec := fs.String("source", "", "record source: live, store, or slice@off:len (store and slice replay the -trace store; default live, or store when -trace is set)")
	list := fs.Bool("list", false, "list workloads and prefetchers and exit")
	listEngines := fs.Bool("list-engines", false, "print every engine's parameter schema and exit")
	var engineSpecs engineFlags
	fs.Var(&engineSpecs, "engine", "engine spec name[:param=value,...] (repeatable; default pif)")
	parallel := fs.Int("parallel", 0, "worker pool size (0 = GOMAXPROCS)")
	perfect := fs.Bool("perfect", false, "simulate the perfect-latency L1 bound")
	warmup := fs.Uint64("warmup", 8_000_000, "warmup instructions")
	measure := fs.Uint64("measure", 2_000_000, "measured instructions")
	backendSpec := fs.String("backend", "local", "execution backend: local, or remote@ADDR (a pifcoord coordinator; jobs run on its worker fleet)")
	authToken := fs.String("auth-token", "", "bearer token for a token-protected remote coordinator (empty for an open one)")
	shards := fs.Int("shards", 1, "split a store replay into N parallel windows and stitch the results (needs -trace)")
	exact := fs.Bool("exact", false, "sharded replay: measure each shard as a clock delta on the full trace prefix, so every counter — timing included — matches sequential replay bit for bit (parity mode; the last shard replays the whole trace, so expect no speedup)")
	verbose := fs.Bool("v", false, "print full result struct (single cell) or per-job progress")
	var profile prof.Flags
	profile.Register(fs)
	fs.Parse(args)

	if err := profile.Start(); err != nil {
		return err
	}
	defer profile.Stop()

	if *list {
		fmt.Fprintln(out, "workloads:")
		for _, w := range pif.Workloads() {
			fmt.Fprintln(out, "  "+w.Name)
		}
		fmt.Fprintln(out, "prefetchers:")
		for _, n := range pif.PrefetcherNames() {
			fmt.Fprintln(out, "  "+n)
		}
		return nil
	}
	if *listEngines {
		for i, sch := range pif.EngineSchemas() {
			if i > 0 {
				fmt.Fprintln(out)
			}
			fmt.Fprint(out, sch.Describe())
		}
		return nil
	}

	engines, err := resolveEngines(engineSpecs)
	if err != nil {
		return err
	}

	cfg := pif.DefaultSimConfig()
	cfg.WarmupInstrs = *warmup
	cfg.MeasureInstrs = *measure
	cfg.PerfectL1 = *perfect

	// Resolve the record source: -trace alone implies a full-store
	// replay; -source store/slice requires the store.
	src := *sourceSpec
	if src == "" {
		src = "live"
		if *traceDir != "" {
			src = "store"
		}
	}
	var win *pif.TraceWindow
	switch {
	case src == "live":
		if *traceDir != "" {
			return errors.New("-source live contradicts -trace (drop one)")
		}
	case src == "store":
	case strings.HasPrefix(src, "slice@"):
		w, err := pif.ParseTraceWindow(strings.TrimPrefix(src, "slice@"))
		if err != nil {
			return err
		}
		win = &w
	default:
		return fmt.Errorf("unknown -source %q (have live, store, slice@off:len)", src)
	}
	if *shards > 1 && src != "store" {
		return errors.New("-shards needs a full-store replay (-trace DIR without -source slice)")
	}
	if *exact && *shards <= 1 {
		return errors.New("-exact only applies to sharded replay (-shards N)")
	}

	spec := pif.SweepSpec{
		Name:            "pifsim",
		Base:            cfg,
		BaseShards:      *shards,
		BaseShardApprox: !*exact,
	}
	if src == "live" {
		workloads, err := resolveWorkloads(*wlNames)
		if err != nil {
			return err
		}
		spec.Axes = append(spec.Axes, pif.SweepWorkloadAxis("workload", workloads))
	} else {
		if *traceDir == "" {
			return fmt.Errorf("-source %s needs -trace DIR", src)
		}
		// The store names the workload; an explicit -workload alongside
		// -trace would be silently ignored, so reject the combination.
		workloadSet := false
		fs.Visit(func(f *flag.Flag) { workloadSet = workloadSet || f.Name == "workload" })
		if workloadSet {
			return errors.New("-workload and -trace are mutually exclusive (the store names its workload)")
		}
		wl, err := checkStore(*traceDir, win, cfg)
		if err != nil {
			return err
		}
		source, key := pif.StoreSource(*traceDir), "store"
		if win != nil {
			source, key = pif.SliceSource(*traceDir, *win), "slice"
		}
		spec.Axes = append(spec.Axes,
			pif.SweepWorkloadAxis("workload", []pif.Workload{wl}),
			pif.SweepAxis{Name: "source", Values: []pif.SweepValue{{
				Key:   key,
				Name:  src,
				Apply: func(s *pif.SweepSettings) { s.Source = source },
			}}})
	}
	spec.Axes = append(spec.Axes, pif.SweepEngineSpecAxis("engine", engines, nil))

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	backend, err := pif.DialBackendAuth(*backendSpec, *parallel, *authToken)
	if err != nil {
		return err
	}
	defer backend.Close()
	eng := pif.SweepPoolEngine{Ctx: ctx, Workers: *parallel, Backend: backend}
	if *verbose {
		eng.OnProgress = func(p pif.JobProgress) {
			if p.Total > 1 {
				fmt.Fprintf(os.Stderr, "  [%3d/%3d] %-32s %8s\n",
					p.Done, p.Total, p.Label, p.Elapsed.Round(time.Millisecond))
			}
		}
	}

	start := time.Now()
	g, err := pif.RunSweep(eng, spec)
	if err != nil {
		return err
	}
	wall := time.Since(start).Round(time.Millisecond)
	for _, r := range g.Results {
		if r.Err != nil {
			return r.Err
		}
	}

	if *shards > 1 {
		mode := "approx"
		if *exact {
			mode = "exact"
		}
		fmt.Fprintf(out, "sharded replay: %d windows (%s warmup), %s wall-clock\n", *shards, mode, wall)
	}
	if len(g.Results) == 1 {
		printDetail(out, g.Results[0], *perfect, *verbose)
		return nil
	}
	fmt.Fprintf(out, "%-14s %-14s %8s %8s %8s %10s\n",
		"workload", "prefetcher", "UIPC", "missrat", "coverage", "time")
	for _, r := range g.Results {
		fmt.Fprintf(out, "%-14s %-14s %8.4f %8.4f %7.1f%% %10s\n",
			r.Sim.Workload, r.Sim.Prefetcher, r.Sim.UIPC, r.Sim.MissRatio(),
			r.Sim.Coverage()*100, r.Elapsed.Round(time.Millisecond))
	}
	fmt.Fprintf(out, "(%d job(s) in %s wall-clock)\n", len(g.Results), wall)
	return nil
}

// engineFlags collects repeatable -engine spec strings.
type engineFlags []string

func (e *engineFlags) String() string     { return strings.Join(*e, ",") }
func (e *engineFlags) Set(v string) error { *e = append(*e, v); return nil }

// checkStore validates a replay of the trace store at dir before any job
// starts, for sharded and unsharded replays alike, and returns the
// workload the store names (its profile supplies the front-end seed). A
// full-store replay needs warmup+measure records and a phase split
// compatible with them; a slice is its own experiment — the window, not
// the recorded phase split, defines what is replayed — so only the
// window and its record budget are checked.
func checkStore(dir string, win *pif.TraceWindow, cfg pif.SimConfig) (pif.Workload, error) {
	ix, err := pif.ReadTraceIndex(dir)
	if err != nil {
		return pif.Workload{}, err
	}
	wl, err := pif.WorkloadByName(ix.Workload)
	if err != nil {
		return pif.Workload{}, fmt.Errorf("trace store %s: %w", dir, err)
	}
	need := cfg.WarmupInstrs + cfg.MeasureInstrs
	if win != nil {
		if err := ix.CheckWindow(*win); err != nil {
			return pif.Workload{}, err
		}
		if win.Len < need {
			return pif.Workload{}, fmt.Errorf("window %s holds %d records, need %d (warmup+measure)", win, win.Len, need)
		}
		return wl, nil
	}
	if ix.Records() < need {
		return pif.Workload{}, fmt.Errorf("trace store %s holds %d records, need %d (warmup+measure)", dir, ix.Records(), need)
	}
	if !ix.PhaseCompatible(cfg.WarmupInstrs, cfg.MeasureInstrs) {
		return pif.Workload{}, fmt.Errorf(
			"trace store %s was recorded with phase split %v; replaying -warmup %d -measure %d would silently diverge from a live run (re-record with tracegen -warmup %d, or match the recorded split)",
			dir, ix.Phases, cfg.WarmupInstrs, cfg.MeasureInstrs, cfg.WarmupInstrs)
	}
	return wl, nil
}

// resolveWorkloads expands the -workload flag.
func resolveWorkloads(names string) ([]pif.Workload, error) {
	if names == "all" {
		return pif.Workloads(), nil
	}
	var out []pif.Workload
	for _, name := range strings.Split(names, ",") {
		wl, err := pif.WorkloadByName(strings.TrimSpace(name))
		if err != nil {
			return nil, err
		}
		out = append(out, wl)
	}
	return out, nil
}

// resolveEngines parses the -engine specs (pif when none is given). Every
// spec is validated up front so a typo fails before any job runs.
func resolveEngines(specs []string) ([]pif.EngineSpec, error) {
	if len(specs) == 0 {
		return []pif.EngineSpec{{Name: "pif"}}, nil
	}
	out := make([]pif.EngineSpec, len(specs))
	for i, s := range specs {
		sp, err := pif.ParseEngineSpec(s)
		if err != nil {
			return nil, err
		}
		out[i] = sp
	}
	return out, nil
}

// printDetail prints the single-cell report (the historical pifsim output).
func printDetail(out io.Writer, r pif.JobResult, perfect, verbose bool) {
	res := r.Sim
	fmt.Fprintf(out, "workload    %s\n", res.Workload)
	fmt.Fprintf(out, "prefetcher  %s (perfect L1: %v)\n", res.Prefetcher, perfect)
	fmt.Fprintf(out, "instructions %d  cycles %d  UIPC %.4f\n", res.Instructions, res.Cycles, res.UIPC)
	fmt.Fprintf(out, "fetch: %d correct-path accesses, %d misses (ratio %.4f)\n",
		res.CorrectAccesses, res.CorrectMisses, res.MissRatio())
	fmt.Fprintf(out, "prefetch: %d issued, %d useful (coverage %.1f%%)\n",
		res.PrefetchesIssued, res.CoveredMisses, res.Coverage()*100)
	fmt.Fprintf(out, "stall cycles %d\n", res.StallCycles)
	fmt.Fprintf(out, "wall-clock  %s\n", r.Elapsed.Round(time.Millisecond))
	if verbose {
		fmt.Fprintf(out, "\nL1: %+v\nfront-end: %+v\n", res.L1, res.FE)
	}
}

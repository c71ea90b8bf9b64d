// Command perfbench is the repository's benchmark. It measures host
// time and memory of four workloads — serial trace replay, the paper's
// Figure 10 artifact, a sharded sweep cell and the experiment service —
// and checks every op's simulated output. Run it from the repository
// root through run.sh, which builds it:
//
//	bash perfbench/run.sh --workload replay-xl --seed 1 --seconds 20 --trace 0
//
// --trace 0 prints the end-to-end metrics; --trace 1 runs the traced
// run instead and prints the per-layer metrics. The last line of
// standard output is one JSON object: correct, attempted, failed and
// metrics. --workload all runs every workload in turn, each ending with
// its own result line. See NOTES.md for the workloads, metrics and
// known defects.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strconv"
	"syscall"
	"time"

	_ "repro/internal/core" // registers the PIF engines
)

// workloadDef names one workload and why the benchmark runs it.
type workloadDef struct {
	name, why string
	new       func(*bench) benchWorkload
}

var workloadDefs = []workloadDef{
	{"replay-xl", "serial pif replay of a 6M-record OLTP XL store: per-record layers (decode, frontend, cache, engine) dominate",
		func(b *bench) benchWorkload { return replayXL{newXLCell(b)} }},
	{"fig10-quick", "the paper's headline Figure 10 at -quick scale, 30 jobs on 2 workers: runner, program builds and report writes",
		func(b *bench) benchWorkload { return newFig10(b) }},
	{"shard-xl", "the replay-xl cell through sweep.Run with 4 approximate shards on 2 workers: split, slice open, merge and parallel use",
		func(b *bench) benchWorkload { return shardXL{newXLCell(b)} }},
	{"service", "2 closed-loop HTTP clients submitting a two-cell sweep to expsvc over a remote coordinator: wire, leases, queue, run DB",
		func(b *bench) benchWorkload { return newService(b) }},
}

// endToEnd lists the end-to-end metrics the untraced run reports.
var endToEnd = [][2]string{
	{"setup_s", "s"},
	{"sim_mrec_per_s", "Mrec/s"},
	{"op_p50_ms", "ms"},
	{"op_tail_ms", "ms"},
	{"cpu_s_per_mrec", "s/Mrec"},
	{"peak_rss_mb", "MiB"},
}

// checkError marks a failed output check, as opposed to an error that
// stopped the benchmark.
type checkError struct{ error }

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := run(ctx, os.Args[1:], os.Stdout)
	stop()
	os.Exit(code)
}

func run(ctx context.Context, args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run: replay-xl, fig10-quick, shard-xl, service, or all of them in turn")
	seed := fs.String("seed", "", "seed replacing the Seed of every workload profile the benchmark builds (default: the profiles' own seeds)")
	seconds := fs.Float64("seconds", 22, "seconds one run measures")
	traceFlag := fs.Int("trace", 0, "0 reports end-to-end metrics; 1 runs the traced run and reports per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var defs []workloadDef
	for _, d := range workloadDefs {
		if d.name == *name || *name == "all" {
			defs = append(defs, d)
		}
	}
	if len(defs) == 0 || *seconds <= 0 || (*traceFlag != 0 && *traceFlag != 1) {
		logf("need --workload (replay-xl, fig10-quick, shard-xl, service or all), --seconds > 0 and --trace 0 or 1")
		return 2
	}
	var seedp *int64
	if *seed != "" {
		s, err := strconv.ParseInt(*seed, 10, 64)
		if err != nil {
			logf("bad --seed: %v", err)
			return 2
		}
		seedp = &s
	}
	code := 0
	for _, def := range defs {
		b := &bench{sc: fullScale(), seed: seedp, workers: min(2, runtime.GOMAXPROCS(0))}
		code = max(code, runOne(ctx, b, def, *seconds, *traceFlag == 1, stdout))
	}
	return code
}

// runOne runs one workload and prints its result line, returning the
// process exit code.
func runOne(ctx context.Context, b *bench, def workloadDef, seconds float64, traced bool, stdout io.Writer) int {
	res, err := execute(ctx, b, def, seconds, traced, ".bench_build", stdout)
	if err != nil && !errors.As(err, new(checkError)) {
		logf("%s: %v", def.name, err)
		return 1
	}
	line, jerr := json.Marshal(res)
	if jerr != nil {
		logf("%v", jerr)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		logf("%s: output checks failed: %v", def.name, err)
		return 1
	}
	return 0
}

// execute sets the workload up, measures it and returns the result
// line; it prints the human-readable report to out.
func execute(ctx context.Context, b *bench, def workloadDef, seconds float64, traced bool, outDir string, out io.Writer) (result, error) {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return result{}, err
	}
	work, err := os.MkdirTemp(outDir, "work-")
	if err != nil {
		return result{}, err
	}
	defer os.RemoveAll(work)
	b.workDir = work
	w := def.new(b)
	defer w.close()

	seedLabel := "default" // the profiles' own seeds
	if b.seed != nil {
		seedLabel = strconv.FormatInt(*b.seed, 10)
	}
	fmt.Fprintf(out, "perfbench workload=%s seed=%s traced=%v gomaxprocs=%d workers=%d clients=%d (closed loop)\n",
		def.name, seedLabel, traced, gomaxprocs(), b.workers, w.clients())

	reps, minSetup := b.sc.setupReps, b.sc.setupMin
	if traced {
		reps, minSetup = 1, 0
	}
	var setups []time.Duration
	for spent := time.Duration(0); len(setups) < reps || spent < minSetup; {
		t0 := time.Now()
		if err := w.setup(ctx); err != nil {
			if errors.As(err, new(checkError)) {
				return result{Attempted: 1, Failed: 1, Metrics: map[string]metric{}}, err
			}
			return result{}, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(t0))
		spent += setups[len(setups)-1]
	}

	if traced {
		return b.tracedRun(ctx, w, def, seconds, outDir, seedLabel, out)
	}

	runtime.GC()
	lr := b.runLoop(ctx, w, seconds, nil)
	if ctx.Err() != nil {
		return result{}, ctx.Err()
	}
	ds := lr.durations()
	mrec := float64(lr.records) / 1e6
	tv, pct, beyond := tail(ds)
	vals := map[string]float64{
		"setup_s":        median(setups).Seconds(),
		"sim_mrec_per_s": ratio(mrec, lr.wall.Seconds()),
		"op_p50_ms":      ms(median(ds)),
		"op_tail_ms":     ms(tv),
		"cpu_s_per_mrec": ratio(lr.cpu.Seconds(), mrec),
		"peak_rss_mb":    peakRSSMB(),
	}
	res := result{Correct: lr.failed == 0, Attempted: lr.attempted, Failed: lr.failed, Metrics: map[string]metric{}}
	notes := map[string]string{
		"setup_s":    fmt.Sprintf("median of %d set-ups", len(setups)),
		"op_tail_ms": fmt.Sprintf("p%.1f, %d samples beyond it, %d ops", pct, beyond, len(ds)),
	}
	for _, m := range endToEnd {
		res.Metrics[m[0]] = metric{Value: vals[m[0]], Unit: m[1]}
		fmt.Fprintf(out, "  %-16s %14.4f %-7s %s\n", m[0], vals[m[0]], m[1], notes[m[0]])
	}
	fmt.Fprintf(out, "  %-16s %14.4f %-7s %d of %d ops\n", "failed_frac", ratio(float64(lr.failed), float64(lr.attempted)), "ratio", lr.failed, lr.attempted)
	fmt.Fprintf(out, "  %-16s %s\n", "sim_digest", lr.digest)
	printNotes(out, lr)
	return res, lr.firstErr
}

// tracedRun measures the window with every other op traced, then times
// every layer from outside and reports the per-layer metrics.
func (b *bench) tracedRun(ctx context.Context, w benchWorkload, def workloadDef, seconds float64, outDir, seedLabel string, out io.Writer) (result, error) {
	b.tr = newTracer()
	runtime.GC()
	lr := b.runLoop(ctx, w, seconds, b.tr)
	if ctx.Err() != nil {
		return result{}, ctx.Err()
	}
	plain, traced := lr.only(false), lr.only(true)
	res := result{Correct: lr.failed == 0, Attempted: lr.attempted, Failed: lr.failed, Metrics: map[string]metric{}}

	l := newLayers()
	l.plainP50 = median(plain.durations())
	l.set("trace.overhead_ratio", ratio(float64(median(traced.durations())), float64(l.plainP50)))
	l.set("go.gc_cpu_frac", lr.rt.gcCPUFrac())
	l.set("go.alloc_bytes_per_rec", ratio(float64(lr.rt.allocBytes), float64(lr.records)))
	l.set("go.gc_cycles_per_op", ratio(float64(lr.rt.gcCycles), float64(len(lr.ok))))
	in, err := w.ledger(ctx)
	if err != nil {
		return res, fmt.Errorf("ledger: %w", err)
	}
	if err := b.driveLedger(ctx, in, l); err != nil {
		return res, fmt.Errorf("layer drives: %w", err)
	}
	if err := w.probe(ctx, l, traced); err != nil {
		return res, fmt.Errorf("probe: %w", err)
	}

	spans := filepath.Join(outDir, fmt.Sprintf("spans-%s-seed-%s.jsonl", def.name, seedLabel))
	if err := b.tr.write(spans); err != nil {
		return res, err
	}
	fmt.Fprintf(out, "  spans: %d traced ops, %d untraced; written to %s\n", len(traced.ok), len(plain.ok), spans)
	fmt.Fprintf(out, "  %-28s %6s %12s %12s\n", "span", "count", "total_ms", "self_ms")
	for _, s := range b.tr.stats() {
		fmt.Fprintf(out, "  %-28s %6d %12.3f %12.3f\n", s.Name, s.Count, ms(s.Total), ms(s.Self))
	}
	for _, m := range perLayer() {
		v := l.get(m[0])
		res.Metrics[m[0]] = metric{Value: v, Unit: m[1]}
		fmt.Fprintf(out, "  %-34s %14.4f %s\n", m[0], v, m[1])
	}
	for _, n := range l.notes {
		fmt.Fprintf(out, "  note: %s\n", n)
	}
	fmt.Fprintf(out, "  %-16s %s\n", "sim_digest", traced.digest)
	printNotes(out, lr)
	return res, lr.firstErr
}

// printNotes prints the op findings and the first failure of a loop.
func printNotes(out io.Writer, lr loopResult) {
	for _, n := range lr.notes {
		fmt.Fprintf(out, "  output note: %s\n", n)
	}
	if lr.firstErr != nil {
		fmt.Fprintf(out, "  first failure: %v\n", lr.firstErr)
	}
}

func gomaxprocs() int { return runtime.GOMAXPROCS(0) }

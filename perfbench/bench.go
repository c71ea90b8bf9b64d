package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"slices"
	"sort"
	"sync"
	"syscall"
	"time"

	"repro/internal/workload"
)

// scale sizes every workload. fullScale is what the benchmark measures;
// tinyScale keeps the self-test to seconds.
type scale struct {
	// xlWarmup and xlMeasure are the replay-xl / shard-xl cell's window.
	xlWarmup, xlMeasure uint64
	// svcWarmup and svcMeasure are the service sweep's window.
	svcWarmup, svcMeasure uint64
	// One run sets up at least setupReps times, and more until the
	// set-ups have taken setupMin, so short set-ups still yield a steady
	// median (setup_s).
	setupReps int
	setupMin  time.Duration
	// ledgerRecords is the record stream the traced run drives each
	// per-record layer over in isolation.
	ledgerRecords uint64
}

func fullScale() scale {
	return scale{
		xlWarmup: 1_000_000, xlMeasure: 5_000_000,
		svcWarmup: 200_000, svcMeasure: 100_000,
		setupReps: 3, setupMin: 2 * time.Second, ledgerRecords: 1 << 20,
	}
}

func tinyScale() scale {
	return scale{
		xlWarmup: 20_000, xlMeasure: 40_000,
		svcWarmup: 10_000, svcMeasure: 10_000,
		setupReps: 1, ledgerRecords: 20_000,
	}
}

// bench is one benchmark process: its inputs' seed, scale, scratch
// directory, worker count and (in the traced run) tracer.
type bench struct {
	sc      scale
	seed    *int64 // nil keeps every profile's own seed
	workDir string
	workers int
	tr      *tracer // nil when untraced
}

// profile applies the benchmark seed to a workload profile.
func (b *bench) profile(p workload.Profile) workload.Profile {
	if b.seed != nil {
		p.Seed = *b.seed
	}
	return p
}

// benchWorkload is one named workload. Every op is a closed loop: a
// client waits for an op's reply before starting the next.
type benchWorkload interface {
	// setup builds the workload's inputs, starts what it needs and runs
	// its oracle checks. It may be called repeatedly; each call replaces
	// the previous set-up.
	setup(ctx context.Context) error
	// clients is the number of concurrent closed-loop clients.
	clients() int
	// reference is the digest every op must reproduce, or "" to take the
	// run's first op as the reference.
	reference() string
	// op runs one operation, under the given parent span of tr when tr
	// is not nil, and checks its output.
	op(ctx context.Context, tr *tracer, opID, parent int) (opOutcome, error)
	// ledger names the record stream the traced run drives the
	// per-record layers over.
	ledger(ctx context.Context) (ledgerInput, error)
	// probe fills the per-layer metrics only this workload exercises,
	// from the traced ops and from calls into the layers' public API.
	probe(ctx context.Context, l *layers, traced loopResult) error
	close()
}

// opOutcome is one finished op.
type opOutcome struct {
	dur     time.Duration
	records uint64 // simulated window records (warmup + measure) the op asked for
	digest  string // hash of every simulated counter the op produced
	// jobs are the per-job wall times the op's runner reported (traced
	// runs only).
	jobs []time.Duration
	// extra holds workload-specific traced figures; id names the
	// service run.
	extra  map[string]float64
	id     string
	traced bool
	// notes are findings about the op's output that are reported but
	// are not failures.
	notes []string
}

// loopResult summarises one closed-loop measurement.
type loopResult struct {
	ok        []opOutcome
	attempted int
	failed    int
	records   uint64
	wall      time.Duration
	cpu       time.Duration
	rt        runtimeSample // counter deltas over the loop
	digest    string
	firstErr  error
	notes     []string // distinct op notes
}

// runLoop drives the workload's clients in closed loops for the given
// duration. A client starts another op only while the op it just ran
// would still fit in the window, and always runs at least one. With a
// tracer, every other op is traced, so drift in the host's speed falls
// on traced and untraced ops alike, and each client runs at least two.
func (b *bench) runLoop(ctx context.Context, w benchWorkload, seconds float64, tr *tracer) loopResult {
	window := time.Duration(seconds * float64(time.Second))
	var (
		mu     sync.Mutex
		res    loopResult
		ref    = w.reference()
		nextID int
		wg     sync.WaitGroup
	)
	minRuns := 1
	if tr != nil {
		minRuns = 2
	}
	rt0 := readRuntime()
	cpu0 := cpuTime()
	start := time.Now()
	for c := 0; c < w.clients(); c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var last time.Duration
			runs, fails := 0, 0
			for ctx.Err() == nil {
				if runs >= minRuns && time.Since(start)+last > window {
					return
				}
				mu.Lock()
				nextID++
				id := nextID
				mu.Unlock()
				opTr := tr
				if id%2 == 0 {
					opTr = nil
				}
				sp := opTr.start("op", 0, id)
				t0 := time.Now()
				o, err := w.op(ctx, opTr, id, sp)
				if o.dur == 0 {
					o.dur = time.Since(t0)
				}
				opTr.end(sp)
				o.traced = opTr != nil
				last = o.dur
				runs++

				mu.Lock()
				if err == nil {
					if ref == "" {
						ref = o.digest
					} else if o.digest != ref {
						err = fmt.Errorf("op %d: simulated results differ from the reference (digest %s, want %s)", id, o.digest, ref)
					}
				}
				res.attempted++
				if err != nil {
					res.failed++
					if res.firstErr == nil {
						res.firstErr = err
					}
					fails++
				} else {
					fails = 0
					res.ok = append(res.ok, o)
					for _, n := range o.notes {
						if !slices.Contains(res.notes, n) {
							res.notes = append(res.notes, n)
						}
					}
					res.records += o.records
				}
				mu.Unlock()
				if fails >= 3 {
					return
				}
			}
		}()
	}
	wg.Wait()
	res.wall = time.Since(start)
	res.cpu = cpuTime() - cpu0
	res.rt = readRuntime().sub(rt0)
	res.digest = ref
	return res
}

// only returns r with just the traced (or untraced) ops.
func (r loopResult) only(traced bool) loopResult {
	r.ok = slices.DeleteFunc(slices.Clone(r.ok), func(o opOutcome) bool { return o.traced != traced })
	r.records = 0
	for _, o := range r.ok {
		r.records += o.records
	}
	return r
}

func (r loopResult) durations() []time.Duration {
	d := make([]time.Duration, len(r.ok))
	for i, o := range r.ok {
		d[i] = o.dur
	}
	return d
}

// median returns the median of ds (0 for none).
func median(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tail returns the highest percentile that has at least ten samples
// beyond it, the percentile, and the number of samples beyond it. With
// fewer than eleven samples no percentile qualifies, so it reports the
// maximum (the 100th percentile, nothing beyond).
func tail(ds []time.Duration) (v time.Duration, pct float64, beyond int) {
	if len(ds) == 0 {
		return 0, 0, 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	n := len(s)
	if n < 11 {
		return s[n-1], 100, 0
	}
	return s[n-11], 100 * float64(n-10) / float64(n), 10
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set size in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

// runtimeSample holds the Go runtime counters the go.* metrics use.
type runtimeSample struct {
	gcCPU, totalCPU, idleCPU float64
	allocBytes, gcCycles     uint64
}

var runtimeMetricNames = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/cpu/classes/idle:cpu-seconds",
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
}

func readRuntime() runtimeSample {
	s := make([]metrics.Sample, len(runtimeMetricNames))
	for i, n := range runtimeMetricNames {
		s[i].Name = n
	}
	metrics.Read(s)
	f := func(i int) float64 {
		if s[i].Value.Kind() == metrics.KindFloat64 {
			return s[i].Value.Float64()
		}
		return 0
	}
	u := func(i int) uint64 {
		if s[i].Value.Kind() == metrics.KindUint64 {
			return s[i].Value.Uint64()
		}
		return 0
	}
	return runtimeSample{gcCPU: f(0), totalCPU: f(1), idleCPU: f(2), allocBytes: u(3), gcCycles: u(4)}
}

func (a runtimeSample) sub(b runtimeSample) runtimeSample {
	return runtimeSample{
		gcCPU: a.gcCPU - b.gcCPU, totalCPU: a.totalCPU - b.totalCPU, idleCPU: a.idleCPU - b.idleCPU,
		allocBytes: a.allocBytes - b.allocBytes, gcCycles: a.gcCycles - b.gcCycles,
	}
}

// gcCPUFrac is the share of the CPU the process used that went to GC.
func (d runtimeSample) gcCPUFrac() float64 {
	used := d.totalCPU - d.idleCPU
	if used <= 0 {
		return 0
	}
	return d.gcCPU / used
}

// digestOf hashes byte strings into a short stable digest.
func digestOf(parts ...[]byte) string {
	h := sha256.New()
	for _, p := range parts {
		fmt.Fprintf(h, "%d:", len(p))
		h.Write(p)
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}

// mallocs is the process's cumulative heap allocation count.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// timeMedian runs fn reps times and returns the median duration.
func timeMedian(reps int, fn func() error) (time.Duration, error) {
	ds := make([]time.Duration, 0, reps)
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		ds = append(ds, time.Since(t0))
	}
	return median(ds), nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func logf(format string, args ...any) { fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...) }

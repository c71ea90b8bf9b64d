// Package bench runs the replay-performance benchmark suite
// programmatically (testing.Benchmark) and serializes the measurements
// as the committed BENCH_replay.json artifact. The artifact is
// CI-enforced like a golden fixture, with one twist: raw numbers vary by
// machine, so freshness is checked structurally (schema, configuration,
// benchmark-name set must match a regeneration) while the performance
// claims the PR makes — batch decode speedup, allocation-free replay —
// are re-measured and enforced as invariants on every CI run.
package bench

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"testing"

	"repro/internal/prefetch"
	"repro/internal/sim"
	"repro/internal/sweep"
	"repro/internal/trace"
	"repro/internal/workload"
)

// SchemaVersion stamps the artifact layout; bump on non-additive change.
const SchemaVersion = 2

// Config pins the benchmark fixture so regenerated artifacts are
// comparable: same workload, same record counts, same batch and shard
// geometry.
type Config struct {
	// Workload names the profile whose retire-order stream is recorded
	// into the benchmark store.
	Workload string `json:"workload"`
	// WarmupRecords + MeasureRecords is the store size; the split also
	// parameterizes the simulation benchmarks.
	WarmupRecords  uint64 `json:"warmup_records"`
	MeasureRecords uint64 `json:"measure_records"`
	// ChunkRecords is the store's records-per-chunk.
	ChunkRecords uint64 `json:"chunk_records"`
	// BatchRecords is the NextBatch buffer size of the batch benchmarks.
	BatchRecords int `json:"batch_records"`
	// Shards is the sharded sweep cell's shard and worker count.
	Shards int `json:"shards"`
	// ChunkSource records which chunk-read path served the auto-selected
	// decode benchmarks on the measuring machine ("mmap" or "readfile") —
	// without it a cross-machine comparison of the mmap rows is
	// uninterpretable. Machine state, not fixture pinning: CheckFresh
	// ignores it, and the mmap floor applies only when it says "mmap".
	ChunkSource string `json:"chunk_source"`
}

// DefaultConfig is the committed artifact's fixture: big enough that
// steady-state behaviour dominates, small enough for a bounded CI step.
func DefaultConfig() Config {
	return Config{
		Workload:       "OLTP DB2",
		WarmupRecords:  50_000,
		MeasureRecords: 350_000,
		ChunkRecords:   1 << 14,
		BatchRecords:   4096,
		Shards:         4,
	}
}

// Measurement is one benchmark's outcome.
type Measurement struct {
	// Name identifies the benchmark ("store_decode/batch", ...).
	Name string `json:"name"`
	// NsPerOp is wall-clock nanoseconds per benchmark operation.
	NsPerOp float64 `json:"ns_per_op"`
	// RecordsPerSec is decode/replay throughput (0 where records are not
	// the unit of work).
	RecordsPerSec float64 `json:"records_per_sec,omitempty"`
	// JobsPerSec is grid-job throughput (runner-suite benchmarks only).
	JobsPerSec float64 `json:"jobs_per_sec,omitempty"`
	// MBPerSec is on-disk trace bytes consumed per second (decode
	// benchmarks only).
	MBPerSec float64 `json:"mb_per_sec,omitempty"`
	// AllocsPerOp and AllocsPerRecord expose the allocation profile;
	// per-record is the number the hot-path invariants bound.
	AllocsPerOp     float64 `json:"allocs_per_op"`
	AllocsPerRecord float64 `json:"allocs_per_record,omitempty"`
	// Parallelism is the worker parallelism the operation actually ran
	// at (min of the requested workers and GOMAXPROCS); 1 labels a
	// serial row. Rows without a worker pool omit it. A sharded row's
	// speedup is only meaningful read against this number — a
	// Parallelism-1 sharded row can only lose.
	Parallelism int `json:"parallelism,omitempty"`
}

// Derived holds the cross-benchmark ratios the PR's performance claims
// are stated in.
type Derived struct {
	// BatchSpeedup is per-record decode time over batch decode time for
	// the same store, both on the ReadFile path (>= 2.0 is the enforced
	// floor).
	BatchSpeedup float64 `json:"batch_speedup"`
	// MmapSpeedup is ReadFile batch-decode time over auto-selected
	// (mmap where supported) batch-decode time. The floor — mmap decode
	// at least matches the copying batch path — is enforced only when
	// Config.ChunkSource reports the mmap path actually served the run.
	MmapSpeedup float64 `json:"mmap_speedup"`
	// SweepCellSpeedup is unsharded sweep-cell time over sharded
	// (approximate-mode) sweep-cell time — the long-tail-cell win the
	// shards setting exists for. Enforced (>= 1.5) only at 4+ CPUs.
	SweepCellSpeedup float64 `json:"sweep_cell_speedup"`
}

// Artifact is the serialized benchmark run (BENCH_replay.json).
type Artifact struct {
	Schema int    `json:"schema"`
	Config Config `json:"config"`
	// GOMAXPROCS records the measuring machine's parallelism — the
	// context a sharded-cell ratio must be read in (on one core the
	// sharded run pays its warmup overhead with no parallel win). It is
	// machine state, not fixture state, so CheckFresh ignores it.
	GOMAXPROCS int           `json:"gomaxprocs"`
	Benchmarks []Measurement `json:"benchmarks"`
	Derived    Derived       `json:"derived"`
}

// Names returns the artifact's benchmark names, sorted.
func (a Artifact) Names() []string {
	names := make([]string, len(a.Benchmarks))
	for i, m := range a.Benchmarks {
		names[i] = m.Name
	}
	sort.Strings(names)
	return names
}

// find returns the named measurement.
func (a Artifact) find(name string) (Measurement, bool) {
	for _, m := range a.Benchmarks {
		if m.Name == name {
			return m, true
		}
	}
	return Measurement{}, false
}

// The invariant floors: the batch decode path must beat per-record by at
// least 2x, decode/replay must be allocation-free per record in steady
// state (the slack absorbs per-run setup amortized over the record
// count), zero-copy mmap decode must at least match the copying batch
// path, and sharding a sweep cell must pay for itself where the cores
// exist.
//
// The mmap floor sits just under 1.0x: with chunks hot in the page
// cache, read(2)+copy and mmap decode time within a few percent of each
// other, so a hard 1.0x would flake on scheduler jitter. The floor's job
// is to catch real regressions — a fault per record, an accidental
// second copy — which land far below 0.95x.
const (
	MinBatchSpeedup     = 2.0
	MaxAllocsPerRecord  = 0.05
	MinMmapSpeedup      = 0.95
	MinSweepCellSpeedup = 1.5
	// SweepCellFloorCPUs gates the sweep-cell floor: below this many
	// CPUs the shard jobs serialize and the ratio measures scheduling
	// overhead, not the claim.
	SweepCellFloorCPUs = 4
)

// CheckInvariants validates the performance claims against a (freshly
// measured) artifact.
func CheckInvariants(a Artifact) error {
	if a.Derived.BatchSpeedup < MinBatchSpeedup {
		return fmt.Errorf("bench: batch decode speedup %.2fx below the %.1fx floor", a.Derived.BatchSpeedup, MinBatchSpeedup)
	}
	for _, name := range []string{"store_decode/batch", "store_decode/mmap", "sim_replay/store"} {
		m, ok := a.find(name)
		if !ok {
			return fmt.Errorf("bench: missing benchmark %q", name)
		}
		if m.AllocsPerRecord > MaxAllocsPerRecord {
			return fmt.Errorf("bench: %s allocates %.4f/record, above the %.2f/record ceiling",
				name, m.AllocsPerRecord, MaxAllocsPerRecord)
		}
	}
	// The mmap floor holds only where mmap actually served the run; a
	// machine that fell back to ReadFile measures the same path twice.
	if a.Config.ChunkSource == "mmap" && a.Derived.MmapSpeedup < MinMmapSpeedup {
		return fmt.Errorf("bench: mmap decode speedup %.2fx below the %.2fx floor (zero-copy decode slower than the copying batch path)",
			a.Derived.MmapSpeedup, MinMmapSpeedup)
	}
	if a.GOMAXPROCS >= SweepCellFloorCPUs && a.Derived.SweepCellSpeedup < MinSweepCellSpeedup {
		return fmt.Errorf("bench: sharded sweep-cell speedup %.2fx below the %.1fx floor at %d CPUs",
			a.Derived.SweepCellSpeedup, MinSweepCellSpeedup, a.GOMAXPROCS)
	}
	return nil
}

// CheckFresh reports whether a committed artifact structurally matches a
// regeneration: same schema, same fixture configuration, same benchmark
// set. Raw timings are machine-dependent and intentionally not compared.
func CheckFresh(committed, fresh Artifact) error {
	if committed.Schema != fresh.Schema {
		return fmt.Errorf("bench: artifact schema %d, regeneration produces %d — regenerate with `make bench`",
			committed.Schema, fresh.Schema)
	}
	// ChunkSource is machine state (which read path the measuring
	// machine supported), not fixture state: blank it for the
	// comparison.
	cc, fc := committed.Config, fresh.Config
	cc.ChunkSource, fc.ChunkSource = "", ""
	if cc != fc {
		return fmt.Errorf("bench: artifact fixture %+v, regeneration uses %+v — regenerate with `make bench`",
			cc, fc)
	}
	cn, fn := committed.Names(), fresh.Names()
	if len(cn) != len(fn) {
		return fmt.Errorf("bench: artifact has %d benchmarks %v, regeneration has %d %v — regenerate with `make bench`",
			len(cn), cn, len(fn), fn)
	}
	for i := range cn {
		if cn[i] != fn[i] {
			return fmt.Errorf("bench: artifact benchmark set %v differs from regeneration %v — regenerate with `make bench`", cn, fn)
		}
	}
	return nil
}

// Run records the benchmark store under a temp directory and executes
// the suite. Progress lines go to logf (nil discards them).
func Run(cfg Config, logf func(format string, args ...any)) (Artifact, error) {
	if logf == nil {
		logf = func(string, ...any) {}
	}
	wl, err := workload.ByName(cfg.Workload)
	if err != nil {
		return Artifact{}, err
	}
	tmp, err := os.MkdirTemp("", "benchreplay-*")
	if err != nil {
		return Artifact{}, err
	}
	defer os.RemoveAll(tmp)
	dir := filepath.Join(tmp, "store")

	logf("recording %d-record %s store (%d records/chunk)...",
		cfg.WarmupRecords+cfg.MeasureRecords, wl.Name, cfg.ChunkRecords)
	prog, err := workload.BuildProgram(wl)
	if err != nil {
		return Artifact{}, err
	}
	it := workload.NewIterator(prog, cfg.WarmupRecords, cfg.MeasureRecords)
	records, err := trace.BuildStore(dir, wl.Name, cfg.ChunkRecords, it, cfg.WarmupRecords, cfg.MeasureRecords)
	it.Close()
	if err != nil {
		return Artifact{}, err
	}
	storeBytes, err := storeSize(dir)
	if err != nil {
		return Artifact{}, err
	}

	simCfg := sim.DefaultConfig()
	simCfg.WarmupInstrs = cfg.WarmupRecords
	simCfg.MeasureInstrs = cfg.MeasureRecords

	// Record which chunk-read path auto selection resolves to on this
	// machine; the mmap rows and their floor are read against it.
	probe, err := trace.OpenStoreMode(dir, trace.ChunkSourceAuto)
	if err != nil {
		return Artifact{}, err
	}
	cfg.ChunkSource = probe.ChunkSourceKind()
	probe.Close()

	a := Artifact{Schema: SchemaVersion, Config: cfg, GOMAXPROCS: runtime.GOMAXPROCS(0)}
	// repeats > 1 takes the fastest of that many benchmark runs; the
	// decode rows finish in about a second each and feed thin-margin
	// derived ratios (MmapSpeedup's floor is 0.95x), so best-of-N is cheap
	// insurance against scheduler noise there. The replay and sweep rows
	// are far slower and feed wide-margin ratios, so they run once.
	run := func(name string, perOpRecords uint64, perOpBytes int64, parallelism, repeats int, body func(b *testing.B)) Measurement {
		logf("benchmark %s...", name)
		r := testing.Benchmark(body)
		for i := 1; i < repeats; i++ {
			if r2 := testing.Benchmark(body); r2.NsPerOp() < r.NsPerOp() {
				r = r2
			}
		}
		m := Measurement{
			Name:        name,
			NsPerOp:     float64(r.NsPerOp()),
			AllocsPerOp: float64(r.MemAllocs) / float64(max(r.N, 1)),
			Parallelism: parallelism,
		}
		if perOpRecords > 0 {
			m.RecordsPerSec = float64(perOpRecords) * float64(r.N) / r.T.Seconds()
			m.AllocsPerRecord = m.AllocsPerOp / float64(perOpRecords)
		}
		if perOpBytes > 0 {
			m.MBPerSec = float64(perOpBytes) * float64(r.N) / r.T.Seconds() / (1 << 20)
		}
		a.Benchmarks = append(a.Benchmarks, m)
		return m
	}
	// The parallelism a pool of the fixture's shard width actually gets.
	shardPar := min(cfg.Shards, runtime.GOMAXPROCS(0))

	// The per-record and batch rows pin the copying ReadFile path so
	// BatchSpeedup isolates batching and the mmap row has a stable
	// baseline; the mmap row uses auto selection (the OpenStore default)
	// so it measures what replay consumers actually get.
	drainStore := func(b *testing.B, mode trace.ChunkSourceMode, buf []trace.Record) {
		r, err := trace.OpenStoreMode(dir, mode)
		if err != nil {
			b.Fatal(err)
		}
		if buf == nil {
			var it trace.Iterator = r // interface call per record, like a naive consumer
			err = drainPerRecord(it)
		} else {
			err = drainBatch(r, buf)
		}
		if err != nil {
			b.Fatal(err)
		}
		r.Close()
	}
	perRecord := run("store_decode/per_record", records, storeBytes, 0, 5, func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			drainStore(b, trace.ChunkSourceReadFile, nil)
		}
	})
	batch := run("store_decode/batch", records, storeBytes, 0, 5, func(b *testing.B) {
		buf := make([]trace.Record, cfg.BatchRecords)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			drainStore(b, trace.ChunkSourceReadFile, buf)
		}
	})
	mmapBatch := run("store_decode/mmap", records, storeBytes, 0, 5, func(b *testing.B) {
		buf := make([]trace.Record, cfg.BatchRecords)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			drainStore(b, trace.ChunkSourceAuto, buf)
		}
	})

	engine := prefetch.Spec{Name: "nextline", Params: map[string]float64{"degree": 4}}
	run("sim_replay/store", records, storeBytes, 1, 1, func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := sim.RunJob(context.Background(), sim.Job{
				Config:   simCfg,
				Workload: wl,
				From:     sim.StoreSource(dir),
				Engine:   engine,
			}); err != nil {
				b.Fatal(err)
			}
		}
	})
	// One sweep cell, unsharded vs sharded (approximate mode — the
	// throughput mode; exact mode trades the speedup for bit parity):
	// the long-tail-cell scenario Settings.Shards exists for.
	cellSpec := func(shards int) sweep.Spec {
		return sweep.Spec{
			Name:            "benchcell",
			Base:            simCfg,
			BaseShards:      shards,
			BaseShardApprox: true,
			Axes: []sweep.Axis{
				sweep.WorkloadAxis("workload", []workload.Profile{wl}),
				sweep.EngineAxis("engine", "nextline"),
				sweep.SourceAxis("source", []sweep.SourceChoice{{
					Key: "store",
					New: func(s *sweep.Settings) sim.Source { return sim.StoreSource(dir) },
				}}),
			},
		}
	}
	runCell := func(name string, shards, parallelism int) Measurement {
		spec := cellSpec(shards)
		return run(name, records, 0, parallelism, 1, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				g, err := sweep.Run(sweep.PoolEngine{Workers: cfg.Shards}, spec)
				if err != nil {
					b.Fatal(err)
				}
				for _, r := range g.Results {
					if r.Err != nil {
						b.Fatal(r.Err)
					}
				}
			}
		})
	}
	cellSerial := runCell("sweep_cell/serial", 0, 1)
	cellSharded := runCell(fmt.Sprintf("sweep_cell/sharded_%d", cfg.Shards), cfg.Shards, shardPar)

	spec := sweep.Spec{
		Name: "bench",
		Base: simCfg,
		Axes: []sweep.Axis{
			sweep.WorkloadAxis("workload", workload.StandardSuite()),
			sweep.EngineAxis("engine", "pif", "tifs", "nextline", "none"),
		},
	}
	grid, err := spec.Expand()
	if err != nil {
		return Artifact{}, err
	}
	cells := uint64(len(grid.Cells))
	run("sweep_expand/cell", cells, 0, 0, 1, func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := spec.Expand(); err != nil {
				b.Fatal(err)
			}
		}
	})

	a.Derived = Derived{
		BatchSpeedup:     perRecord.NsPerOp / batch.NsPerOp,
		MmapSpeedup:      batch.NsPerOp / mmapBatch.NsPerOp,
		SweepCellSpeedup: cellSerial.NsPerOp / cellSharded.NsPerOp,
	}
	return a, nil
}

// drainPerRecord pulls the iterator dry one Next at a time.
func drainPerRecord(it trace.Iterator) error {
	for {
		if _, err := it.Next(); err != nil {
			if err == io.EOF {
				return nil
			}
			return err
		}
	}
}

// drainBatch pulls the batch iterator dry through buf.
func drainBatch(it trace.BatchIterator, buf []trace.Record) error {
	for {
		if _, err := it.NextBatch(buf); err != nil {
			if err == io.EOF {
				return nil
			}
			return err
		}
	}
}

// storeSize sums the on-disk bytes of a store's chunks and index.
func storeSize(dir string) (int64, error) {
	var total int64
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	for _, e := range entries {
		info, err := e.Info()
		if err != nil {
			return 0, err
		}
		total += info.Size()
	}
	return total, nil
}

// Package pif is the public API of this reproduction of "Proactive
// Instruction Fetch" (Ferdman, Kaynak, Falsafi — MICRO 2011): an L1
// instruction prefetcher that records the correct-path, retire-order
// instruction stream in compact spatial-region form and replays recorded
// streams to eliminate instruction-fetch stalls.
//
// The evaluation pipeline is built from three orthogonal, composable
// axes — Source → Engine → Backend — feeding the report layer:
//
//   - a Source names what to simulate: live workload execution
//     (LiveSource), a recorded sharded trace store (StoreSource), or one
//     record window of it (SliceSource, TraceWindow), so sweeps fan out
//     over trace slices without re-executing workloads;
//   - a prefetch engine names what is being evaluated: a declarative,
//     serializable EngineSpec ("pif", or "pif" tuned via params — see
//     ParseEngineSpec and EngineSchemas for each engine's parameter
//     schema) resolved through the engine registry, with direct
//     constructors (NewPIF, NewTIFS, NewNextLine, NoPrefetch) for
//     programmatic use;
//   - a Backend names where jobs run: the in-process LocalBackend today,
//     any Submit/Results/Close implementation tomorrow (Pool,
//     SweepPoolEngine.Backend, ExperimentOptions.Backend).
//
// The package re-exports the pieces a downstream user needs:
//
//   - the simulator producing the paper's coverage and UIPC metrics
//     (Simulate, SimulateSource, SimConfig);
//   - the synthetic server-workload generator standing in for the paper's
//     commercial suite (Workloads, GenerateStream, GenerateIterator);
//   - the sharded on-disk trace store and its slice addressing
//     (CreateTraceStore, OpenTraceStore, OpenTraceSlice, BuildTraceStore);
//   - the execution layer fanning simulation jobs out with
//     deterministic, submission-ordered results (Job, RunJobs, Backend,
//     LocalBackend);
//   - the declarative design-space sweep engine (SweepSpec, RunSweep,
//     BuildSweepSpec) and the experiment drivers regenerating every
//     table and figure of the paper's evaluation (RunExperiment,
//     ExperimentIDs), plus the schema-versioned results store used to
//     diff runs (SaveResults, DiffResults).
//
// Quick start:
//
//	res, err := pif.Simulate(pif.DefaultSimConfig(), pif.OLTPDB2(), pif.NewPIF(pif.DefaultPIFConfig()))
//	fmt.Printf("coverage=%.1f%% speedup base needed separately\n", res.Coverage()*100)
//
// Replay one window of a recorded trace store instead:
//
//	w, _ := pif.ParseTraceWindow("8M:2M")
//	res, err := pif.SimulateSource(cfg, wl, pif.SliceSource("apache.store", w), pif.NewPIF(pif.DefaultPIFConfig()))
//
// See README.md for the architecture overview and DESIGN.md (§9 for the
// Source/Backend pipeline) for the substitutions made relative to the
// paper's testbed.
package pif

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/expsvc"
	"repro/internal/prefetch"
	"repro/internal/remote"
	"repro/internal/report"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/sweep"
	"repro/internal/trace"
	"repro/internal/workload"
)

// PIF is the Proactive Instruction Fetch prefetcher (the paper's
// contribution): spatial + temporal compaction of the retire-order stream,
// a circular history buffer with an index of stream heads, and stream
// address buffers that replay recorded streams.
type PIF = core.PIF

// PIFConfig parameterizes a PIF instance.
type PIFConfig = core.Config

// Geometry is the spatial-region shape (preceding/succeeding blocks).
type Geometry = core.Geometry

// NewPIF builds a PIF prefetcher.
func NewPIF(cfg PIFConfig) *PIF { return core.New(cfg) }

// DefaultPIFConfig is the paper's configuration: 8-block regions
// (2 preceding + trigger + 5 succeeding), 32K-region history, 4 SABs with
// a 7-region window, and per-trap-level stream separation.
func DefaultPIFConfig() PIFConfig { return core.DefaultConfig() }

// Prefetcher is the pluggable prefetch-engine interface shared by PIF and
// the baselines.
type Prefetcher = prefetch.Prefetcher

// NewNextLine returns the aggressive next-line baseline prefetcher.
func NewNextLine(degree int) Prefetcher { return prefetch.NewNextLine(degree) }

// NewTIFS returns the Temporal Instruction Fetch Streaming baseline
// [MICRO 2008], which records and replays the L1-I miss stream.
func NewTIFS() Prefetcher { return prefetch.NewTIFS(prefetch.DefaultTIFSConfig()) }

// NoPrefetch is the no-prefetcher baseline.
func NoPrefetch() Prefetcher { return prefetch.None{} }

// PrefetcherNames lists the registered engine schemas ("none",
// "nextline", "tifs", "pif", and the PIF variants), in sorted order.
func PrefetcherNames() []string { return prefetch.Names() }

// PrefetcherByName constructs a fresh engine instance by registry name
// with every parameter at its schema default. Engines are stateful:
// call once per simulation job.
func PrefetcherByName(name string) (Prefetcher, error) { return prefetch.NewByName(name) }

// EngineSpec is the declarative, serializable form of a prefetch engine:
// a registry name plus explicit parameter overrides, validated against
// the engine's schema. It is the unit that crosses every boundary —
// sweep axes, job records, the remote wire, and the -engine CLI flag.
type EngineSpec = prefetch.Spec

// EngineSchema is one registered engine's declared parameter schema.
type EngineSchema = prefetch.Schema

// EngineParam describes one parameter of an engine schema: name, kind,
// default, and bounds.
type EngineParam = prefetch.Param

// EngineSchemas returns every registered engine's schema in sorted name
// order — the data behind `pifsim -list-engines`.
func EngineSchemas() []EngineSchema { return prefetch.Schemas() }

// ParseEngineSpec parses the CLI engine-spec form "name" or
// "name:k=v,k=v" (K/M suffixes are 1024 multiples for integer params)
// and validates it against the engine's schema.
func ParseEngineSpec(s string) (EngineSpec, error) { return prefetch.ParseSpec(s) }

// NewPrefetcherFromSpec resolves a spec into a fresh engine instance:
// schema defaults are applied, explicit params validated, and derived
// parameters (e.g. a pif budget_kb into history and index capacities)
// computed. Engines are stateful: call once per simulation job.
func NewPrefetcherFromSpec(spec EngineSpec) (Prefetcher, error) { return prefetch.Resolve(spec) }

// ResolvedEngineSpec returns the spec with every effective parameter
// made explicit (defaults applied, derivations computed) — what job
// records persist so stored runs compare like-for-like.
func ResolvedEngineSpec(spec EngineSpec) (EngineSpec, error) { return prefetch.Resolved(spec) }

// Workload describes one synthetic server workload.
type Workload = workload.Profile

// The six standard workloads of the paper's Table I (synthetic stand-ins;
// see DESIGN.md §4) plus the extended-footprint XL suite exercised by the
// design-space sweep artifacts.
var (
	OLTPDB2    = workload.OLTPDB2
	OLTPOracle = workload.OLTPOracle
	DSSQry2    = workload.DSSQry2
	DSSQry17   = workload.DSSQry17
	WebApache  = workload.WebApache
	WebZeus    = workload.WebZeus
	OLTPXL     = workload.OLTPXL
	WebXL      = workload.WebXL
)

// Workloads returns the six standard workloads in the paper's order.
func Workloads() []Workload { return workload.StandardSuite() }

// XLWorkloads returns the extended-footprint suite (≥4x the standard
// instruction footprints) used by the design-space sweeps.
func XLWorkloads() []Workload { return workload.XLSuite() }

// WorkloadByName resolves a standard or XL workload ("OLTP DB2", ...).
func WorkloadByName(name string) (Workload, error) { return workload.ByName(name) }

// Stream is an in-memory retire-order instruction trace.
type Stream = trace.Stream

// Record is one retired instruction.
type Record = trace.Record

// GenerateStream builds a workload's program image and emits n
// retire-order instructions.
func GenerateStream(w Workload, n uint64) (Stream, error) {
	return workload.GenerateStream(w, n)
}

// TraceIterator is the pull-model interface over a retire-order record
// stream (Next returns io.EOF at a clean end), implemented by trace
// readers, sharded stores, in-memory streams, and the live executor.
type TraceIterator = trace.Iterator

// TraceBatchIterator is the bulk-decode extension of TraceIterator:
// NextBatch fills a caller-owned record slice per call, eliminating the
// per-record interface-call overhead on replay hot paths. Every iterator
// in this package (readers, stores, slices, live executors) implements
// it natively.
type TraceBatchIterator = trace.BatchIterator

// BatchedTrace returns it as a TraceBatchIterator: iterators with a
// native NextBatch are returned unwrapped; anything else is adapted via
// a per-record loop with identical semantics.
func BatchedTrace(it TraceIterator) TraceBatchIterator { return trace.Batched(it) }

// WorkloadIterator streams a live executor's output with bounded memory;
// close it if abandoned before EOF.
type WorkloadIterator = workload.Iterator

// GenerateIterator builds w's program image and returns a streaming
// iterator over its retire-order stream — one executor Run phase per
// count, so GenerateIterator(w, warmup, measure) reproduces the
// simulator's live stream exactly.
func GenerateIterator(w Workload, phases ...uint64) (*WorkloadIterator, error) {
	prog, err := workload.BuildProgram(w)
	if err != nil {
		return nil, err
	}
	return workload.NewIterator(prog, phases...), nil
}

// TraceWindow addresses a half-open record range [Off, Off+Len) of a
// sharded trace store — the unit sweeps fan out over when a design point
// needs only a slice of a recorded trace.
type TraceWindow = trace.Window

// ParseTraceWindow parses an "off:len" window spec (K/M suffixes are
// 1024 multiples): "8192:1M" is the 1Mi-record window at record 8192.
func ParseTraceWindow(s string) (TraceWindow, error) { return trace.ParseWindow(s) }

// TraceSliceReader replays exactly one window of a sharded store,
// seeking through the store index so only the window's chunks are
// decoded. It implements TraceIterator.
type TraceSliceReader = trace.SliceReader

// OpenTraceSlice opens window w of the store at dir; a window outside
// the recorded range is a hard error, never a short iterator.
func OpenTraceSlice(dir string, w TraceWindow) (*TraceSliceReader, error) {
	return trace.OpenSlice(dir, w)
}

// Source names *what to simulate* — a live workload execution, a
// recorded trace store, or a window of one — independently of the
// prefetch engine simulating it and the Backend running it. Jobs carry
// Sources rather than open iterators, so every job (on any backend)
// opens its own private stream.
type Source = sim.Source

// SourceInfo describes an opened source: kind, workload, record budget,
// and (for on-disk sources) store path and window.
type SourceInfo = sim.SourceInfo

// LiveSource returns the source that executes w's program live. With no
// phases it is usable only as a Job source (the job's config supplies
// the warmup/measure split and the simulator runs the executor
// directly); with explicit phases it opens a streaming iterator
// reproducing Run(phases[0])+Run(phases[1])+... exactly.
func LiveSource(w Workload, phases ...uint64) Source { return sim.LiveSource(w, phases...) }

// StoreSource returns the source replaying the sharded trace store at
// dir from record 0.
func StoreSource(dir string) Source { return sim.StoreSource(dir) }

// SliceSource returns the source replaying only window w of the sharded
// store at dir (seeked through the index, so sweeping many windows of
// one trace never re-executes the workload and never decodes more than
// each window's chunks).
func SliceSource(dir string, w TraceWindow) Source { return sim.SliceSource(dir, w) }

// IteratorSource adapts a bare iterator factory to the Source interface.
func IteratorSource(open func() (TraceIterator, error)) Source { return sim.OpenerSource(open) }

// TraceIndex is a sharded trace store's metadata: workload, per-chunk
// record counts, and per-chunk base PCs.
type TraceIndex = trace.Index

// TraceStoreWriter writes a sharded on-disk trace store (trace.idx plus
// fixed-record-count chunk files).
type TraceStoreWriter = trace.StoreWriter

// TraceStoreReader replays a sharded store chunk by chunk; it implements
// TraceIterator with peak memory bounded by one chunk.
type TraceStoreReader = trace.StoreReader

// CreateTraceStore opens a sharded store for writing at dir
// (chunkRecords 0 selects the default chunk size).
func CreateTraceStore(dir, workload string, chunkRecords uint64) (*TraceStoreWriter, error) {
	return trace.CreateStore(dir, workload, chunkRecords)
}

// OpenTraceStore opens a sharded store for streaming replay.
func OpenTraceStore(dir string) (*TraceStoreReader, error) { return trace.OpenStore(dir) }

// ReadTraceIndex reads and validates a store's index without touching
// its chunks.
func ReadTraceIndex(dir string) (TraceIndex, error) { return trace.ReadIndex(dir) }

// BuildTraceStore drains any record iterator into a new sharded store.
// phases, when given, record the executor phase boundaries the source
// was generated with, so replays with a mismatched warmup/measure split
// are detectable (TraceIndex.PhaseCompatible).
func BuildTraceStore(dir, workload string, chunkRecords uint64, it TraceIterator, phases ...uint64) (uint64, error) {
	return trace.BuildStore(dir, workload, chunkRecords, it, phases...)
}

// SimulateSource runs one simulation fed by src — live execution, a
// trace store, or a slice of one; w supplies the result name and
// front-end seed. The source must supply at least warmup+measure
// records; a short source is a hard error, never a short run.
func SimulateSource(cfg SimConfig, w Workload, src Source, p Prefetcher) (SimResult, error) {
	return sim.RunWith(context.Background(), sim.Job{
		Config:   cfg,
		Workload: w,
		From:     src,
	}, p)
}

// System is the simulated machine description (the paper's Table I).
type System = config.System

// DefaultSystem returns the Table I configuration.
func DefaultSystem() System { return config.Default() }

// SimConfig parameterizes a simulation run.
type SimConfig = sim.Config

// SimResult is the outcome of a run (coverage, UIPC, cache statistics).
type SimResult = sim.Result

// DefaultSimConfig returns a laptop-scale analog of the paper's
// methodology: warmed structures, then a measured interval.
func DefaultSimConfig() SimConfig { return sim.DefaultConfig() }

// Simulate runs one workload through the front-end, L1-I, and prefetcher
// models and returns the measured-interval metrics.
func Simulate(cfg SimConfig, w Workload, p Prefetcher) (SimResult, error) {
	return sim.Run(cfg, w, p)
}

// Job names one simulation for the parallel execution engine: a workload,
// a configuration, and a declarative engine spec.
type Job = runner.Job

// JobResult is the outcome of one job, tagged with its submission index.
type JobResult = runner.Result

// JobProgress reports one completed job to a Pool's progress callback.
type JobProgress = runner.Progress

// Pool fans simulation jobs out over a bounded worker pool with context
// cancellation and progress callbacks; results come back in submission
// order, so rendered tables are byte-identical to serial runs. It is the
// one-shot convenience front door over a Backend.
type Pool = runner.Pool

// RunJobs executes jobs over a pool of the given width (<= 0 means
// GOMAXPROCS) and returns results in submission order.
func RunJobs(ctx context.Context, jobs []Job, workers int) ([]JobResult, error) {
	return runner.Run(ctx, jobs, workers)
}

// Backend names *where jobs run* — the third axis of the pipeline API,
// orthogonal to the job's Source (what to simulate) and prefetcher
// factory (with which engine). The protocol is Submit/Results/Close;
// LocalBackend is the in-process implementation, and a multi-node
// backend shipping Job/JobResult as its wire unit drops in without
// touching any driver (select it via ExperimentOptions.Backend or
// SweepPoolEngine.Backend).
type Backend = runner.Backend

// LocalBackend executes jobs over a bounded in-process worker pool.
type LocalBackend = runner.LocalBackend

// NewLocalBackend starts a local backend with the given worker count
// (<= 0 means GOMAXPROCS); Close it to release the workers.
func NewLocalBackend(workers int) *LocalBackend { return runner.NewLocalBackend(workers) }

// ErrBackendClosed is the sentinel every Backend's Submit returns after
// Close — "this backend is shutting down", distinct from a job
// rejection or a cancellation, so dispatchers can reroute instead of
// failing the job.
var ErrBackendClosed = runner.ErrBackendClosed

// DialBackend resolves a -backend CLI spec into a running Backend:
// "local" (or "") is an in-process LocalBackend with the given worker
// count, and "remote@ADDR" dials the pifcoord coordinator at ADDR and
// opens a run on it (jobs fan out to its registered pifworker fleet;
// workers ignore the local worker count). The caller must Close the
// backend.
//
// Remote jobs travel declaratively: the workload must resolve through
// its registry, the engine spec (name plus params — tuned cells
// included) is validated against the engine schemas before it ships,
// and sources must be live/store/slice values (store paths are resolved
// on the worker). Jobs carrying process-local state — an instrument
// hook, an observer, a custom source — are refused at Submit with a
// descriptive error.
func DialBackend(spec string, workers int) (Backend, error) {
	return DialBackendAuth(spec, workers, "")
}

// DialBackendAuth is DialBackend against a token-protected coordinator
// (pifcoord -auth-token): remote requests carry the bearer token. An
// empty token is plain DialBackend; local backends ignore the token.
func DialBackendAuth(spec string, workers int, token string) (Backend, error) {
	switch {
	case spec == "" || spec == "local":
		return NewLocalBackend(workers), nil
	case strings.HasPrefix(spec, "remote@"):
		addr := strings.TrimPrefix(spec, "remote@")
		if addr == "" {
			return nil, fmt.Errorf("pif: -backend remote@ADDR needs a coordinator address")
		}
		return remote.DialAuth(addr, token)
	default:
		return nil, fmt.Errorf("pif: unknown backend %q (have local, remote@ADDR)", spec)
	}
}

// ExperimentOptions scale the evaluation harness.
type ExperimentOptions = experiments.Options

// ExperimentReport is one regenerated table or figure.
type ExperimentReport = experiments.Report

// DefaultExperimentOptions is the full-scale evaluation configuration.
func DefaultExperimentOptions() ExperimentOptions { return experiments.DefaultOptions() }

// QuickExperimentOptions is a reduced-scale configuration for smoke runs.
func QuickExperimentOptions() ExperimentOptions { return experiments.QuickOptions() }

// ExperimentIDs lists the regenerable artifacts (fig2..fig10, table1).
func ExperimentIDs() []string { return experiments.IDs() }

// ExperimentEnv caches per-workload artifacts (program images, retire
// streams) across experiment runs; one environment can regenerate many
// artifacts without rebuilding traces. Safe for concurrent jobs.
type ExperimentEnv = experiments.Env

// NewExperimentEnv builds an environment whose runs are governed by ctx:
// cancellation aborts in-flight simulation jobs.
func NewExperimentEnv(ctx context.Context, opts ExperimentOptions) *ExperimentEnv {
	return experiments.NewEnvContext(ctx, opts)
}

// RunExperiment regenerates one of the paper's tables or figures.
func RunExperiment(opts ExperimentOptions, id string) (ExperimentReport, error) {
	return experiments.Run(experiments.NewEnv(opts), id)
}

// RunExperimentIn regenerates one artifact in an existing environment,
// reusing its caches.
func RunExperimentIn(env *ExperimentEnv, id string) (ExperimentReport, error) {
	return experiments.Run(env, id)
}

// RunAllExperiments regenerates every table and figure.
func RunAllExperiments(opts ExperimentOptions) ([]ExperimentReport, error) {
	return experiments.RunAll(experiments.NewEnv(opts))
}

// RunAllExperimentsContext is RunAllExperiments under a context.
func RunAllExperimentsContext(ctx context.Context, opts ExperimentOptions) ([]ExperimentReport, error) {
	return experiments.RunAll(experiments.NewEnvContext(ctx, opts))
}

// ResultsSchemaVersion is the version of the structured-report JSON schema
// (see internal/report; bumped on non-additive changes).
const ResultsSchemaVersion = report.SchemaVersion

// ResultsArtifact is the serializable form of one experiment artifact:
// rendered text plus the driver's typed result as canonical JSON.
type ResultsArtifact = report.Artifact

// ResultsRun is the metadata sidecar of one stored evaluation pass
// (options, suite, per-artifact timings).
type ResultsRun = report.Run

// ResultsTiming is one artifact's wall-clock duration inside run metadata.
type ResultsTiming = report.Timing

// ResultsStore addresses stored runs as <root>/<run-id>/<artifact>.json.
type ResultsStore = report.Store

// ResultsTolerance bounds acceptable per-metric drift (absolute OR
// relative).
type ResultsTolerance = report.Tolerance

// ResultsTolerances selects tolerances by metric-path prefix.
type ResultsTolerances = report.Tolerances

// ResultsDiff is the per-metric comparison of two stored runs.
type ResultsDiff = report.Diff

// SweepSpec declares a design-space sweep: named parameter axes
// (workloads, engine variants, system mutations, sim options) whose
// cross-product expands into a grid of keyed simulation jobs.
type SweepSpec = sweep.Spec

// SweepAxis is one named dimension of a sweep: ordered, keyed values.
type SweepAxis = sweep.Axis

// SweepValue is one keyed setting of an axis.
type SweepValue = sweep.Value

// SweepSettings is the accumulated configuration of one grid cell.
type SweepSettings = sweep.Settings

// SweepPoint locates one grid cell (axis name -> value key).
type SweepPoint = sweep.Point

// SweepCell is one point of an expanded design space.
type SweepCell = sweep.Cell

// SweepGrid is an expanded (and, after a run, executed) design space,
// addressable by axis values.
type SweepGrid = sweep.Grid

// SweepEngine abstracts the execution environment a sweep runs through
// (implemented by *ExperimentEnv and SweepPoolEngine).
type SweepEngine = sweep.Engine

// SweepPoolEngine runs sweeps over a bare worker pool, outside an
// experiment environment.
type SweepPoolEngine = sweep.PoolEngine

// SweepWorkloadAxis builds the canonical workload axis of a sweep.
func SweepWorkloadAxis(name string, wls []Workload) SweepAxis {
	return sweep.WorkloadAxis(name, wls)
}

// SweepEngineAxis builds a prefetch-engine axis from registry names
// (each cell runs that engine at its schema defaults).
func SweepEngineAxis(name string, engines ...string) SweepAxis {
	return sweep.EngineAxis(name, engines...)
}

// SweepEngineSpecAxis builds a prefetch-engine axis from full engine
// specs — tuned variants sweep like any other value. names supplies
// optional display labels (empty or short slices fall back to the
// spec's canonical string form).
func SweepEngineSpecAxis(name string, specs []EngineSpec, names []string) SweepAxis {
	return sweep.EngineSpecAxis(name, specs, names)
}

// SweepEngineParamAxis builds an axis sweeping one integer engine
// parameter (e.g. "budget_kb" over 8..512) on top of whatever engine
// the cell already carries; key and label derive each value's cell key
// and display name (label nil falls back to key).
func SweepEngineParamAxis(axisName, param string, key, label func(v int) string, ints []int) SweepAxis {
	return sweep.EngineParamAxis(axisName, param, key, label, ints)
}

// RunSweep expands a spec and executes every cell through the engine's
// worker pool, returning the grid with results attached.
func RunSweep(eng SweepEngine, spec SweepSpec) (*SweepGrid, error) {
	return sweep.Run(eng, spec)
}

// ExpandSweep expands a spec into its grid of cells without running it.
func ExpandSweep(spec SweepSpec) (*SweepGrid, error) { return spec.Expand() }

// BuildSweepSpec constructs an ad-hoc sweep spec from CLI-style axis
// specifications ("workload=xl", "engine=pif,tifs", "budget=32,256",
// "source=live,slice@0:1M", ...) plus optional full engine specs
// ("pif:budget_kb=32", repeatable -engine flags) that become the engine
// axis; see the `experiments sweep` mode. The environment resolves
// env-backed record sources (spilled stores, trace windows) and supplies
// the base configuration; malformed axis or engine specs are usage
// errors naming the offending token.
func BuildSweepSpec(env *ExperimentEnv, name string, axisSpecs, engineSpecs []string) (SweepSpec, error) {
	return experiments.BuildSweep(env, name, axisSpecs, engineSpecs)
}

// ExperimentArtifacts converts regenerated reports into schema artifacts,
// preserving order.
func ExperimentArtifacts(reps []ExperimentReport) ([]ResultsArtifact, error) {
	return experiments.Artifacts(reps)
}

// SaveResults writes one run directory: run.json plus <artifact>.json per
// artifact.
func SaveResults(dir string, run ResultsRun, artifacts []ResultsArtifact) error {
	return report.Save(dir, run, artifacts)
}

// LoadResults reads a run directory written by SaveResults.
func LoadResults(dir string) (ResultsRun, []ResultsArtifact, error) {
	return report.Load(dir)
}

// DiffResults compares two artifact sets metric by metric under the given
// tolerances.
func DiffResults(a, b []ResultsArtifact, tol ResultsTolerances) ResultsDiff {
	return report.DiffArtifacts(a, b, tol)
}

// DefaultResultTolerances absorbs float noise (1e-12 absolute, 1e-9
// relative) while failing on any behavioral shift.
func DefaultResultTolerances() ResultsTolerances { return report.DefaultTolerances() }

// ResultsJobResult is the schema-versioned persisted form of one raw
// per-job simulation result (one sweep-grid cell), stored as
// results/<run-id>/jobs/<key>.json.
type ResultsJobResult = report.JobResult

// NewResultsArtifact builds a schema-stamped artifact from any
// JSON-marshalable result (e.g. a sweep grid summary).
func NewResultsArtifact(id, title, text string, data any) (ResultsArtifact, error) {
	return report.NewArtifact(id, title, text, data)
}

// NewJobResult builds a schema-stamped per-job result.
func NewJobResult(key, label string, point map[string]string, data any) (ResultsJobResult, error) {
	return report.NewJobResult(key, label, point, data)
}

// SaveJobResults writes one jobs/<key>.json per raw per-job result inside
// a run directory (no-op for an empty slice).
func SaveJobResults(runDir string, jobs []ResultsJobResult) error {
	return report.SaveJobResults(runDir, jobs)
}

// LoadJobResults reads a run directory's raw per-job results, sorted by
// key (empty when the run persisted none).
func LoadJobResults(runDir string) ([]ResultsJobResult, error) {
	return report.LoadJobResults(runDir)
}

// DiffJobResults compares two per-job result sets at per-job granularity
// under the given tolerances (metric paths rooted at "jobs/<key>").
func DiffJobResults(a, b []ResultsJobResult, tol ResultsTolerances) ResultsDiff {
	return report.DiffJobResults(a, b, tol)
}

// ResultsDiffReport is the machine-readable form of one comparison: the
// diff plus its `experiments diff` exit-code verdict (0/1/3) and the
// rendered text. It is the payload of `experiments diff -json` and of
// the experiment service's diff endpoint — one struct, two transports.
type ResultsDiffReport = report.DiffReport

// NewResultsDiffReport packages a computed diff with its verdict and
// rendering; a and b name the two sides (run IDs or local paths).
func NewResultsDiffReport(a, b string, d ResultsDiff) ResultsDiffReport {
	return report.NewDiffReport(a, b, d)
}

// ResultsRunInfo is one stored run's listing entry (ID, creation time,
// artifact count).
type ResultsRunInfo = report.RunInfo

// ListResults describes every run stored under root, sorted by creation
// time; it reads only each run's metadata sidecar, so listing a large
// corpus stays cheap.
func ListResults(root string) ([]ResultsRunInfo, error) {
	return report.Store{Root: root}.List()
}

// ServiceRequest is one sweep submission to the experiment service
// (cmd/pifexpd): the fields mirror the `experiments sweep` CLI flags and
// feed the same spec parser, so axis/engine/shard semantics are
// identical in both transports.
type ServiceRequest = expsvc.Request

// ServiceRunStatus is one service run as the API reports it: the
// persisted database record (state machine queued → running →
// done/failed) plus live job progress while running.
type ServiceRunStatus = expsvc.Status

// ServiceDiffSide names one side of a service diff: a run in the
// service's database (RunID) or an inline artifact/job set — how the
// CLI diffs a service run against a local -out directory.
type ServiceDiffSide = expsvc.DiffSide

// ServiceClient is the HTTP client of a pifexpd experiment service,
// behind the `experiments submit|status|diff -svc` CLI modes.
type ServiceClient = expsvc.Client

// DialExperimentService connects to a pifexpd service at addr,
// verifying reachability and wire version. token authenticates against
// a -auth-token protected service ("" for an open one).
func DialExperimentService(addr, token string) (*ServiceClient, error) {
	return expsvc.DialService(addr, token)
}

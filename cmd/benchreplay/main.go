// Command benchreplay regenerates and validates the committed
// performance artifacts:
//
//   - BENCH_replay.json (the default suite): store decode throughput
//     (per-record vs batch vs zero-copy mmap), end-to-end simulation
//     replay, sweep-cell execution (serial vs sharded),
//     and sweep-grid expansion, all with allocation profiles. The
//     config block records whether the mmap or read-file chunk path
//     served the run.
//   - BENCH_runner.json (-suite runner): job-execution throughput —
//     grid jobs/sec through runner.RunOn serially and in parallel, and
//     the per-job engine-spec resolution overhead.
//
// Usage:
//
//	benchreplay -out BENCH_replay.json                # regenerate
//	benchreplay -check BENCH_replay.json              # CI freshness
//	benchreplay -suite runner -out BENCH_runner.json
//	benchreplay -suite runner -check BENCH_runner.json
//
// -check reruns the selected suite, verifies the committed artifact
// structurally matches the regeneration (schema, fixture configuration,
// benchmark set — raw timings are machine-dependent and not compared),
// and enforces the suite's performance invariants on the fresh
// measurements (replay: batch decode >= 2x per-record, ~0 allocs/record,
// mmap decode no slower than read-file batch where mmap is active, and a
// >= 1.5x sharded sweep-cell speedup on 4+ CPUs; runner: spec resolution
// a few percent of job runtime at most).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"repro/internal/bench"

	_ "repro/internal/core" // register the PIF engine variants
)

func main() {
	os.Exit(run())
}

func run() int {
	out := flag.String("out", "", "write the regenerated artifact to this path")
	check := flag.String("check", "", "validate the committed artifact at this path against a fresh run")
	suite := flag.String("suite", "replay", "benchmark suite: replay or runner")
	quiet := flag.Bool("q", false, "suppress progress output")
	flag.Parse()
	if (*out == "") == (*check == "") {
		fmt.Fprintln(os.Stderr, "benchreplay: exactly one of -out or -check is required")
		return 2
	}

	logf := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "benchreplay: "+format+"\n", args...)
	}
	if *quiet {
		logf = nil
	}

	switch *suite {
	case "replay":
		return runReplay(*out, *check, logf)
	case "runner":
		return runRunner(*out, *check, logf)
	default:
		fmt.Fprintf(os.Stderr, "benchreplay: unknown suite %q (have replay, runner)\n", *suite)
		return 2
	}
}

func runReplay(out, check string, logf func(string, ...any)) int {
	fresh, err := bench.Run(bench.DefaultConfig(), logf)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchreplay:", err)
		return 1
	}
	if err := bench.CheckInvariants(fresh); err != nil {
		fmt.Fprintln(os.Stderr, "benchreplay:", err)
		return 1
	}

	if check != "" {
		var committed bench.Artifact
		if !readArtifact(check, &committed) {
			return 1
		}
		if err := bench.CheckFresh(committed, fresh); err != nil {
			fmt.Fprintln(os.Stderr, "benchreplay:", err)
			return 1
		}
		fmt.Printf("benchreplay: %s is fresh; measured batch speedup %.2fx, mmap %.2fx (%s), sweep cell %.2fx\n",
			check, fresh.Derived.BatchSpeedup, fresh.Derived.MmapSpeedup, fresh.Config.ChunkSource,
			fresh.Derived.SweepCellSpeedup)
		return 0
	}
	if !writeArtifact(out, fresh) {
		return 1
	}
	fmt.Printf("benchreplay: wrote %s (batch speedup %.2fx, mmap %.2fx (%s), sweep cell %.2fx)\n",
		out, fresh.Derived.BatchSpeedup, fresh.Derived.MmapSpeedup, fresh.Config.ChunkSource,
		fresh.Derived.SweepCellSpeedup)
	return 0
}

func runRunner(out, check string, logf func(string, ...any)) int {
	fresh, err := bench.RunRunner(bench.DefaultRunnerConfig(), logf)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchreplay:", err)
		return 1
	}
	if err := bench.CheckRunnerInvariants(fresh); err != nil {
		fmt.Fprintln(os.Stderr, "benchreplay:", err)
		return 1
	}

	if check != "" {
		var committed bench.RunnerArtifact
		if !readArtifact(check, &committed) {
			return 1
		}
		if err := bench.CheckRunnerFresh(committed, fresh); err != nil {
			fmt.Fprintln(os.Stderr, "benchreplay:", err)
			return 1
		}
		fmt.Printf("benchreplay: %s is fresh; measured parallel speedup %.2fx, resolve overhead %.5f\n",
			check, fresh.Derived.ParallelSpeedup, fresh.Derived.ResolveOverhead)
		return 0
	}
	if !writeArtifact(out, fresh) {
		return 1
	}
	fmt.Printf("benchreplay: wrote %s (parallel speedup %.2fx, resolve overhead %.5f)\n",
		out, fresh.Derived.ParallelSpeedup, fresh.Derived.ResolveOverhead)
	return 0
}

func readArtifact(path string, into any) bool {
	data, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchreplay:", err)
		return false
	}
	if err := json.Unmarshal(data, into); err != nil {
		fmt.Fprintf(os.Stderr, "benchreplay: %s: %v\n", path, err)
		return false
	}
	return true
}

func writeArtifact(path string, a any) bool {
	data, err := json.MarshalIndent(a, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchreplay:", err)
		return false
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "benchreplay:", err)
		return false
	}
	return true
}

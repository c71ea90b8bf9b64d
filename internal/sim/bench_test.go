package sim

import (
	"context"
	"path/filepath"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/prefetch"
	"repro/internal/trace"
	"repro/internal/workload"
)

// BenchmarkReplayJob measures end-to-end store replay through RunJob —
// the batch decode path feeding the full simulator (frontend, L1-I,
// prefetcher, polluter). With ReportAllocs, allocations are per run
// (simulator construction, chunk images), not per record; the bench
// pipeline divides by the record count and enforces ~0 allocs/record.
func BenchmarkReplayJob(b *testing.B) {
	wl := workload.OLTPDB2()
	cfg := replayConfig()
	dir := filepath.Join(b.TempDir(), "store")
	recordStore(b, dir, wl, cfg, 1<<14)
	records := cfg.WarmupInstrs + cfg.MeasureInstrs
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := RunJob(context.Background(), Job{
			Config:   cfg,
			Workload: wl,
			From:     StoreSource(dir),
			Engine:   prefetch.Spec{Name: "nextline"},
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(records)*float64(b.N)/b.Elapsed().Seconds(), "records/s")
}

// TestStepSteadyStateAllocs pins the alloc-free hot loop: once the
// simulator's working structures are warm, a pass's step must not
// allocate — no issuer boxing, no access-callback closure, no
// per-record buffers — with one lane or several.
// Engines that intentionally grow unbounded metadata (TIFS's miss
// history) are excluded; the baselines and PIF here cover the frontend,
// cache, polluter, and prefetch per-access paths, PIF's index table and
// SAB windows included.
func TestStepSteadyStateAllocs(t *testing.T) {
	wl := workload.OLTPDB2()
	cfg := replayConfig()
	prog, err := workload.BuildProgram(wl)
	if err != nil {
		t.Fatal(err)
	}
	it := workload.NewIterator(prog, cfg.WarmupInstrs+cfg.MeasureInstrs)
	stream, err := trace.Collect(it)
	it.Close()
	if err != nil {
		t.Fatal(err)
	}
	engines := func() []prefetch.Prefetcher {
		return []prefetch.Prefetcher{prefetch.None{}, prefetch.NewNextLine(4), core.New(core.DefaultConfig())}
	}
	// Each engine alone, then all three as lanes of one pass.
	passes := [][]prefetch.Prefetcher{}
	for _, pf := range engines() {
		passes = append(passes, []prefetch.Prefetcher{pf})
	}
	passes = append(passes, engines())
	for _, pfs := range passes {
		jobs := make([]Job, len(pfs))
		for i := range jobs {
			jobs[i] = Job{Config: cfg, Workload: wl}
		}
		p := newPass(jobs, pfs)
		for _, r := range stream { // warm caches, maps, predictor state
			p.step(r)
		}
		const chunk = 4096
		batch := stream[:chunk]
		perRun := testing.AllocsPerRun(20, func() {
			for _, r := range batch {
				p.step(r)
			}
		})
		if perRecord := perRun / chunk; perRecord > 0.01 {
			t.Errorf("%d lane(s) from %s: %.4f allocs/record in steady state (%.1f per %d-record run), want ~0",
				len(pfs), pfs[0].Name(), perRecord, perRun, chunk)
		}
	}
}

// TestHugeHistoryAllocatesOnDemand: PIF's history buffer and index grow
// with what is recorded, so an engine sized far beyond any run —
// pif:history=1073741824, which derives a 2^28-entry index — runs a
// small job within a small allocation budget instead of reserving its
// whole capacity (tens of GB) when it is built.
func TestHugeHistoryAllocatesOnDemand(t *testing.T) {
	cfg := DefaultConfig()
	cfg.WarmupInstrs, cfg.MeasureInstrs = 50_000, 50_000
	spec, err := prefetch.ParseSpec("pif:history=1073741824")
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := RunJob(context.Background(), Job{Config: cfg, Workload: workload.DSSQry2(), Engine: spec}); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	const budget = 64 << 20
	if got := after.TotalAlloc - before.TotalAlloc; got > budget {
		t.Errorf("job allocated %d MiB, want <= %d MiB", got>>20, budget>>20)
	}
}

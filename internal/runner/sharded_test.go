package runner

import (
	"context"
	"fmt"
	"math"
	"path/filepath"
	"testing"

	"repro/internal/prefetch"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// recordShardStore records warmup+measure records of wl into a store at
// dir with the given chunk size.
func recordShardStore(t testing.TB, dir string, wl workload.Profile, cfg sim.Config, chunkRecords uint64) {
	t.Helper()
	prog, err := workload.BuildProgram(wl)
	if err != nil {
		t.Fatal(err)
	}
	it := workload.NewIterator(prog, cfg.WarmupInstrs, cfg.MeasureInstrs)
	defer it.Close()
	n, err := trace.BuildStore(dir, wl.Name, chunkRecords, it, cfg.WarmupInstrs, cfg.MeasureInstrs)
	if err != nil {
		t.Fatalf("BuildStore: %v", err)
	}
	if n != cfg.WarmupInstrs+cfg.MeasureInstrs {
		t.Fatalf("recorded %d records, want %d", n, cfg.WarmupInstrs+cfg.MeasureInstrs)
	}
}

// runShards replays the store at dir as the shard jobs sim.SplitReplay
// plans — one job per plan, each reading its window of the store —
// executes them on a parallel pool, and merges the per-shard results in
// shard order. It is the shard path sweep.Run takes for a sharded cell,
// reduced to the runner's part: parallel execution of window jobs.
func runShards(t *testing.T, dir string, wl workload.Profile, cfg sim.Config, engine string, shards int, exact bool) sim.Result {
	t.Helper()
	plans, err := sim.SplitReplay(cfg, shards, exact)
	if err != nil {
		t.Fatal(err)
	}
	if len(plans) != shards {
		t.Fatalf("%d shards: got %d plans", shards, len(plans))
	}
	jobs := make([]Job, len(plans))
	for k, p := range plans {
		jobs[k] = Job{
			Label:    fmt.Sprintf("%s [shard %d/%d]", wl.Name, k+1, shards),
			Workload: wl,
			Config:   p.Config(cfg),
			Engine:   prefetch.Spec{Name: engine},
			Source:   sim.SliceSource(dir, p.Window),
		}
	}
	results, err := Run(context.Background(), jobs, 4)
	if err != nil {
		t.Fatalf("%d shards: %v", shards, err)
	}
	per := make([]sim.Result, len(results))
	for k, r := range results {
		if r.Err != nil {
			t.Fatalf("%d shards: shard %d: %v", shards, k, r.Err)
		}
		if r.Index != k {
			t.Fatalf("%d shards: result %d carries index %d", shards, k, r.Index)
		}
		per[k] = r.Sim
	}
	m, err := sim.MergeShardResults(per)
	if err != nil {
		t.Fatalf("%d shards: merge: %v", shards, err)
	}
	return m
}

// withinPct reports whether got is within pct percent of want.
func withinPct(got, want uint64, pct float64) bool {
	if want == 0 {
		return got == 0
	}
	diff := math.Abs(float64(got) - float64(want))
	return diff/float64(want)*100 <= pct
}

// TestShardedReplayExactParity is the sharded-replay acceptance bar at
// the runner level: exact-mode shard jobs of one store, run on 4
// parallel workers and merged, must reproduce the sequential replay bit
// for bit — every counter, instruction, access, miss, coverage, L1
// field, the whole-feed FE stats, AND timing (cycles, stalls, UIPC),
// since exact shards measure clock deltas on the sequential run's own
// clock (see sim.Config.MeasureOffsetInstrs). CI runs this under -race,
// making it the data-race probe for parallel window jobs on the pool.
func TestShardedReplayExactParity(t *testing.T) {
	wl := workload.OLTPXL()
	cfg := testConfig() // 100K warmup + 100K measure
	dir := filepath.Join(t.TempDir(), "store")
	recordShardStore(t, dir, wl, cfg, 1<<14)

	seq, err := sim.RunJob(context.Background(), sim.Job{
		Config:   cfg,
		Workload: wl,
		From:     sim.StoreSource(dir),
		Engine:   prefetch.Spec{Name: "pif"},
	})
	if err != nil {
		t.Fatalf("sequential replay: %v", err)
	}

	for _, shards := range []int{4, 7} {
		m := runShards(t, dir, wl, cfg, "pif", shards, true)

		// Lossless counters: exact equality.
		if m.Instructions != seq.Instructions {
			t.Errorf("%d shards: Instructions = %d, want %d", shards, m.Instructions, seq.Instructions)
		}
		if m.CorrectAccesses != seq.CorrectAccesses {
			t.Errorf("%d shards: CorrectAccesses = %d, want %d", shards, m.CorrectAccesses, seq.CorrectAccesses)
		}
		if m.CorrectMisses != seq.CorrectMisses {
			t.Errorf("%d shards: CorrectMisses = %d, want %d", shards, m.CorrectMisses, seq.CorrectMisses)
		}
		if m.CoveredMisses != seq.CoveredMisses {
			t.Errorf("%d shards: CoveredMisses = %d, want %d", shards, m.CoveredMisses, seq.CoveredMisses)
		}
		if m.PrefetchesIssued != seq.PrefetchesIssued {
			t.Errorf("%d shards: PrefetchesIssued = %d, want %d", shards, m.PrefetchesIssued, seq.PrefetchesIssued)
		}
		if m.L1 != seq.L1 {
			t.Errorf("%d shards: L1 = %+v, want %+v", shards, m.L1, seq.L1)
		}
		if m.FE != seq.FE {
			t.Errorf("%d shards: FE = %+v, want %+v", shards, m.FE, seq.FE)
		}
		if m.Workload != seq.Workload || m.Prefetcher != seq.Prefetcher {
			t.Errorf("%d shards: identity = %s/%s, want %s/%s", shards, m.Workload, m.Prefetcher, seq.Workload, seq.Prefetcher)
		}

		// Timing: exact — per-shard clock deltas telescope to the
		// sequential clock (the reset sits at the same warmup boundary
		// in every shard).
		if m.Cycles != seq.Cycles {
			t.Errorf("%d shards: Cycles = %d, want %d", shards, m.Cycles, seq.Cycles)
		}
		if m.StallCycles != seq.StallCycles {
			t.Errorf("%d shards: StallCycles = %d, want %d", shards, m.StallCycles, seq.StallCycles)
		}
		if m.UIPC != seq.UIPC {
			t.Errorf("%d shards: UIPC = %v, want %v", shards, m.UIPC, seq.UIPC)
		}

		// Coverage derives from lossless counters, so it is exact too.
		if m.Coverage() != seq.Coverage() {
			t.Errorf("%d shards: Coverage = %f, want %f", shards, m.Coverage(), seq.Coverage())
		}
	}
}

// TestShardedReplayApproximate exercises fixed-warmup (linear-work) mode:
// counters land near sequential — within the window-position sensitivity
// the sweep-window artifact established — but are not bit-exact.
func TestShardedReplayApproximate(t *testing.T) {
	wl := workload.OLTPDB2()
	cfg := testConfig()
	dir := filepath.Join(t.TempDir(), "store")
	recordShardStore(t, dir, wl, cfg, 1<<14)

	seq, err := sim.RunJob(context.Background(), sim.Job{
		Config:   cfg,
		Workload: wl,
		From:     sim.StoreSource(dir),
		Engine:   prefetch.Spec{Name: "nextline"},
	})
	if err != nil {
		t.Fatalf("sequential replay: %v", err)
	}
	m := runShards(t, dir, wl, cfg, "nextline", 4, false)
	if m.Instructions != seq.Instructions {
		t.Errorf("Instructions = %d, want %d (the measured span tiles exactly even in approximate mode)",
			m.Instructions, seq.Instructions)
	}
	// Loose tolerances: approximate warmup perturbs cache/predictor state
	// at each window boundary.
	const tolPct = 15
	if !withinPct(m.CorrectAccesses, seq.CorrectAccesses, tolPct) {
		t.Errorf("CorrectAccesses = %d, want %d ±%d%%", m.CorrectAccesses, seq.CorrectAccesses, tolPct)
	}
	if !withinPct(m.Cycles, seq.Cycles, tolPct) {
		t.Errorf("Cycles = %d, want %d ±%d%%", m.Cycles, seq.Cycles, tolPct)
	}
}

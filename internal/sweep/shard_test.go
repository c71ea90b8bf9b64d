package sweep

import (
	"fmt"
	"math"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// recordSweepStore records warmup+measure records of wl into a store.
func recordSweepStore(t *testing.T, dir string, wl workload.Profile, cfg sim.Config) {
	t.Helper()
	prog, err := workload.BuildProgram(wl)
	if err != nil {
		t.Fatal(err)
	}
	it := workload.NewIterator(prog, cfg.WarmupInstrs, cfg.MeasureInstrs)
	defer it.Close()
	if _, err := trace.BuildStore(dir, wl.Name, 1<<12, it, cfg.WarmupInstrs, cfg.MeasureInstrs); err != nil {
		t.Fatalf("BuildStore: %v", err)
	}
}

// shardSpec is a two-cell replay sweep over one recorded store.
func shardSpec(wl workload.Profile, dir string) Spec {
	return Spec{
		Name: "sh",
		Base: tinySim(),
		Axes: []Axis{
			WorkloadAxis("workload", []workload.Profile{wl}),
			EngineAxis("engine", "pif", "nextline"),
			SourceAxis("source", []SourceChoice{{
				Key: "store",
				New: func(s *Settings) sim.Source { return sim.StoreSource(dir) },
			}}),
		},
	}
}

// TestShardedSweepExactParity is the sweep-level parity bar: a grid run
// with BaseShards > 1 must produce per-cell sim.Results bit-identical
// to the unsharded grid — keys, labels, and every metric including
// timing — which is what keeps `experiments diff` at exit 0 across
// sharded and unsharded runs. Inputs: a tiny profile at 3 shards, and
// an OLTP XL store (100K warmup + 100K measure) at 4 and 7 shards. CI
// runs this under -race, making it the data-race probe for the parallel
// shard path.
func TestShardedSweepExactParity(t *testing.T) {
	tiny := tinyProfile("Tiny Sh", 3)
	tinyDir := filepath.Join(t.TempDir(), "tiny")
	recordSweepStore(t, tinyDir, tiny, tinySim())
	xl := workload.OLTPXL()
	xlCfg := tinySim()
	xlCfg.WarmupInstrs, xlCfg.MeasureInstrs = 100_000, 100_000
	xlDir := filepath.Join(t.TempDir(), "xl")
	recordSweepStore(t, xlDir, xl, xlCfg)

	for _, tc := range []struct {
		wl     workload.Profile
		cfg    sim.Config
		dir    string
		shards int
	}{
		{tiny, tinySim(), tinyDir, 3},
		{xl, xlCfg, xlDir, 4},
		{xl, xlCfg, xlDir, 7},
	} {
		name := fmt.Sprintf("%s/%d shards", tc.wl.Name, tc.shards)
		spec := shardSpec(tc.wl, tc.dir)
		spec.Base = tc.cfg
		plain, err := Run(PoolEngine{Workers: 4}, spec)
		if err != nil {
			t.Fatalf("%s: unsharded run: %v", name, err)
		}
		spec.BaseShards = tc.shards
		sharded, err := Run(PoolEngine{Workers: 4}, spec)
		if err != nil {
			t.Fatalf("%s: sharded run: %v", name, err)
		}
		if len(plain.Results) != len(sharded.Results) {
			t.Fatalf("%s: result counts differ: %d vs %d", name, len(plain.Results), len(sharded.Results))
		}
		for i := range plain.Results {
			a, b := plain.Results[i], sharded.Results[i]
			if plain.Cells[i].Key != sharded.Cells[i].Key {
				t.Errorf("%s: cell %d key %q vs %q", name, i, plain.Cells[i].Key, sharded.Cells[i].Key)
			}
			if b.Index != i || b.Label != plain.Cells[i].Label {
				t.Errorf("%s: cell %d folded identity: index %d label %q", name, i, b.Index, b.Label)
			}
			if !reflect.DeepEqual(a.Sim, b.Sim) {
				t.Errorf("%s: cell %s: sharded result diverges\nunsharded: %+v\nsharded:   %+v",
					name, plain.Cells[i].Key, a.Sim, b.Sim)
			}
		}

		// The persisted per-job forms must match too (Data is what
		// experiments diff compares).
		ja, err := plain.ReportJobs()
		if err != nil {
			t.Fatal(err)
		}
		jb, err := sharded.ReportJobs()
		if err != nil {
			t.Fatal(err)
		}
		for i := range ja {
			if ja[i].Key != jb[i].Key || string(ja[i].Data) != string(jb[i].Data) {
				t.Errorf("%s: job %s: persisted data diverges", name, ja[i].Key)
			}
		}
	}
}

// TestShardedSweepApproximate exercises the throughput mode: results
// stay close to unsharded but the grid still executes and folds. On an
// OLTP DB2 store, a 4-shard nextline cell lands within 15% of the
// unsharded cell (approximate warmup perturbs cache and predictor state
// at each window boundary) while its measured span tiles exactly.
func TestShardedSweepApproximate(t *testing.T) {
	wl := tinyProfile("Tiny ShA", 4)
	cfg := tinySim()
	dir := filepath.Join(t.TempDir(), "store")
	recordSweepStore(t, dir, wl, cfg)

	spec := shardSpec(wl, dir)
	spec.BaseShards = 4
	spec.BaseShardApprox = true
	g, err := Run(PoolEngine{Workers: 4}, spec)
	if err != nil {
		t.Fatalf("approx sharded run: %v", err)
	}
	for i, r := range g.Results {
		if r.Err != nil {
			t.Fatalf("cell %s: %v", g.Cells[i].Key, r.Err)
		}
		if r.Sim.Instructions != cfg.MeasureInstrs {
			t.Errorf("cell %s: instructions = %d, want %d", g.Cells[i].Key, r.Sim.Instructions, cfg.MeasureInstrs)
		}
	}

	db2 := workload.OLTPDB2()
	cfg.WarmupInstrs, cfg.MeasureInstrs = 100_000, 100_000
	dir = filepath.Join(t.TempDir(), "db2")
	recordSweepStore(t, dir, db2, cfg)
	spec = shardSpec(db2, dir)
	spec.Base = cfg
	spec.Axes[1] = EngineAxis("engine", "nextline")
	plain, err := Run(PoolEngine{Workers: 4}, spec)
	if err != nil {
		t.Fatalf("unsharded run: %v", err)
	}
	spec.BaseShards = 4
	spec.BaseShardApprox = true
	sharded, err := Run(PoolEngine{Workers: 4}, spec)
	if err != nil {
		t.Fatalf("approx sharded run: %v", err)
	}
	seq, m := plain.Results[0].Sim, sharded.Results[0].Sim
	if m.Instructions != seq.Instructions {
		t.Errorf("Instructions = %d, want %d (the measured span tiles exactly even in approximate mode)",
			m.Instructions, seq.Instructions)
	}
	const tolPct = 15
	if !withinPct(m.CorrectAccesses, seq.CorrectAccesses, tolPct) {
		t.Errorf("CorrectAccesses = %d, want %d ±%d%%", m.CorrectAccesses, seq.CorrectAccesses, tolPct)
	}
	if !withinPct(m.Cycles, seq.Cycles, tolPct) {
		t.Errorf("Cycles = %d, want %d ±%d%%", m.Cycles, seq.Cycles, tolPct)
	}
}

// withinPct reports whether got is within pct percent of want.
func withinPct(got, want uint64, pct float64) bool {
	if want == 0 {
		return got == 0
	}
	diff := math.Abs(float64(got) - float64(want))
	return diff/float64(want)*100 <= pct
}

// TestShardsAxis sweeps the shard count itself: every cell of a
// shards-axis grid must agree exactly (exact mode), and the axis
// extends cell keys.
func TestShardsAxis(t *testing.T) {
	wl := tinyProfile("Tiny ShX", 5)
	cfg := tinySim()
	dir := filepath.Join(t.TempDir(), "store")
	recordSweepStore(t, dir, wl, cfg)

	spec := Spec{
		Name: "shx",
		Base: cfg,
		Axes: []Axis{
			WorkloadAxis("workload", []workload.Profile{wl}),
			EngineAxis("engine", "pif"),
			SourceAxis("source", []SourceChoice{{
				Key: "store",
				New: func(s *Settings) sim.Source { return sim.StoreSource(dir) },
			}}),
			ShardsAxis("shards", []int{1, 2, 4}),
		},
	}
	g, err := Run(PoolEngine{Workers: 4}, spec)
	if err != nil {
		t.Fatal(err)
	}
	if g.Size() != 3 {
		t.Fatalf("size = %d, want 3", g.Size())
	}
	if !strings.HasSuffix(g.Cells[1].Key, "_shards-2") {
		t.Errorf("cell 1 key = %q, want _shards-2 suffix", g.Cells[1].Key)
	}
	base := g.Results[0].Sim
	for i := 1; i < g.Size(); i++ {
		if !reflect.DeepEqual(g.Results[i].Sim, base) {
			t.Errorf("cell %s diverges from unsharded:\n%+v\nvs\n%+v", g.Cells[i].Key, g.Results[i].Sim, base)
		}
	}
}

// TestShardedSweepErrors pins the failure modes: sharded cells refuse
// non-sliceable sources, Grid.Jobs refuses sharded cells, and a shard
// count exceeding the measured interval fails at planning.
func TestShardedSweepErrors(t *testing.T) {
	wl := tinyProfile("Tiny ShE", 6)
	spec := Spec{
		Name:       "she",
		Base:       tinySim(),
		BaseShards: 2,
		Axes: []Axis{
			WorkloadAxis("workload", []workload.Profile{wl}),
			EngineAxis("engine", "pif"),
		},
	}
	// Live cells (no source) cannot shard.
	if _, err := Run(PoolEngine{Workers: 2}, spec); err == nil || !strings.Contains(err.Error(), "not sliceable") {
		t.Errorf("live sharded run error = %v, want not-sliceable", err)
	}
	g, err := spec.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.Jobs(); err == nil || !strings.Contains(err.Error(), "sweep.Run") {
		t.Errorf("Jobs on sharded grid = %v, want run-through-Run error", err)
	}

	dir := filepath.Join(t.TempDir(), "store")
	recordSweepStore(t, dir, wl, tinySim())
	spec.Axes = append(spec.Axes, SourceAxis("source", []SourceChoice{{
		Key: "store",
		New: func(s *Settings) sim.Source { return sim.StoreSource(dir) },
	}}))
	spec.BaseShards = int(tinySim().MeasureInstrs) + 1
	if _, err := Run(PoolEngine{Workers: 2}, spec); err == nil || !strings.Contains(err.Error(), "shards") {
		t.Errorf("oversharded run error = %v, want shard-count error", err)
	}
}

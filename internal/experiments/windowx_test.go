package experiments

import (
	"strings"
	"testing"
)

// windowScale is a miniature configuration for the window-sweep tests:
// two workloads, short intervals, tiny chunks so slices cross shard
// boundaries.
func windowScale(storeDir string) Options {
	opts := QuickOptions()
	opts.Workloads = opts.Workloads[:2]
	opts.WarmupInstrs = 200_000
	opts.MeasureInstrs = 100_000
	opts.StoreDir = storeDir
	opts.TraceChunkRecords = 1 << 13
	return opts
}

// TestSweepWindowShape locks the sweep-window artifact's structure: one
// UIPC/coverage cell per (workload × offset × length), absolute windows
// resolved from the swept percentages, and positive UIPC everywhere.
func TestSweepWindowShape(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment tests are skipped in -short mode")
	}
	e := NewEnv(windowScale(""))
	r, err := SweepWindow(e)
	if err != nil {
		t.Fatal(err)
	}
	opts := e.Options()
	if len(r.Workloads) != len(opts.Workloads) {
		t.Fatalf("workloads = %v", r.Workloads)
	}
	for i, pct := range r.OffsetPcts {
		if want := opts.WarmupInstrs * uint64(pct) / 100; r.Offsets[i] != want {
			t.Errorf("offset[%d] = %d, want %d", i, r.Offsets[i], want)
		}
	}
	for i, pct := range r.LenPcts {
		if want := opts.MeasureInstrs * uint64(pct) / 100; r.Lens[i] != want {
			t.Errorf("len[%d] = %d, want %d", i, r.Lens[i], want)
		}
	}
	for wi, w := range r.Workloads {
		for oi := range r.OffsetPcts {
			for li := range r.LenPcts {
				if u := r.UIPC[wi][oi][li]; u <= 0 || u > 4 {
					t.Errorf("%s o%d/l%d: UIPC = %v", w, r.OffsetPcts[oi], r.LenPcts[li], u)
				}
				if c := r.Coverage[wi][oi][li]; c < 0 || c > 1 {
					t.Errorf("%s o%d/l%d: coverage = %v", w, r.OffsetPcts[oi], r.LenPcts[li], c)
				}
			}
		}
	}
	text := r.Render()
	for _, want := range []string{"sweep-window", "o0/l50", "o100/l100"} {
		if !strings.Contains(text, want) {
			t.Errorf("render missing %q", want)
		}
	}
	// Every grid cell landed in the per-job results collection.
	jobs := e.JobResults()
	wantJobs := len(r.Workloads) * len(r.OffsetPcts) * len(r.LenPcts)
	if len(jobs) != wantJobs {
		t.Errorf("collected %d per-job results, want %d", len(jobs), wantJobs)
	}
}

// TestSweepWindowStoreMemoryParity is the environment half of the slice
// determinism contract: the whole sweep-window artifact — every cell a
// window replay — must be byte-identical whether windows are sliced from
// a spilled on-disk store (sim.SliceSource over StoreReader.Seek, tiny
// chunks so windows span shard boundaries) or from the cached in-memory
// stream.
func TestSweepWindowStoreMemoryParity(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment tests are skipped in -short mode")
	}
	memEnv := NewEnv(windowScale(""))
	storeEnv := NewEnv(windowScale(t.TempDir()))
	mem, err := Run(memEnv, "sweep-window")
	if err != nil {
		t.Fatalf("in-memory: %v", err)
	}
	store, err := Run(storeEnv, "sweep-window")
	if err != nil {
		t.Fatalf("spilled: %v", err)
	}
	if mem.Text != store.Text {
		t.Errorf("store-sliced window sweep diverges from in-memory slicing:\n--- memory ---\n%s\n--- store ---\n%s",
			mem.Text, store.Text)
	}
}

package experiments

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/trace"
	"repro/internal/workload"
)

// spillScale returns a miniature configuration: large enough that every
// trace-based artifact has signal, small enough to spill and replay
// several times in a unit test. The chunk size is tiny so replays cross
// many shard boundaries.
func spillScale(storeDir string) Options {
	opts := QuickOptions()
	opts.WarmupInstrs = 60_000
	opts.MeasureInstrs = 30_000
	opts.StoreDir = storeDir
	opts.TraceChunkRecords = 1 << 13
	return opts
}

// TestSpillByteIdenticalArtifacts asserts every trace-based artifact is
// byte-identical whether the environment holds streams in memory or
// spills them to a sharded store and replays from disk.
func TestSpillByteIdenticalArtifacts(t *testing.T) {
	spillOpts := spillScale(t.TempDir())
	memOpts := spillOpts
	memOpts.StoreDir = ""

	memEnv := NewEnv(memOpts)
	spillEnv := NewEnv(spillOpts)
	for _, id := range []string{"fig2", "fig3", "fig7", "fig8"} {
		mem, err := Run(memEnv, id)
		if err != nil {
			t.Fatalf("%s (in-memory): %v", id, err)
		}
		spill, err := Run(spillEnv, id)
		if err != nil {
			t.Fatalf("%s (spilled): %v", id, err)
		}
		if mem.Text != spill.Text {
			t.Errorf("%s: spilled replay diverges from in-memory run:\n--- memory ---\n%s\n--- spilled ---\n%s",
				id, mem.Text, spill.Text)
		}
	}
}

// TestSpillStoreReuse asserts the store is collected once and replayed:
// a second environment pointed at the same StoreDir must reuse the
// existing store rather than regenerate it.
func TestSpillStoreReuse(t *testing.T) {
	dir := t.TempDir()
	opts := spillScale(dir)
	wl := workload.OLTPDB2()

	env1 := NewEnv(opts)
	storeDir, err := env1.Spill(wl)
	if err != nil {
		t.Fatalf("Spill: %v", err)
	}
	ix, err := trace.ReadIndex(storeDir)
	if err != nil {
		t.Fatalf("ReadIndex: %v", err)
	}
	if want := opts.WarmupInstrs + opts.MeasureInstrs; ix.Records() != want {
		t.Fatalf("store holds %d records, want %d", ix.Records(), want)
	}
	before, err := os.Stat(filepath.Join(storeDir, trace.IndexName))
	if err != nil {
		t.Fatal(err)
	}

	env2 := NewEnv(opts)
	storeDir2, err := env2.Spill(wl)
	if err != nil {
		t.Fatalf("second Spill: %v", err)
	}
	if storeDir2 != storeDir {
		t.Fatalf("second env spilled to %s, want %s", storeDir2, storeDir)
	}
	after, err := os.Stat(filepath.Join(storeDir, trace.IndexName))
	if err != nil {
		t.Fatal(err)
	}
	if !after.ModTime().Equal(before.ModTime()) {
		t.Error("second env rewrote an up-to-date store instead of reusing it")
	}

	// A store written at a different scale must not be reused.
	bigger := opts
	bigger.MeasureInstrs += 10_000
	env3 := NewEnv(bigger)
	storeDir3, err := env3.Spill(wl)
	if err != nil {
		t.Fatalf("rescaled Spill: %v", err)
	}
	if storeDir3 == storeDir {
		t.Error("rescaled env reused a store with the wrong record count")
	}
}

// TestSpillStreamAndEachRecordAgree asserts the two access paths see the
// same records in the same order when spilling.
func TestSpillStreamAndEachRecordAgree(t *testing.T) {
	opts := spillScale(t.TempDir())
	env := NewEnv(opts)
	wl := workload.WebApache()

	fromStream, err := env.Stream(wl)
	if err != nil {
		t.Fatal(err)
	}
	var fromEach trace.Stream
	if err := env.EachRecord(wl, func(r trace.Record) { fromEach = append(fromEach, r) }); err != nil {
		t.Fatal(err)
	}
	if len(fromStream) != len(fromEach) {
		t.Fatalf("Stream %d records, EachRecord %d", len(fromStream), len(fromEach))
	}
	for i := range fromStream {
		if fromStream[i] != fromEach[i] {
			t.Fatalf("record %d differs: %+v vs %+v", i, fromStream[i], fromEach[i])
		}
	}
}

package sim

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"path/filepath"
	"testing"

	"repro/internal/config"
	"repro/internal/prefetch"
	"repro/internal/trace"
	"repro/internal/workload"
)

func replayConfig() Config {
	return Config{
		System:        config.Default(),
		WarmupInstrs:  150_000,
		MeasureInstrs: 100_000,
	}
}

// recordStore writes the workload's warmup+measure stream — with the
// same phase boundaries RunJob's live path uses — into a sharded store.
func recordStore(t testing.TB, dir string, wl workload.Profile, cfg Config, chunkRecords uint64) {
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

// TestReplayMatchesLive is the store's acceptance bar: a simulation
// replayed from a sharded on-disk trace must produce a byte-identical
// sim.Result (compared as JSON) to one driven live by the executor for
// the same profile and instruction counts. The chunk size is far smaller
// than the trace so the replay crosses many shard boundaries.
func TestReplayMatchesLive(t *testing.T) {
	wl := workload.OLTPDB2()
	cfg := replayConfig()
	dir := filepath.Join(t.TempDir(), "store")
	recordStore(t, dir, wl, cfg, 1<<14) // ~16 chunks

	engine := prefetch.Spec{Name: "nextline"}

	live, err := RunJob(context.Background(), Job{Config: cfg, Workload: wl, Engine: engine})
	if err != nil {
		t.Fatalf("live RunJob: %v", err)
	}
	replayed, err := RunJob(context.Background(), Job{Config: cfg, Workload: wl, From: StoreSource(dir), Engine: engine})
	if err != nil {
		t.Fatalf("replay RunJob: %v", err)
	}

	liveJSON, err := json.Marshal(live)
	if err != nil {
		t.Fatal(err)
	}
	replayJSON, err := json.Marshal(replayed)
	if err != nil {
		t.Fatal(err)
	}
	if string(liveJSON) != string(replayJSON) {
		t.Errorf("replayed result differs from live:\nlive:   %s\nreplay: %s", liveJSON, replayJSON)
	}
}

// TestReplayShortSourceFails asserts a source exhausted before
// warmup+measure is a hard error, never a silently short simulation.
func TestReplayShortSourceFails(t *testing.T) {
	wl := workload.OLTPDB2()
	cfg := replayConfig()
	short := make(trace.Stream, 1000)
	_, err := RunJob(context.Background(), Job{
		Config:   cfg,
		Workload: wl,
		From:     OpenerSource(func() (trace.Iterator, error) { return short.Iter(), nil }),
		Engine:   prefetch.Spec{Name: "none"},
	})
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Errorf("short source error = %v, want io.ErrUnexpectedEOF", err)
	}
}

// TestReplayCancel asserts the replay path honors context cancellation.
func TestReplayCancel(t *testing.T) {
	wl := workload.OLTPDB2()
	cfg := replayConfig()
	dir := filepath.Join(t.TempDir(), "store")
	recordStore(t, dir, wl, cfg, 1<<14)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := RunJob(ctx, Job{
		Config:   cfg,
		Workload: wl,
		From:     StoreSource(dir),
		Engine:   prefetch.Spec{Name: "none"},
	})
	if !errors.Is(err, context.Canceled) {
		t.Errorf("canceled replay error = %v, want context.Canceled", err)
	}
}

// BenchmarkReplayFromStore measures the full replay path (open store,
// stream warmup+measure through the simulator). ReportAllocs shows the
// replay's allocations are dominated by the simulator's own tables, with
// trace I/O contributing only per-chunk buffers — memory bounded by
// chunk size, not trace length.
func BenchmarkReplayFromStore(b *testing.B) {
	wl := workload.OLTPDB2()
	cfg := replayConfig()
	dir := filepath.Join(b.TempDir(), "store")
	recordStore(b, dir, wl, cfg, 1<<14)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := RunJob(context.Background(), Job{
			Config:   cfg,
			Workload: wl,
			From:     StoreSource(dir),
			Engine:   prefetch.Spec{Name: "none"},
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

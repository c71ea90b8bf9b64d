package sim

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/prefetch"
	"repro/internal/trace"
	"repro/internal/workload"
)

// runJSON runs a job and returns its result as canonical JSON.
func runJSON(t *testing.T, j Job) string {
	t.Helper()
	res, err := RunJob(context.Background(), j)
	if err != nil {
		t.Fatalf("RunJob: %v", err)
	}
	b, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestSourcePathsIdentical is the source-API acceptance bar: the same
// simulation driven (1) live with no source, (2) by a phase-less
// LiveSource, (3) by an explicit-phase LiveSource, (4) by a StoreSource
// over a recorded store, and (5) by a whole-store SliceSource must
// produce identical sim.Result JSON.
func TestSourcePathsIdentical(t *testing.T) {
	wl := workload.OLTPDB2()
	cfg := replayConfig()
	dir := filepath.Join(t.TempDir(), "store")
	recordStore(t, dir, wl, cfg, 1<<14)
	engine := prefetch.Spec{Name: "nextline"}
	total := cfg.WarmupInstrs + cfg.MeasureInstrs

	live := runJSON(t, Job{Config: cfg, Workload: wl, Engine: engine})

	variants := map[string]Job{
		"live-source":        {Config: cfg, Workload: wl, From: LiveSource(wl), Engine: engine},
		"live-source-phases": {Config: cfg, Workload: wl, From: LiveSource(wl, cfg.WarmupInstrs, cfg.MeasureInstrs), Engine: engine},
		"store-source":       {Config: cfg, Workload: wl, From: StoreSource(dir), Engine: engine},
		"slice-source":       {Config: cfg, Workload: wl, From: SliceSource(dir, trace.Window{Off: 0, Len: total}), Engine: engine},
	}
	for name, j := range variants {
		if got := runJSON(t, j); got != live {
			t.Errorf("%s differs from live:\nlive: %s\ngot:  %s", name, live, got)
		}
	}
}

// TestSliceSourceSubRange locks the slice-replay determinism contract at
// the simulator level: measuring window [off, off+len) through a
// SliceSource equals feeding the identical sub-range of a full-store
// read, for a window spanning several chunk boundaries.
func TestSliceSourceSubRange(t *testing.T) {
	wl := workload.OLTPDB2()
	cfg := replayConfig()
	dir := filepath.Join(t.TempDir(), "store")
	recordStore(t, dir, wl, cfg, 1<<13) // ~30 chunks

	w := trace.Window{Off: 50_000, Len: 120_000} // spans many 8K chunks
	wcfg := cfg
	wcfg.WarmupInstrs = 40_000
	wcfg.MeasureInstrs = 80_000 // warmup+measure == window length
	engine := prefetch.Spec{Name: "nextline"}

	viaSlice := runJSON(t, Job{Config: wcfg, Workload: wl, From: SliceSource(dir, w), Engine: engine})

	r, err := trace.OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	full, err := r.ReadAll()
	r.Close()
	if err != nil {
		t.Fatal(err)
	}
	sub := full[w.Off:w.End()]
	viaMemory := runJSON(t, Job{Config: wcfg, Workload: wl, From: OpenerSource(func() (trace.Iterator, error) { return sub.Iter(), nil }), Engine: engine})
	if viaSlice != viaMemory {
		t.Errorf("slice replay differs from in-memory sub-range:\nslice:  %s\nmemory: %s", viaSlice, viaMemory)
	}
}

// TestSourceValidation covers RunJob's up-front source checks: short
// windows, workload mismatches and out-of-range slices are hard errors
// before (or instead of) a short simulation.
func TestSourceValidation(t *testing.T) {
	wl := workload.OLTPDB2()
	cfg := replayConfig()
	dir := filepath.Join(t.TempDir(), "store")
	recordStore(t, dir, wl, cfg, 1<<14)
	engine := prefetch.Spec{Name: "none"}
	total := cfg.WarmupInstrs + cfg.MeasureInstrs

	// A slice shorter than warmup+measure fails up front with the record
	// budget in the message.
	_, err := RunJob(context.Background(), Job{
		Config: cfg, Workload: wl,
		From:   SliceSource(dir, trace.Window{Off: 0, Len: total / 2}),
		Engine: engine,
	})
	if err == nil || !strings.Contains(err.Error(), "need") {
		t.Errorf("short slice error = %v, want record-budget error", err)
	}

	// An out-of-range window is a hard open error.
	_, err = RunJob(context.Background(), Job{
		Config: cfg, Workload: wl,
		From:   SliceSource(dir, trace.Window{Off: total, Len: 1}),
		Engine: engine,
	})
	if err == nil || !strings.Contains(err.Error(), "out of range") {
		t.Errorf("out-of-range slice error = %v, want out-of-range error", err)
	}

	// A store recorded from another workload cannot be replayed under
	// this job's profile.
	other := workload.WebApache()
	_, err = RunJob(context.Background(), Job{
		Config: cfg, Workload: other,
		From:   StoreSource(dir),
		Engine: engine,
	})
	if err == nil || !strings.Contains(err.Error(), "recorded from") {
		t.Errorf("workload-mismatch error = %v", err)
	}

	// A live source for a different workload than the job's is rejected.
	_, err = RunJob(context.Background(), Job{
		Config: cfg, Workload: other,
		From:   LiveSource(wl),
		Engine: engine,
	})
	if err == nil {
		t.Error("live-source workload mismatch accepted")
	}
}

// TestLiveSourceOpen covers LiveSource's direct Open contract: explicit
// phases stream the executor's records; no phases is an error.
func TestLiveSourceOpen(t *testing.T) {
	wl := workload.OLTPDB2()
	if _, _, err := LiveSource(wl).Open(context.Background()); err == nil {
		t.Error("phase-less LiveSource.Open accepted")
	}
	it, info, err := LiveSource(wl, 1000, 500).Open(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if info.Kind != "live" || info.Workload != wl.Name || info.Records != 1500 {
		t.Errorf("info = %+v", info)
	}
	s, err := trace.Collect(it)
	if err != nil {
		t.Fatal(err)
	}
	if len(s) != 1500 {
		t.Errorf("live source yielded %d records, want 1500", len(s))
	}
	if c, ok := it.(io.Closer); ok {
		c.Close()
	}

	// The emitted stream matches the executor's phase-boundary pattern.
	prog, err := workload.BuildProgram(wl)
	if err != nil {
		t.Fatal(err)
	}
	ref := workload.NewIterator(prog, 1000, 500)
	defer ref.Close()
	want, err := trace.Collect(ref)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if s[i] != want[i] {
			t.Fatalf("record %d = %+v, want %+v", i, s[i], want[i])
		}
	}
}

// TestSourceEOFStillHardError keeps the short-source contract on the new
// path: an OpenerSource around a short iterator (no record metadata to
// pre-validate) still fails with io.ErrUnexpectedEOF mid-run.
func TestSourceEOFStillHardError(t *testing.T) {
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
		t.Errorf("short opener source error = %v, want io.ErrUnexpectedEOF", err)
	}
}

// TestSourceWorkloadAdoption locks the profile-resolution rules: a job
// naming no workload adopts a live source's full profile (front-end
// seed included, phased or not), and replay sources — which carry no
// profile — are a hard error without one, never a silent seed-0 run.
func TestSourceWorkloadAdoption(t *testing.T) {
	wl := workload.OLTPDB2()
	cfg := replayConfig()
	engine := prefetch.Spec{Name: "nextline"}

	named := runJSON(t, Job{Config: cfg, Workload: wl, Engine: engine})
	for name, src := range map[string]Source{
		"phaseless": LiveSource(wl),
		"phased":    LiveSource(wl, cfg.WarmupInstrs, cfg.MeasureInstrs),
	} {
		got := runJSON(t, Job{Config: cfg, From: src, Engine: engine})
		if got != named {
			t.Errorf("%s live source without Job.Workload differs from the named run:\nnamed: %s\ngot:   %s", name, named, got)
		}
	}

	dir := filepath.Join(t.TempDir(), "store")
	recordStore(t, dir, wl, cfg, 1<<14)
	_, err := RunJob(context.Background(), Job{Config: cfg, From: StoreSource(dir), Engine: engine})
	if err == nil || !strings.Contains(err.Error(), "workload") {
		t.Errorf("replay without a workload profile = %v, want a hard error", err)
	}
}

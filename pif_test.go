package pif

import (
	"strings"
	"testing"
)

// The root package is a facade; these tests exercise the public API end to
// end the way a downstream user would.

func TestWorkloadsSuite(t *testing.T) {
	ws := Workloads()
	if len(ws) != 6 {
		t.Fatalf("Workloads() = %d entries, want 6", len(ws))
	}
	for _, w := range ws {
		got, err := WorkloadByName(w.Name)
		if err != nil || got.Name != w.Name {
			t.Errorf("WorkloadByName(%q) = %v, %v", w.Name, got.Name, err)
		}
	}
	if _, err := WorkloadByName("SAP HANA"); err == nil {
		t.Error("unknown workload accepted")
	}
}

func TestGenerateStreamPublic(t *testing.T) {
	s, err := GenerateStream(DSSQry2(), 10_000)
	if err != nil {
		t.Fatal(err)
	}
	if len(s) < 10_000 {
		t.Fatalf("stream = %d records", len(s))
	}
	if blocks := s.Blocks(); len(blocks) == 0 {
		t.Fatal("no block events")
	}
}

func TestSimulatePublicAPI(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation test skipped in -short mode")
	}
	cfg := DefaultSimConfig()
	cfg.WarmupInstrs = 1_000_000
	cfg.MeasureInstrs = 300_000
	wl := WebZeus()

	base, err := Simulate(cfg, wl, NoPrefetch())
	if err != nil {
		t.Fatal(err)
	}
	res, err := Simulate(cfg, wl, NewPIF(DefaultPIFConfig()))
	if err != nil {
		t.Fatal(err)
	}
	if res.Prefetcher != "PIF" {
		t.Errorf("Prefetcher = %s", res.Prefetcher)
	}
	if res.UIPC <= base.UIPC {
		t.Errorf("PIF UIPC %.3f <= baseline %.3f", res.UIPC, base.UIPC)
	}
	if res.Coverage() <= 0.5 {
		t.Errorf("coverage = %.3f", res.Coverage())
	}
}

func TestBaselineConstructors(t *testing.T) {
	if NewNextLine(4).Name() != "Next-Line" {
		t.Error("NewNextLine name")
	}
	if NewTIFS().Name() != "TIFS" {
		t.Error("NewTIFS name")
	}
	if NoPrefetch().Name() != "None" {
		t.Error("NoPrefetch name")
	}
	if NewPIF(DefaultPIFConfig()).Name() != "PIF" {
		t.Error("NewPIF name")
	}
}

func TestDefaultConfigsSane(t *testing.T) {
	if err := DefaultSystem().Validate(); err != nil {
		t.Errorf("DefaultSystem invalid: %v", err)
	}
	if err := DefaultPIFConfig().Validate(); err != nil {
		t.Errorf("DefaultPIFConfig invalid: %v", err)
	}
	pcfg := DefaultPIFConfig()
	if pcfg.Geometry.Size() != 8 {
		t.Errorf("default region size = %d, want 8", pcfg.Geometry.Size())
	}
	if pcfg.HistoryRegions != 32<<10 {
		t.Errorf("default history = %d, want 32K", pcfg.HistoryRegions)
	}
	if pcfg.NumSABs != 4 || pcfg.SABWindow != 7 {
		t.Errorf("default SABs = %d/%d, want 4/7", pcfg.NumSABs, pcfg.SABWindow)
	}
}

func TestExperimentRegistryPublic(t *testing.T) {
	ids := ExperimentIDs()
	if len(ids) != 10 {
		t.Fatalf("ExperimentIDs = %v", ids)
	}
	opts := QuickExperimentOptions()
	opts.Workloads = opts.Workloads[:1]
	rep, err := RunExperiment(opts, "table1")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(rep.Text, "Table I") {
		t.Errorf("table1 report: %q", rep.Text)
	}
}

func TestRunAllExperimentsTiny(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	opts := QuickExperimentOptions()
	opts.Workloads = opts.Workloads[2:3] // DSS Qry2 only
	opts.SweepWorkloads = opts.Workloads // keep the sweep artifacts tiny too
	opts.WarmupInstrs = 800_000
	opts.MeasureInstrs = 300_000
	reports, err := RunAllExperiments(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != 10 {
		t.Fatalf("reports = %d", len(reports))
	}
}

// TestSweepPublicAPI exercises the sweep facade end to end the way a
// downstream user would: declare a spec, run it over a pool engine,
// address the grid, and persist/reload/diff per-job results.
func TestSweepPublicAPI(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation test skipped in -short mode")
	}
	cfg := DefaultSimConfig()
	cfg.WarmupInstrs = 100_000
	cfg.MeasureInstrs = 100_000
	spec := SweepSpec{
		Name: "api",
		Base: cfg,
		Axes: []SweepAxis{
			SweepWorkloadAxis("workload", []Workload{DSSQry2()}),
			SweepEngineAxis("engine", "none", "pif"),
		},
	}
	g, err := RunSweep(SweepPoolEngine{Workers: 2}, spec)
	if err != nil {
		t.Fatal(err)
	}
	if g.Size() != 2 {
		t.Fatalf("size = %d", g.Size())
	}
	base, err := g.Result("workload", "dss-qry2", "engine", "none")
	if err != nil {
		t.Fatal(err)
	}
	pifR, err := g.Result("workload", "dss-qry2", "engine", "pif")
	if err != nil {
		t.Fatal(err)
	}
	if pifR.Sim.UIPC <= base.Sim.UIPC {
		t.Errorf("PIF UIPC %.3f <= baseline %.3f", pifR.Sim.UIPC, base.Sim.UIPC)
	}

	jobs, err := g.ReportJobs()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := SaveJobResults(dir, jobs); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadJobResults(dir)
	if err != nil {
		t.Fatal(err)
	}
	if d := DiffJobResults(jobs, loaded, DefaultResultTolerances()); d.OutOfTolerance() {
		t.Fatalf("round-tripped jobs drifted:\n%s", d.Render())
	}
}

// TestSourceBackendPublicAPI exercises the unified pipeline facade end
// to end the way a downstream user would: record a store, derive a
// window, and run the same simulation through every Source constructor
// and through an explicit Backend — all paths byte-identical.
func TestSourceBackendPublicAPI(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation test skipped in -short mode")
	}
	wl := OLTPDB2()
	cfg := DefaultSimConfig()
	cfg.WarmupInstrs = 120_000
	cfg.MeasureInstrs = 80_000
	total := cfg.WarmupInstrs + cfg.MeasureInstrs

	dir := t.TempDir() + "/store"
	it, err := GenerateIterator(wl, cfg.WarmupInstrs, cfg.MeasureInstrs)
	if err != nil {
		t.Fatal(err)
	}
	n, err := BuildTraceStore(dir, wl.Name, 1<<14, it, cfg.WarmupInstrs, cfg.MeasureInstrs)
	it.Close()
	if err != nil || n != total {
		t.Fatalf("BuildTraceStore = %d, %v", n, err)
	}

	live, err := Simulate(cfg, wl, NewTIFS())
	if err != nil {
		t.Fatal(err)
	}
	w, err := ParseTraceWindow("0:200000")
	if err != nil {
		t.Fatal(err)
	}
	for name, src := range map[string]Source{
		"live":  LiveSource(wl),
		"store": StoreSource(dir),
		"slice": SliceSource(dir, w),
	} {
		got, err := SimulateSource(cfg, wl, src, NewTIFS())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got != live {
			t.Errorf("%s source result differs from live", name)
		}
	}

	// Same jobs through an explicit backend.
	b := NewLocalBackend(2)
	defer b.Close()
	jobs := []Job{
		{Label: "live", Workload: wl, Config: cfg, Engine: EngineSpec{Name: "tifs"}},
		{Label: "slice", Workload: wl, Config: cfg, Engine: EngineSpec{Name: "tifs"}, Source: SliceSource(dir, w)},
	}
	results, err := SweepPoolEngine{Backend: b}.RunJobs(jobs)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		if r.Sim != live {
			t.Errorf("backend job %s differs from live", r.Label)
		}
	}

	// A window past the recorded range is a hard error.
	if _, err := SimulateSource(cfg, wl, SliceSource(dir, TraceWindow{Off: total, Len: 1}), NewTIFS()); err == nil {
		t.Error("out-of-range slice accepted")
	}

	// The slice reader is exported for direct window replay.
	sr, err := OpenTraceSlice(dir, w)
	if err != nil {
		t.Fatal(err)
	}
	defer sr.Close()
	if sr.Window() != w {
		t.Errorf("slice window = %v", sr.Window())
	}
}

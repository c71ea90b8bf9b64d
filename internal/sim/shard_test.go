package sim

import "testing"

// TestSplitReplayPlans pins the split geometry: contiguous tiling of the
// measured interval, remainder to the earliest shards, full-prefix vs
// fixed-prefix warmup windows.
func TestSplitReplayPlans(t *testing.T) {
	cfg := Config{WarmupInstrs: 1000, MeasureInstrs: 10_003}
	exact, err := SplitReplay(cfg, 4, true)
	if err != nil {
		t.Fatal(err)
	}
	approx, err := SplitReplay(cfg, 4, false)
	if err != nil {
		t.Fatal(err)
	}
	var start, total uint64 = cfg.WarmupInstrs, 0
	for k := range exact {
		e, a := exact[k], approx[k]
		if e.MeasureInstrs != a.MeasureInstrs {
			t.Fatalf("shard %d: measure differs between modes: %d vs %d", k, e.MeasureInstrs, a.MeasureInstrs)
		}
		total += e.MeasureInstrs
		if e.Window.Off != 0 || e.WarmupInstrs != cfg.WarmupInstrs ||
			e.MeasureOffsetInstrs != start-cfg.WarmupInstrs || e.Window.Len != start+e.MeasureInstrs {
			t.Errorf("shard %d exact: window %s warmup %d offset %d (span start %d)",
				k, e.Window, e.WarmupInstrs, e.MeasureOffsetInstrs, start)
		}
		if a.MeasureOffsetInstrs != 0 {
			t.Errorf("shard %d approx: offset %d, want 0", k, a.MeasureOffsetInstrs)
		}
		if a.WarmupInstrs != cfg.WarmupInstrs || a.Window.Off != start-cfg.WarmupInstrs ||
			a.Window.Len != cfg.WarmupInstrs+a.MeasureInstrs {
			t.Errorf("shard %d approx: window %s warmup %d (span start %d)", k, a.Window, a.WarmupInstrs, start)
		}
		start += e.MeasureInstrs
	}
	if total != cfg.MeasureInstrs {
		t.Errorf("shard spans sum to %d, want %d", total, cfg.MeasureInstrs)
	}
	// Remainder goes to the earliest shards: 10_003 over 4 = {2501, 2501, 2501, 2500}.
	want := []uint64{2501, 2501, 2501, 2500}
	for k, w := range want {
		if exact[k].MeasureInstrs != w {
			t.Errorf("shard %d measure = %d, want %d", k, exact[k].MeasureInstrs, w)
		}
	}

	// Degenerate requests fail loudly.
	if _, err := SplitReplay(cfg, 0, true); err == nil {
		t.Error("0 shards accepted")
	}
	if _, err := SplitReplay(Config{MeasureInstrs: 2}, 3, true); err == nil {
		t.Error("more shards than measured records accepted")
	}
	if _, err := SplitReplay(Config{}, 1, true); err == nil {
		t.Error("zero measure accepted")
	}
}

package main

import (
	"bytes"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/internal/trace"
	"repro/internal/workload"
)

// runOut runs pifsim with args and returns what it printed.
func runOut(t *testing.T, args ...string) string {
	t.Helper()
	var out bytes.Buffer
	if err := run(args, &out); err != nil {
		t.Fatalf("pifsim %s: %v", strings.Join(args, " "), err)
	}
	return out.String()
}

// withoutWallClock drops the lines that carry wall-clock time.
func withoutWallClock(s string) string {
	var keep []string
	for _, line := range strings.Split(s, "\n") {
		if !strings.Contains(line, "wall-clock") {
			keep = append(keep, line)
		}
	}
	return strings.Join(keep, "\n")
}

// recordStore records warmup+measure records of wl into a store at dir
// with the phase split of a pifsim run at the same lengths.
func recordStore(t *testing.T, dir string, wl workload.Profile, warmup, measure uint64) {
	t.Helper()
	prog, err := workload.BuildProgram(wl)
	if err != nil {
		t.Fatal(err)
	}
	it := workload.NewIterator(prog, warmup, measure)
	defer it.Close()
	if _, err := trace.BuildStore(dir, wl.Name, 1<<14, it, warmup, measure); err != nil {
		t.Fatalf("BuildStore: %v", err)
	}
}

// TestMultiEngineMatchesSolo: a live multi-engine run (one sweep whose
// cells share a record stream, so they run as lanes of one pass) prints
// the same numbers as each engine run alone.
func TestMultiEngineMatchesSolo(t *testing.T) {
	common := []string{"-workload", "DSS Qry2", "-warmup", "60000", "-measure", "40000", "-parallel", "2"}
	table := runOut(t, append(common, "-engine", "pif", "-engine", "tifs")...)
	rows := regexp.MustCompile(`(?m)^DSS Qry2\s+(\S+)\s+(\S+)\s+(\S+)\s+(\S+)%`).FindAllStringSubmatch(table, -1)
	if len(rows) != 2 {
		t.Fatalf("multi-engine output has %d rows, want 2:\n%s", len(rows), table)
	}
	detail := regexp.MustCompile(`(?s)prefetcher\s+(\S+) .*UIPC (\S+)\n.*\(ratio (\S+)\).*\(coverage (\S+)%\)`)
	for i, eng := range []string{"pif", "tifs"} {
		solo := runOut(t, append(common, "-engine", eng)...)
		m := detail.FindStringSubmatch(solo)
		if m == nil {
			t.Fatalf("%s: no detail block in\n%s", eng, solo)
		}
		if got, want := rows[i][1:], m[1:]; strings.Join(got, " ") != strings.Join(want, " ") {
			t.Errorf("%s: multi-engine row %v, solo run %v", eng, got, want)
		}
	}
}

// TestShardedExactMatchesStore: an exact 4-shard replay of a store
// prints the same detail block as the unsharded replay; only the lines
// carrying wall-clock time differ.
func TestShardedExactMatchesStore(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	recordStore(t, dir, workload.OLTPDB2(), 100_000, 100_000)
	common := []string{"-trace", dir, "-warmup", "100000", "-measure", "100000", "-parallel", "2"}
	plain := runOut(t, common...)
	sharded := runOut(t, append(common, "-shards", "4", "-exact")...)
	if !strings.Contains(sharded, "sharded replay: 4 windows (exact warmup)") {
		t.Errorf("sharded output lacks its header:\n%s", sharded)
	}
	if withoutWallClock(plain) != withoutWallClock(sharded) {
		t.Errorf("exact sharded replay differs from store replay:\n--- store ---\n%s\n--- sharded ---\n%s", plain, sharded)
	}
}

// TestUndersizedStoreFailsUpFront: a store shorter than warmup+measure
// is rejected by pifsim's own store check, before any job runs and
// before anything is printed, sharded or not.
func TestUndersizedStoreFailsUpFront(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	recordStore(t, dir, workload.OLTPDB2(), 20_000, 20_000)
	for _, extra := range [][]string{nil, {"-shards", "4"}, {"-shards", "4", "-exact"}} {
		args := append([]string{"-trace", dir, "-warmup", "20000", "-measure", "30000"}, extra...)
		var out bytes.Buffer
		err := run(args, &out)
		if err == nil || !strings.Contains(err.Error(), "holds 40000 records, need 50000 (warmup+measure)") {
			t.Errorf("%v: err = %v, want the store check's record-count error", extra, err)
		}
		if out.Len() != 0 {
			t.Errorf("%v: printed %q before failing", extra, out.String())
		}
	}
}

package sim

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/prefetch"
	"repro/internal/trace"
	"repro/internal/workload"
)

// laneProfile derives a seeded workload from a standard profile: a fresh
// seed plus footprint, branch and interrupt parameters drawn inside the
// bounds Profile.Validate accepts, with the footprint scaled down so many
// lanes run quickly.
func laneProfile(t *testing.T, rng *rand.Rand) workload.Profile {
	t.Helper()
	suite := workload.StandardSuite()
	p := suite[rng.Intn(len(suite))]
	p.Seed = rng.Int63()
	p.Funcs = p.Funcs/8 + rng.Intn(p.Funcs/4+1)
	p.TxTypes = 1 + rng.Intn(min(p.TxTypes, p.Funcs))
	p.TxSkew = 0.1 + 0.9*rng.Float64()
	p.MonoCallFrac = rng.Float64()
	p.SkipTakenProb = rng.Float64()
	if rng.Intn(2) == 0 {
		p.InterruptEvery = 0
	}
	if err := p.Validate(); err != nil {
		t.Fatalf("derived profile: %v", err)
	}
	return p
}

// laneJobs crosses every registered engine with PerfectL1 off and on and
// two L1-I sizes: the lanes of one pass over wl.
func laneJobs(wl workload.Profile, base Config) []Job {
	var jobs []Job
	for _, name := range prefetch.Names() {
		for _, perfect := range []bool{false, true} {
			for _, l1 := range []int{32 << 10, 64 << 10} {
				cfg := base
				cfg.PerfectL1 = perfect
				cfg.System.L1ISizeBytes = l1
				jobs = append(jobs, Job{Config: cfg, Workload: wl, Engine: prefetch.Spec{Name: name}})
			}
		}
	}
	return jobs
}

// mustJSON renders a result for byte comparison.
func mustJSON(t *testing.T, r Result) string {
	t.Helper()
	b, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestLanesMatchSolo is the lockstep oracle: every lane of a pass —
// each registered engine, with and without a perfect L1, at two L1-I
// sizes — reports exactly the result its job reports alone, over seeded
// workloads, live and replayed, with and without a measure offset.
func TestLanesMatchSolo(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation test skipped in -short mode")
	}
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 3; trial++ {
		wl := laneProfile(t, rng)
		base := DefaultConfig()
		base.WarmupInstrs = 40_000 + uint64(rng.Intn(40_000))
		base.MeasureInstrs = 60_000 + uint64(rng.Intn(40_000))
		if trial > 0 {
			base.MeasureOffsetInstrs = 10_000 + uint64(rng.Intn(20_000))
		}
		jobs := laneJobs(wl, base)
		if trial == 2 {
			// The lanes share one source value, replayed through the
			// iterator path.
			src := LiveSource(wl, base.WarmupInstrs, base.MeasureOffsetInstrs, base.MeasureInstrs)
			for i := range jobs {
				jobs[i].From = src
			}
		}
		t.Run(fmt.Sprintf("%d/%s/seed%d", trial, wl.Name, wl.Seed), func(t *testing.T) {
			lanes, err := RunJobs(context.Background(), jobs)
			if err != nil {
				t.Fatal(err)
			}
			if len(lanes) != len(jobs) {
				t.Fatalf("%d results for %d lanes", len(lanes), len(jobs))
			}
			for i, j := range jobs {
				solo, err := RunJob(context.Background(), j)
				if err != nil {
					t.Fatal(err)
				}
				if got, want := mustJSON(t, lanes[i]), mustJSON(t, solo); got != want {
					t.Errorf("lane %d (%s, perfect=%v, l1=%d) differs from its solo run:\nlane: %s\nsolo: %s",
						i, j.Engine.Name, j.Config.PerfectL1, j.Config.System.L1ISizeBytes, got, want)
				}
			}
		})
	}
}

// eventLog fingerprints the callbacks a lane receives, in order.
type eventLog struct {
	n    int
	hash uint64
}

func (l *eventLog) add(v ...uint64) {
	h := fnv.New64a()
	var b [8]byte
	for _, x := range append([]uint64{l.hash}, v...) {
		for i := range b {
			b[i] = byte(x >> (8 * i))
		}
		h.Write(b[:])
	}
	l.hash = h.Sum64()
	l.n++
}

func (l *eventLog) OnCorrectFetch(tl isa.TrapLevel, hit, pref bool) {
	flag := func(b bool) uint64 {
		if b {
			return 1
		}
		return 0
	}
	l.add(uint64(tl), flag(hit), flag(pref))
}

// TestLaneHooksMatchSolo: per-lane Instrument hooks (Figure 9's
// stream-end hook) and Observer callbacks fire in a pass exactly as they
// do when each job runs alone — same count, same order, same values.
func TestLaneHooksMatchSolo(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation test skipped in -short mode")
	}
	wl := workload.WebApache()
	cfg := jobConfig()
	cfg.MeasureOffsetInstrs = 30_000
	type logs struct{ streams, fetches *eventLog }
	mk := func() ([]Job, []logs) {
		var jobs []Job
		var ls []logs
		for _, name := range []string{"pif", "tifs", "pif-nosep"} {
			l := logs{&eventLog{}, &eventLog{}}
			j := Job{Config: cfg, Workload: wl, Engine: prefetch.Spec{Name: name}, Observer: l.fetches}
			if strings.HasPrefix(name, "pif") {
				j.Instrument = func(p prefetch.Prefetcher) {
					p.(*core.PIF).SetStreamEndHook(func(adv uint64) { l.streams.add(adv) })
				}
			}
			jobs = append(jobs, j)
			ls = append(ls, l)
		}
		return jobs, ls
	}
	jobs, lanes := mk()
	if _, err := RunJobs(context.Background(), jobs); err != nil {
		t.Fatal(err)
	}
	soloJobs, solo := mk()
	for _, j := range soloJobs {
		if _, err := RunJob(context.Background(), j); err != nil {
			t.Fatal(err)
		}
	}
	for i := range jobs {
		if *lanes[i].fetches != *solo[i].fetches {
			t.Errorf("lane %d (%s): observer saw %+v, solo %+v", i, jobs[i].Engine.Name, *lanes[i].fetches, *solo[i].fetches)
		}
		if *lanes[i].streams != *solo[i].streams {
			t.Errorf("lane %d (%s): stream-end hook saw %+v, solo %+v", i, jobs[i].Engine.Name, *lanes[i].streams, *solo[i].streams)
		}
		if lanes[i].fetches.n == 0 {
			t.Errorf("lane %d (%s): observer never fired", i, jobs[i].Engine.Name)
		}
	}
	if lanes[0].streams.n == 0 {
		t.Error("PIF lane: stream-end hook never fired")
	}
}

// TestLanesCancelMidPass: canceling while a pass is running stops every
// lane, and the pass reports ctx.Err() rather than any partial result.
func TestLanesCancelMidPass(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation test skipped in -short mode")
	}
	for _, replay := range []bool{false, true} {
		ctx, cancel := context.WithCancel(context.Background())
		cfg := jobConfig()
		cfg.MeasureInstrs = 5_000_000
		fired := false
		jobs := []Job{
			{Config: cfg, Workload: workload.OLTPDB2(), Engine: prefetch.Spec{Name: "pif"}},
			{Config: cfg, Workload: workload.OLTPDB2(), Engine: prefetch.Spec{Name: "none"},
				Observer: obsFunc(func() {
					if !fired {
						fired = true
						cancel()
					}
				})},
		}
		if replay {
			src := LiveSource(workload.OLTPDB2(), cfg.WarmupInstrs, cfg.MeasureInstrs)
			for i := range jobs {
				jobs[i].From = src
			}
		}
		res, err := RunJobs(ctx, jobs)
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("replay=%v: err = %v, want context.Canceled", replay, err)
		}
		if res != nil {
			t.Errorf("replay=%v: canceled pass returned results %v", replay, res)
		}
	}
}

// TestLaneMismatchRejected: lanes that disagree on anything the front
// half reads are refused with an error naming the field; fields only a
// back half reads may differ.
func TestLaneMismatchRejected(t *testing.T) {
	wl := workload.DSSQry2()
	cfg := jobConfig()
	lead := Job{Config: cfg, Workload: wl, Engine: prefetch.Spec{Name: "none"}}
	prog, err := workload.BuildProgram(wl)
	if err != nil {
		t.Fatal(err)
	}
	stream := trace.Stream{}
	for _, tc := range []struct {
		field string
		edit  func(j *Job)
	}{
		{"Workload", func(j *Job) { j.Workload = workload.DSSQry17() }},
		{"Workload", func(j *Job) { j.Workload.Seed++ }},
		{"Program", func(j *Job) { j.Program = prog }},
		{"From", func(j *Job) { j.From = LiveSource(wl) }},
		{"Source", func(j *Job) { j.Source = stream.Iter() }},
		{"Config.System.Predictor", func(j *Job) { j.Config.System.Predictor.BTBEntries *= 2 }},
		{"Config.System.MaxWrongPathBlocks", func(j *Job) { j.Config.System.MaxWrongPathBlocks++ }},
		{"Config.WarmupInstrs", func(j *Job) { j.Config.WarmupInstrs++ }},
		{"Config.MeasureOffsetInstrs", func(j *Job) { j.Config.MeasureOffsetInstrs++ }},
		{"Config.MeasureInstrs", func(j *Job) { j.Config.MeasureInstrs++ }},
	} {
		lane := lead
		tc.edit(&lane)
		_, err := RunJobs(context.Background(), []Job{lead, lane})
		if err == nil || !strings.Contains(err.Error(), "differs from lane 0 in "+tc.field+";") {
			t.Errorf("%s: err = %v, want a mismatch naming the field", tc.field, err)
		}
	}
	if _, err := RunJobs(context.Background(), nil); err == nil {
		t.Error("a pass with no lanes was accepted")
	}
}

// TestLanesMayDifferInBackHalf: engine, PerfectL1, L1-I geometry,
// latencies and pollution are per lane.
func TestLanesMayDifferInBackHalf(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation test skipped in -short mode")
	}
	wl := workload.DSSQry2()
	cfg := jobConfig()
	cfg.WarmupInstrs, cfg.MeasureInstrs = 20_000, 20_000
	lead := Job{Config: cfg, Workload: wl, Engine: prefetch.Spec{Name: "none"}}
	lane := lead
	lane.Engine = prefetch.Spec{Name: "nextline"}
	lane.Config.PerfectL1 = true
	lane.Config.System.L1IAssoc = 4
	lane.Config.System.MemAccessNanos *= 2
	lane.Config.System.CtxSwitchEveryInstrs = 0
	if _, err := RunJobs(context.Background(), []Job{lead, lane}); err != nil {
		t.Fatal(err)
	}
}

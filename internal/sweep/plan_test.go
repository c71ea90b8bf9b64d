package sweep

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/sim"
	"repro/internal/workload"
)

// simAxis builds an axis whose values mutate the cell's sim config.
func simAxis(name string, muts ...func(c *sim.Config)) Axis {
	ax := Axis{Name: name}
	for i, m := range muts {
		m := m
		ax.Values = append(ax.Values, Value{Key: fmt.Sprint(i), Apply: func(s *Settings) { m(&s.Sim) }})
	}
	return ax
}

// layout renders a plan as its jobs' cell lists in lane order,
// "0,1,2|3,4": the cells each job simulates, lane 0 first.
func layout(t *testing.T, g *Grid, p *runPlan) string {
	t.Helper()
	lanes := make([][]string, len(p.jobs))
	for i, cs := range p.cells {
		if cs.sharded {
			for _, s := range cs.slots {
				lanes[s] = append(lanes[s], fmt.Sprintf("%ds", i))
			}
			continue
		}
		job := p.jobs[cs.slots[0]]
		for len(lanes[cs.slots[0]]) <= cs.lane {
			lanes[cs.slots[0]] = append(lanes[cs.slots[0]], "")
		}
		lanes[cs.slots[0]][cs.lane] = fmt.Sprint(i)
		// The job (lane 0) or lane carries the cell's own label and
		// settings.
		label, cfg, eng := job.Label, job.Config, job.Engine
		if cs.lane > 0 {
			l := job.Lanes[cs.lane-1]
			label, cfg, eng = l.Label, l.Config, l.Engine
		}
		c := g.Cells[i]
		if label != c.Label || cfg != c.Settings.Sim || eng.String() != c.Settings.Engine.String() {
			t.Errorf("cell %d rides job %d lane %d as %q %+v %s, want %q %+v %s",
				i, cs.slots[0], cs.lane, label, cfg, eng, c.Label, c.Settings.Sim, c.Settings.Engine)
		}
	}
	parts := make([]string, len(lanes))
	for i, l := range lanes {
		parts[i] = strings.Join(l, ",")
	}
	return strings.Join(parts, "|")
}

// TestPlanGroupsLanes pins the grouping key — cells share a job exactly
// when they read the same record stream through the same frontend — and
// the split rule: never fewer jobs than min(cells, parallelism), taking
// the largest groups apart first.
func TestPlanGroupsLanes(t *testing.T) {
	wls := []workload.Profile{tinyProfile("Tiny A", 1), tinyProfile("Tiny B", 2), tinyProfile("Tiny C", 3)}
	engines := EngineAxis("engine", "none", "nextline", "tifs")
	perfect := func(on bool) func(c *sim.Config) { return func(c *sim.Config) { c.PerfectL1 = on } }
	store := SourceAxis("source", []SourceChoice{{Key: "store", New: func(*Settings) sim.Source { return sim.StoreSource("unused") }}})
	for _, tc := range []struct {
		name     string
		axes     []Axis
		shards   int
		parallel int
		want     string
	}{
		{"one group per workload", []Axis{WorkloadAxis("w", wls), engines}, 0, 2,
			"0,1,2|3,4,5|6,7,8"},
		{"split the largest groups first", []Axis{WorkloadAxis("w", wls[:2]), engines}, 0, 3,
			"0,1|2|3,4,5"},
		{"split to the parallelism", []Axis{WorkloadAxis("w", wls[:2]), engines}, 0, 4,
			"0,1|2|3,4|5"},
		{"never more jobs than cells", []Axis{WorkloadAxis("w", wls[:1]), engines}, 0, 16,
			"0|1|2"},
		{"two cells on two workers stay two jobs", []Axis{WorkloadAxis("w", wls[:1]), EngineAxis("engine", "pif", "none")}, 0, 2,
			"0|1"},
		{"back-half settings share a stream", []Axis{WorkloadAxis("w", wls[:1]), engines,
			simAxis("l1", func(c *sim.Config) { c.System.L1ISizeBytes = 32 << 10 }, func(c *sim.Config) { c.System.L1IAssoc = 4 }),
			simAxis("perfect", perfect(false), perfect(true))}, 0, 1,
			"0,1,2,3,4,5,6,7,8,9,10,11"},
		{"warmup splits streams", []Axis{WorkloadAxis("w", wls[:1]),
			simAxis("warm", func(c *sim.Config) { c.WarmupInstrs = 1000 }, func(c *sim.Config) { c.WarmupInstrs = 2000 }), engines}, 0, 1,
			"0,1,2|3,4,5"},
		{"offset and measure split streams", []Axis{WorkloadAxis("w", wls[:1]), engines,
			simAxis("m", func(c *sim.Config) { c.MeasureOffsetInstrs = 100 }, func(c *sim.Config) { c.MeasureInstrs = 5000 })}, 0, 1,
			"0,2,4|1,3,5"},
		{"frontend parameters split streams", []Axis{WorkloadAxis("w", wls[:1]),
			simAxis("fe", func(c *sim.Config) { c.System.MaxWrongPathBlocks = 2 }, func(c *sim.Config) { c.System.Predictor.BTBEntries = 64 }),
			EngineAxis("engine", "none", "nextline")}, 0, 1,
			"0,1|2,3"},
		{"workload seed splits streams", []Axis{WorkloadAxis("w", wls[:1]), {Name: "seed", Values: []Value{
			{Key: "1", Apply: func(s *Settings) { s.Workload.Seed = 1 }},
			{Key: "2", Apply: func(s *Settings) { s.Workload.Seed = 2 }}}},
			EngineAxis("engine", "none", "nextline")}, 0, 1,
			"0,1|2,3"},
		{"replayed cells run alone", []Axis{WorkloadAxis("w", wls[:1]), engines, store}, 0, 1,
			"0|1|2"},
		{"sharded cells run as shards", []Axis{WorkloadAxis("w", wls[:1]), EngineAxis("engine", "none", "nextline"), store}, 2, 1,
			"0s|0s|1s|1s"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g, err := Spec{Name: "p", Base: tinySim(), BaseShards: tc.shards, Axes: tc.axes}.Expand()
			if err != nil {
				t.Fatal(err)
			}
			p, err := g.plan(tc.parallel)
			if err != nil {
				t.Fatal(err)
			}
			if got := layout(t, g, p); got != tc.want {
				t.Errorf("layout %s, want %s", got, tc.want)
			}
		})
	}
}

// TestRunLanesMatchOneJobPerCell: a grid run with its cells grouped into
// lanes reports every cell exactly as the one-job-per-cell batch of
// Grid.Jobs does.
func TestRunLanesMatchOneJobPerCell(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation test skipped in -short mode")
	}
	spec := testSpec()
	g, err := Run(PoolEngine{Workers: 1}, spec)
	if err != nil {
		t.Fatal(err)
	}
	jobs, err := g.Jobs()
	if err != nil {
		t.Fatal(err)
	}
	solo, err := PoolEngine{Workers: 2}.RunJobs(jobs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range g.Cells {
		if g.Results[i].Sim != solo[i].Sim || g.Results[i].Label != solo[i].Label {
			t.Errorf("cell %d: lane result %+v, solo %+v", i, g.Results[i], solo[i])
		}
	}
}

// Execution planning: a grid's cells become a flat batch of runner jobs
// and the job results fold back into one Result per cell. Two layouts
// differ from one job per cell:
//
//   - Lanes. Unsharded live cells with equal stream keys read the same
//     record stream through the same frontend, so they run as lanes of
//     one job (sim.RunJobs): the workload executes once per group, not
//     once per cell. Groups are split, largest first, until the batch
//     has at least min(cells, engine parallelism) jobs.
//   - Shards. Cells whose Settings request Shards > 1 are planned into
//     per-window shard jobs (sim.SplitReplay over the cell's sliceable
//     source) and their results stitched back (sim.MergeShardResults).
//
// Keys, labels and per-cell results are those of one job per cell; only
// execution changes. The flat batch still executes through whatever
// Engine the caller supplies, local or remote. See DESIGN.md §13, §16.

package sweep

import (
	"fmt"

	"repro/internal/frontend"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/workload"
)

// runPlan is a grid's execution layout: the flat job batch plus, per
// cell, where its result comes from.
type runPlan struct {
	jobs  []runner.Job
	cells []cellSlots
}

// cellSlots maps one cell to its job indices: a single slot for an
// unsharded cell (lane is its lane within that job, 0 being the job's
// own simulation), one per shard otherwise.
type cellSlots struct {
	slots   []int
	lane    int
	sharded bool
}

// streamKey is everything a cell's front half reads: cells with equal
// keys can share one pass as lanes of one job (see sim.RunJobs).
type streamKey struct {
	workload                workload.Profile
	frontend                frontend.Config
	warmup, offset, measure uint64
}

// streamKeyOf returns the cell's stream key; ok is false for cells that
// never share a pass — sharded cells and cells replaying a source.
func streamKeyOf(c *Cell) (k streamKey, ok bool) {
	st := &c.Settings
	if st.Shards > 1 || st.Source != nil {
		return streamKey{}, false
	}
	return streamKey{
		workload: st.Workload,
		frontend: st.Sim.System.Frontend(st.Workload.Seed),
		warmup:   st.Sim.WarmupInstrs,
		offset:   st.Sim.MeasureOffsetInstrs,
		measure:  st.Sim.MeasureInstrs,
	}, true
}

// planUnit is one group of cells before it becomes jobs: lanes of one
// job, or a single sharded cell with its shard plans.
type planUnit struct {
	cells  []int
	shards []sim.ShardPlan
}

// jobs returns how many jobs the unit becomes.
func (u planUnit) jobs() int {
	if u.shards != nil {
		return len(u.shards)
	}
	return 1
}

// group collects the grid's cells into units in cell order — cells join
// the unit of the first cell with their stream key — then splits the
// units with the most lanes in halves until there are at least
// min(cells, parallel) jobs, so grouping never leaves workers idle that
// one job per cell would have used.
func (g *Grid) group(parallel int) ([]planUnit, error) {
	var units []planUnit
	byKey := map[streamKey]int{}
	n := 0
	for i := range g.Cells {
		c := &g.Cells[i]
		if k, ok := streamKeyOf(c); ok {
			if u, seen := byKey[k]; seen {
				units[u].cells = append(units[u].cells, i)
				continue
			}
			byKey[k] = len(units)
		}
		u := planUnit{cells: []int{i}}
		if c.Settings.Shards > 1 {
			plans, err := sim.SplitReplay(c.Settings.Sim, c.Settings.Shards, !c.Settings.ShardApprox)
			if err != nil {
				return nil, fmt.Errorf("sweep %s: cell %s: %w", g.Spec.Name, c.Key, err)
			}
			u.shards = plans
		}
		units = append(units, u)
		n += u.jobs()
	}
	for target := min(len(g.Cells), parallel); n < target; n++ {
		best := -1
		for i, u := range units {
			if len(u.cells) > 1 && (best < 0 || len(u.cells) > len(units[best].cells)) {
				best = i
			}
		}
		if best < 0 {
			break
		}
		cells := units[best].cells
		h := (len(cells) + 1) / 2
		units[best].cells = cells[:h:h]
		units = append(units[:best+1], append([]planUnit{{cells: cells[h:]}}, units[best+1:]...)...)
	}
	return units, nil
}

// plan lays out the grid's jobs for an engine of the given parallelism.
// A lane group runs as its first cell's job with the other cells as
// lanes. Shard jobs inherit everything from the cell job except the
// warmup/offset/measure split and the source, which are per-plan slices
// of the cell's source; their labels carry a "[shard k/K]" suffix for
// progress output.
func (g *Grid) plan(parallel int) (*runPlan, error) {
	p := &runPlan{cells: make([]cellSlots, len(g.Cells))}
	cellJobs := make([]runner.Job, len(g.Cells))
	for i := range g.Cells {
		j, err := g.cellJob(&g.Cells[i])
		if err != nil {
			return nil, err
		}
		cellJobs[i] = j
	}
	units, err := g.group(parallel)
	if err != nil {
		return nil, err
	}
	for _, u := range units {
		c := &g.Cells[u.cells[0]]
		base := cellJobs[c.Index]
		if u.shards == nil {
			for k, ci := range u.cells[1:] {
				lj := cellJobs[ci]
				base.Lanes = append(base.Lanes, runner.Lane{
					Label:      lj.Label,
					Config:     lj.Config,
					Engine:     lj.Engine,
					Instrument: lj.Instrument,
				})
				p.cells[ci] = cellSlots{slots: []int{len(p.jobs)}, lane: k + 1}
			}
			p.cells[c.Index] = cellSlots{slots: []int{len(p.jobs)}}
			p.jobs = append(p.jobs, base)
			continue
		}
		slicer, ok := c.Settings.Source.(sim.Slicer)
		if !ok {
			return nil, fmt.Errorf("sweep %s: cell %s requests %d shards but its source (%T) is not sliceable; sharded cells need a store or slice source",
				g.Spec.Name, c.Key, c.Settings.Shards, c.Settings.Source)
		}
		slots := make([]int, len(u.shards))
		for k, sp := range u.shards {
			src, err := slicer.Slice(sp.Window)
			if err != nil {
				return nil, fmt.Errorf("sweep %s: cell %s shard %d: %w", g.Spec.Name, c.Key, k, err)
			}
			j := base
			j.Label = fmt.Sprintf("%s [shard %d/%d]", base.Label, k+1, len(u.shards))
			j.Config = sp.Config(c.Settings.Sim)
			j.Source = src
			slots[k] = len(p.jobs)
			p.jobs = append(p.jobs, j)
		}
		p.cells[c.Index] = cellSlots{slots: slots, sharded: true}
	}
	return p, nil
}

// fold collapses the flat job results back to one Result per cell: a
// lane's result is picked out of its job's, and shard results merge in
// shard order. A cell whose jobs were not all executed (the engine
// bailed early) or whose merge fails carries the failure in its Err; a
// lane carries its job's Err and Elapsed. Per-cell results are always
// indexed and labeled as the cell, so downstream consumers (ReportJobs,
// Summary, projections) see every layout identically.
func (p *runPlan) fold(g *Grid, results []runner.Result) []runner.Result {
	out := make([]runner.Result, len(g.Cells))
	for i := range g.Cells {
		c := &g.Cells[i]
		cp := p.cells[i]
		out[i] = runner.Result{Index: c.Index, Label: c.Label}
		missing := false
		for _, s := range cp.slots {
			if s >= len(results) {
				missing = true
			}
		}
		if missing {
			out[i].Err = fmt.Errorf("sweep %s: cell %s: run ended before all of its jobs completed", g.Spec.Name, c.Key)
			continue
		}
		if !cp.sharded {
			r := results[cp.slots[0]]
			out[i].Err, out[i].Elapsed = r.Err, r.Elapsed
			switch {
			case r.Err != nil:
			case cp.lane == 0:
				out[i].Sim = r.Sim
			case cp.lane <= len(r.Lanes):
				out[i].Sim = r.Lanes[cp.lane-1].Sim
			default:
				out[i].Err = fmt.Errorf("sweep %s: cell %s: its job returned %d lane results, want lane %d", g.Spec.Name, c.Key, len(r.Lanes), cp.lane)
			}
			continue
		}
		sims := make([]sim.Result, len(cp.slots))
		for k, s := range cp.slots {
			r := results[s]
			if r.Err != nil {
				out[i].Err = fmt.Errorf("sweep %s: cell %s shard %d/%d: %w", g.Spec.Name, c.Key, k+1, len(cp.slots), r.Err)
				break
			}
			sims[k] = r.Sim
			// The cell's elapsed time is its critical path: the slowest
			// shard, since shards run concurrently.
			if r.Elapsed > out[i].Elapsed {
				out[i].Elapsed = r.Elapsed
			}
		}
		if out[i].Err != nil {
			continue
		}
		merged, err := sim.MergeShardResults(sims)
		if err != nil {
			out[i].Err = fmt.Errorf("sweep %s: cell %s: %w", g.Spec.Name, c.Key, err)
			continue
		}
		out[i].Sim = merged
	}
	return out
}

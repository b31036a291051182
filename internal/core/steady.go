package core

import (
	"fmt"

	"meshalloc/internal/sim"
	"meshalloc/internal/stats"
	"meshalloc/internal/trace"
)

// ExtSteady is the open-system experiment the paper's fixed 6087-job
// replay cannot ask: which allocator sustains which offered load in
// steady state? Jobs arrive by an unbounded Poisson process whose rate
// is swept so the nominal offered load (arrival rate x mean job work /
// machine capacity) covers moderate to near-saturation traffic, and the
// engine streams records through an observer — no retained slice — so
// the per-(allocator, load) mean and P² median come from the streaming
// aggregation layer. The first fifth of the jobs are warmup and are
// excluded from the response statistics; utilization and queue length
// integrate over the whole run.
//
// With Options.Replications > 1 the sweep runner fans each (allocator,
// load) point out over independent replication streams (derived seeds
// drive both the Poisson source and the simulator) and the streaming
// aggregates merge across replications in index order: Welford.Merge
// pools the means exactly, MergeQuantile interpolates the per-shard P²
// medians, and utilization and queue length average arithmetically.
// One replication reproduces the unsharded table bit for bit.
func ExtSteady(o Options) (*Figure, error) {
	o = o.withDefaults()
	const (
		machineW, machineH = 16, 16
		// Mean job work under the SDSC fits: 14.5 nodes x 10944 s.
		meanWork = 14.5 * 10944
	)
	specs := []string{"hilbert/bestfit", "scurve", "mc1x1", "random"}
	rhos := []float64{0.5, 0.7, 0.85}

	type key struct {
		spec string
		rho  float64
	}
	type shard struct {
		mean     stats.Welford
		median   *stats.P2Quantile
		util     float64
		queueLen float64
	}
	type outcome struct {
		mean     float64
		median   float64
		util     float64
		queueLen float64
	}
	var keys []key
	for _, spec := range specs {
		for _, rho := range rhos {
			keys = append(keys, key{spec, rho})
		}
	}
	sweep, err := runSweep(keys, o, func(k key, rep int, seed int64) (shard, error) {
		cfg := sim.Config{
			Dims:        []int{machineW, machineH},
			Alloc:       k.spec,
			Pattern:     "nbody",
			TimeScale:   o.TimeScale,
			Seed:        seed,
			Scheduler:   o.Scheduler,
			KeepRecords: sim.Discard,
			KeepNodes:   sim.Discard,
		}
		e, err := sim.NewEngine(cfg)
		if err != nil {
			return shard{}, err
		}
		// Offered load rho: one job every meanWork/(rho*capacity) sec.
		meanInter := meanWork / (k.rho * float64(machineW*machineH))
		src := trace.Limit(trace.NewPoisson(meanInter, machineW*machineH, seed), o.Jobs)
		warmup := o.Jobs / 5
		sh := shard{median: stats.NewP2Quantile(0.5)}
		var seen int
		e.Observe(func(r sim.JobRecord) {
			seen++
			if seen <= warmup {
				return
			}
			sh.mean.Add(r.Response)
			sh.median.Add(r.Response)
		})
		if err := e.RunSource(src, 0); err != nil {
			return shard{}, err
		}
		res := e.Result()
		sh.util = res.UtilizationPct
		sh.queueLen = res.MeanQueueLen
		return sh, nil
	})
	if err != nil {
		return nil, err
	}

	// Reduce each point's replication shards in index order: the merge
	// is deterministic, so the table is bit-stable at any Parallelism.
	results := make(map[key]outcome, len(keys))
	for _, k := range keys {
		var (
			mean    stats.Welford
			medians []*stats.P2Quantile
			out     outcome
		)
		for _, sh := range sweep[k] {
			mean.Merge(sh.mean)
			medians = append(medians, sh.median)
			out.util += sh.util
			out.queueLen += sh.queueLen
		}
		out.mean = mean.Mean()
		out.median = stats.MergeQuantile(0.5, medians)
		out.util /= float64(len(sweep[k]))
		out.queueLen /= float64(len(sweep[k]))
		results[k] = out
	}

	t := Table{Columns: []string{
		"Algorithm", "offered load", "steady mean resp (s)", "P² median (s)", "utilization %", "mean queue",
	}}
	for _, spec := range specs {
		for _, rho := range rhos {
			r := results[key{spec, rho}]
			t.Rows = append(t.Rows, []string{
				spec,
				fmt.Sprintf("%.2f", rho),
				fmt.Sprintf("%.0f", r.mean),
				fmt.Sprintf("%.0f", r.median),
				fmt.Sprintf("%.1f", r.util),
				fmt.Sprintf("%.1f", r.queueLen),
			})
		}
	}
	fig := &Figure{
		ID:     "ext-steady",
		Title:  "Steady-state allocator comparison under Poisson arrivals (n-body, 16x16, swept offered load)",
		Tables: []Table{t},
		Notes: []string{
			fmt.Sprintf("open system: unbounded Poisson source, %d jobs per point, first %d warmup jobs excluded", o.Jobs, o.Jobs/5),
			"streaming aggregation (Welford mean, P² median): no per-job records retained",
			"contention inflates service beyond the nominal runtime, so a high offered load can be unsustainable — the mean response then grows with the job count and ranks allocators by sustainable throughput",
		},
	}
	if o.Replications > 1 {
		fig.Notes = append(fig.Notes, fmt.Sprintf(
			"%d replications per point on derived RNG streams; means pooled by Welford merge, medians by weighted P² marker interpolation",
			o.Replications))
	}
	// Headline note: the contention gap between the best and worst
	// allocator at the highest swept load.
	worstRho := rhos[len(rhos)-1]
	best, worst := "", ""
	bestY, worstY := 0.0, 0.0
	for _, spec := range specs {
		y := results[key{spec, worstRho}].mean
		if best == "" || y < bestY {
			best, bestY = spec, y
		}
		if worst == "" || y > worstY {
			worst, worstY = spec, y
		}
	}
	if bestY > 0 {
		fig.Notes = append(fig.Notes, fmt.Sprintf(
			"at offered load %.2f: %s sustains %.0f s mean response vs %s at %.0f s (%.1fx)",
			worstRho, best, bestY, worst, worstY, worstY/bestY))
	}
	return fig, nil
}

// Benchmarks regenerating every table and figure of the paper at a
// reduced scale, plus the ablation benches for the design choices called
// out in DESIGN.md and micro-benchmarks of the substrates.
//
// The figure benches report the experiment's headline quantity (mean
// response time, Pearson r, percent contiguous) through b.ReportMetric so
// `go test -bench` doubles as a tabular summary of the reproduction.
package meshalloc

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"
	"sync"
	"testing"

	"meshalloc/internal/alloc"
	"meshalloc/internal/binpack"
	"meshalloc/internal/core"
	"meshalloc/internal/curve"
	"meshalloc/internal/fault"
	"meshalloc/internal/mesh"
	"meshalloc/internal/netsim"
	"meshalloc/internal/sim"
	"meshalloc/internal/topo"
	"meshalloc/internal/trace"
)

// reportMetric forwards a headline metric to the bench framework and,
// when the BENCH_JSON environment variable names a file, to the JSON
// collector flushed by TestMain — the machine-readable counterpart of
// the `go test -bench` table (see BENCH.md).
func reportMetric(b *testing.B, unit string, v float64) {
	b.Helper()
	b.ReportMetric(v, unit)
	recordMetric(b.Name(), unit, v)
}

// benchEntry is one (benchmark, metric) observation in BENCH_JSON.
type benchEntry struct {
	Benchmark string  `json:"benchmark"`
	Metric    string  `json:"metric"`
	Value     float64 `json:"value"`
}

// benchHost describes the machine a BENCH_*.json artifact was produced
// on, so single-core results (where parallel speedups are honestly ~1x)
// are self-describing. See BENCH.md for the schema.
type benchHost struct {
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
}

var benchJSON struct {
	mu      sync.Mutex
	entries []benchEntry
}

func recordMetric(name, unit string, v float64) {
	benchJSON.mu.Lock()
	defer benchJSON.mu.Unlock()
	// Benches report once per b.N iteration; keep the latest value per
	// (benchmark, metric) so reruns overwrite instead of duplicating.
	for i := range benchJSON.entries {
		if benchJSON.entries[i].Benchmark == name && benchJSON.entries[i].Metric == unit {
			benchJSON.entries[i].Value = v
			return
		}
	}
	benchJSON.entries = append(benchJSON.entries, benchEntry{Benchmark: name, Metric: unit, Value: v})
}

// TestMain flushes collected bench metrics to the file named by
// BENCH_JSON (e.g. BENCH_2.json) after the run:
//
//	BENCH_JSON=BENCH_2.json go test -run '^$' -bench 'Fig|Ablation|ExtContiguous|Cube3D' -benchtime 1x .
func TestMain(m *testing.M) {
	code := m.Run()
	if path := os.Getenv("BENCH_JSON"); path != "" {
		benchJSON.mu.Lock()
		entries := benchJSON.entries
		benchJSON.mu.Unlock()
		if len(entries) > 0 {
			sort.Slice(entries, func(i, j int) bool {
				if entries[i].Benchmark != entries[j].Benchmark {
					return entries[i].Benchmark < entries[j].Benchmark
				}
				return entries[i].Metric < entries[j].Metric
			})
			doc := struct {
				Host    benchHost    `json:"host"`
				Entries []benchEntry `json:"entries"`
			}{
				Host: benchHost{
					GoVersion:  runtime.Version(),
					GOOS:       runtime.GOOS,
					GOARCH:     runtime.GOARCH,
					GOMAXPROCS: runtime.GOMAXPROCS(0),
					NumCPU:     runtime.NumCPU(),
				},
				Entries: entries,
			}
			out, err := json.MarshalIndent(doc, "", "  ")
			if err == nil {
				err = os.WriteFile(path, append(out, '\n'), 0o644)
			}
			if err != nil {
				fmt.Fprintln(os.Stderr, "bench json:", err)
				code = 1
			}
		}
	}
	os.Exit(code)
}

// benchOpt is the reduced experiment scale used by the figure benches.
func benchOpt() core.Options {
	return core.Options{Jobs: 300, TimeScale: 0.01, Seed: 1, Loads: []float64{1.0, 0.2}}
}

// benchTrace returns a small shared workload for single-run benches.
func benchTrace(jobs, maxSize int) *trace.Trace {
	return trace.NewSDSC(trace.SDSCConfig{Jobs: jobs, MaxSize: maxSize, Seed: 1}).FilterMaxSize(maxSize)
}

func BenchmarkFig1TestSuiteCorrelation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig, err := core.Fig1(core.Options{Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		reportPearson(b, fig)
	}
}

func BenchmarkFig6Truncation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig := core.Fig6()
		if len(fig.Tables) != 2 {
			b.Fatal("fig6 incomplete")
		}
	}
}

// benchResponseFigure runs one pattern/mesh slice of Figures 7/8 and
// reports the best and worst allocator's mean response at 5x load.
func benchResponseFigure(b *testing.B, w, h int, pattern string) {
	tr := benchTrace(300, w*h)
	for i := 0; i < b.N; i++ {
		best, worst := "", ""
		bestY, worstY := 0.0, 0.0
		for _, spec := range alloc.Specs() {
			res, err := sim.Run(sim.Config{
				MeshW: w, MeshH: h,
				Alloc: spec, Pattern: pattern,
				Load: 0.2, TimeScale: 0.01, Seed: 1,
			}, tr)
			if err != nil {
				b.Fatal(err)
			}
			if best == "" || res.MeanResponse < bestY {
				best, bestY = spec, res.MeanResponse
			}
			if worst == "" || res.MeanResponse > worstY {
				worst, worstY = spec, res.MeanResponse
			}
		}
		reportMetric(b, "best_resp_s", bestY)
		reportMetric(b, "worst_resp_s", worstY)
		if i == 0 {
			b.Logf("%s %dx%d: best %s (%.0f s), worst %s (%.0f s)", pattern, w, h, best, bestY, worst, worstY)
		}
	}
}

func BenchmarkFig7aAllToAll16x22(b *testing.B) { benchResponseFigure(b, 16, 22, "alltoall") }
func BenchmarkFig7bNBody16x22(b *testing.B)    { benchResponseFigure(b, 16, 22, "nbody") }
func BenchmarkFig7cRandom16x22(b *testing.B)   { benchResponseFigure(b, 16, 22, "random") }
func BenchmarkFig8aAllToAll16x16(b *testing.B) { benchResponseFigure(b, 16, 16, "alltoall") }
func BenchmarkFig8bNBody16x16(b *testing.B)    { benchResponseFigure(b, 16, 16, "nbody") }
func BenchmarkFig8cRandom16x16(b *testing.B)   { benchResponseFigure(b, 16, 16, "random") }

func BenchmarkFig9PairwiseDistance(b *testing.B) {
	opt := core.Options{Jobs: 1200, TimeScale: 0.01, Seed: 1}
	for i := 0; i < b.N; i++ {
		fig, err := core.Fig9(opt)
		if err != nil {
			b.Fatal(err)
		}
		reportPearson(b, fig)
	}
}

func BenchmarkFig10MessageDistance(b *testing.B) {
	opt := core.Options{Jobs: 1200, TimeScale: 0.01, Seed: 1}
	for i := 0; i < b.N; i++ {
		fig, err := core.Fig10(opt)
		if err != nil {
			b.Fatal(err)
		}
		reportPearson(b, fig)
	}
}

func BenchmarkFig11Contiguity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig, err := core.Fig11(benchOpt())
		if err != nil {
			b.Fatal(err)
		}
		// Top row's contiguity percentage.
		var pct float64
		fmt.Sscanf(fig.Tables[0].Rows[0][1], "%g%%", &pct)
		reportMetric(b, "top_pct_contig", pct)
	}
}

func reportPearson(b *testing.B, fig *core.Figure) {
	b.Helper()
	for _, n := range fig.Notes {
		var r float64
		if i := indexOf(n, "Pearson r = "); i >= 0 {
			if _, err := fmt.Sscanf(n[i:], "Pearson r = %g", &r); err == nil {
				reportMetric(b, "pearson_r", r)
				return
			}
		}
	}
}

func indexOf(s, sub string) int {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return i
		}
	}
	return -1
}

// --- Ablation benches (design choices called out in DESIGN.md) ---

func ablationRun(b *testing.B, mutate func(*sim.Config)) float64 {
	b.Helper()
	tr := benchTrace(250, 256)
	cfg := sim.Config{
		MeshW: 16, MeshH: 16,
		Alloc: "hilbert/bestfit", Pattern: "nbody",
		Load: 0.4, TimeScale: 0.01, Seed: 1,
	}
	mutate(&cfg)
	res, err := sim.Run(cfg, tr)
	if err != nil {
		b.Fatal(err)
	}
	return res.MeanResponse
}

func BenchmarkAblationIssueMode(b *testing.B) {
	for _, mode := range []sim.IssueMode{sim.IssuePhased, sim.IssueSequential} {
		b.Run(mode.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				y := ablationRun(b, func(c *sim.Config) { c.Issue = mode })
				reportMetric(b, "mean_resp_s", y)
			}
		})
	}
}

func BenchmarkAblationStrategy(b *testing.B) {
	for _, strat := range []string{"hilbert", "hilbert/firstfit", "hilbert/bestfit", "hilbert/sumofsquares"} {
		b.Run(strat, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				y := ablationRun(b, func(c *sim.Config) { c.Alloc = strat })
				reportMetric(b, "mean_resp_s", y)
			}
		})
	}
}

func BenchmarkAblationTruncation(b *testing.B) {
	// S-curve runs along the short versus long dimension on the
	// non-square 16x22 mesh.
	tr := benchTrace(250, 352)
	for _, spec := range []string{"scurve/bestfit", "scurve-long/bestfit"} {
		b.Run(spec, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := sim.Run(sim.Config{
					MeshW: 16, MeshH: 22,
					Alloc: spec, Pattern: "nbody",
					Load: 0.4, TimeScale: 0.01, Seed: 1,
				}, tr)
				if err != nil {
					b.Fatal(err)
				}
				reportMetric(b, "mean_resp_s", res.MeanResponse)
			}
		})
	}
}

func BenchmarkAblationFlits(b *testing.B) {
	for _, flits := range []int{16, 64, 256} {
		b.Run(fmt.Sprintf("flits%d", flits), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				y := ablationRun(b, func(c *sim.Config) {
					c.Net = netsim.DefaultConfig()
					c.Net.MessageFlits = flits
				})
				reportMetric(b, "mean_resp_s", y)
			}
		})
	}
}

func BenchmarkAblationMCShape(b *testing.B) {
	for _, spec := range []string{"mc", "mc1x1"} {
		b.Run(spec, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				y := ablationRun(b, func(c *sim.Config) { c.Alloc = spec })
				reportMetric(b, "mean_resp_s", y)
			}
		})
	}
}

func BenchmarkAblationRouting(b *testing.B) {
	for _, r := range []netsim.Routing{netsim.RouteXY, netsim.RouteYX, netsim.RouteAdaptive} {
		b.Run(r.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				y := ablationRun(b, func(c *sim.Config) {
					c.Net = netsim.DefaultConfig()
					c.Net.Routing = r
				})
				reportMetric(b, "mean_resp_s", y)
			}
		})
	}
}

func BenchmarkExtContiguousBaselines(b *testing.B) {
	tr := benchTrace(200, 256)
	for _, spec := range []string{"buddy", "submesh", "hilbert/bestfit"} {
		b.Run(spec, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := sim.Run(sim.Config{
					MeshW: 16, MeshH: 16,
					Alloc: spec, Pattern: "alltoall",
					Load: 0.4, TimeScale: 0.01, Seed: 1,
				}, tr)
				if err != nil {
					b.Fatal(err)
				}
				reportMetric(b, "utilization_pct", res.UtilizationPct)
				reportMetric(b, "mean_resp_s", res.MeanResponse)
			}
		})
	}
}

func BenchmarkAblationScheduler(b *testing.B) {
	for _, sch := range []string{"fcfs", "easy"} {
		b.Run(sch, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				y := ablationRun(b, func(c *sim.Config) { c.Scheduler = sch })
				reportMetric(b, "mean_resp_s", y)
			}
		})
	}
}

// BenchmarkAblationCube3D probes the tentpole question of the 3-D
// extension: how much contention signal does the paper's 2-D projection
// of CPlant lose versus native 3-D allocation? Same machine, same
// trace; only the allocator's view of the topology changes.
func BenchmarkAblationCube3D(b *testing.B) {
	tr := benchTrace(250, 512)
	for _, spec := range []string{"hilbert/bestfit", "proj2d-hilbert/bestfit", "hilbert", "proj2d-hilbert", "mc1x1"} {
		b.Run(spec, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := sim.Run(sim.Config{
					Dims:  []int{8, 8, 8},
					Alloc: spec, Pattern: "nbody",
					Load: 0.2, TimeScale: 0.01, Seed: 1,
				}, tr)
				if err != nil {
					b.Fatal(err)
				}
				reportMetric(b, "mean_resp_s", res.MeanResponse)
				reportMetric(b, "avg_hops", res.Net.AvgHops())
			}
		})
	}
}

// --- Engine / open-system benches (see BENCH.md: BENCH_4.json) ---

// BenchmarkEngineVsBatch compares the batch Run wrapper against the
// streaming engine on the same closed workload: "batch" retains every
// record and node slice, "engine-discard" streams records through an
// observer and keeps O(1) per-job state. The outputs agree exactly
// (see sim's equivalence tests); the difference is wall time and
// allocated bytes, reported per job for BENCH_4.json.
func BenchmarkEngineVsBatch(b *testing.B) {
	const jobs = 5000
	tr := benchTrace(jobs, 256)
	cfg := sim.Config{
		MeshW: 16, MeshH: 16,
		Alloc: "hilbert/bestfit", Pattern: "nbody",
		Load: 0.4, TimeScale: 0.01, Seed: 1,
	}
	b.Run("batch", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			res, err := sim.Run(cfg, tr)
			if err != nil {
				b.Fatal(err)
			}
			if len(res.Records) != jobs {
				b.Fatal("short run")
			}
		}
		reportMetric(b, "ns_per_job", float64(b.Elapsed().Nanoseconds())/float64(b.N*jobs))
	})
	b.Run("engine-discard", func(b *testing.B) {
		scfg := cfg
		scfg.KeepRecords, scfg.KeepNodes = sim.Discard, sim.Discard
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			e, err := sim.NewEngine(scfg)
			if err != nil {
				b.Fatal(err)
			}
			count := 0
			e.Observe(func(sim.JobRecord) { count++ })
			if err := e.RunSource(tr.Source(), 0); err != nil {
				b.Fatal(err)
			}
			if count != jobs {
				b.Fatal("short run")
			}
		}
		reportMetric(b, "ns_per_job", float64(b.Elapsed().Nanoseconds())/float64(b.N*jobs))
	})
}

// BenchmarkOpenSystemMillionJobs is the scale acceptance bench: one
// million open-system jobs through a Discard engine. Tiny message
// quotas keep the bench about event-loop and allocation machinery, not
// network arithmetic; bytes_per_job and live_heap_mb document the
// constant-memory claim in BENCH_4.json. Since PR 9 the run also
// reports events_per_sec (engine event-core counter over wall time) and
// peak_live_heap_mb (HeapAlloc sampled every 50k finishes) — the
// BENCH_9.json headline numbers guarded by cmd/benchcheck in CI.
func BenchmarkOpenSystemMillionJobs(b *testing.B) {
	const jobs = 1_000_000
	var m0, m1 runtime.MemStats
	var events int64
	peakHeap := uint64(0)
	runtime.GC()
	runtime.ReadMemStats(&m0)
	for i := 0; i < b.N; i++ {
		cfg := sim.Config{
			MeshW: 16, MeshH: 16,
			Alloc: "hilbert/bestfit", Pattern: "nbody",
			Seed:          1,
			MsgsPerSecond: 1e-4,
			KeepRecords:   sim.Discard,
			KeepNodes:     sim.Discard,
		}
		e, err := sim.NewEngine(cfg)
		if err != nil {
			b.Fatal(err)
		}
		count := 0
		var ms runtime.MemStats
		e.Observe(func(sim.JobRecord) {
			count++
			// A stop-the-world ReadMemStats every 50k jobs is ~20 samples
			// across the run: enough to catch live-heap growth, too rare
			// to perturb the timing measurably.
			if count%50_000 == 0 {
				runtime.ReadMemStats(&ms)
				if ms.HeapAlloc > peakHeap {
					peakHeap = ms.HeapAlloc
				}
			}
		})
		if err := e.RunSource(trace.Limit(trace.NewPoisson(1000, 256, 1), jobs), 0); err != nil {
			b.Fatal(err)
		}
		if count != jobs {
			b.Fatalf("finished %d jobs", count)
		}
		res := e.Result()
		if res.Jobs != jobs || res.MeanResponse <= 0 {
			b.Fatalf("degenerate result: %+v", res)
		}
		events += e.CoreStats().Events
	}
	runtime.GC()
	runtime.ReadMemStats(&m1)
	reportMetric(b, "ns_per_job", float64(b.Elapsed().Nanoseconds())/float64(b.N*jobs))
	reportMetric(b, "bytes_per_job", float64(m1.TotalAlloc-m0.TotalAlloc)/float64(uint64(b.N)*jobs))
	reportMetric(b, "live_heap_mb", float64(m1.HeapAlloc)/(1<<20))
	reportMetric(b, "peak_live_heap_mb", float64(peakHeap)/(1<<20))
	reportMetric(b, "events_per_sec", float64(events)/b.Elapsed().Seconds())
}

// --- Event-core overhaul benches (see BENCH.md: BENCH_9.json) ---

// BenchmarkEventCore times the event core on a 100k-job open-system
// workload whose messages are sparse enough that events, not network
// sends, dominate. The single sub-benchmark keeps the name BENCH_9.json
// watches. ns_per_event divides wall time by the engine's own event
// counter.
func BenchmarkEventCore(b *testing.B) {
	const jobs = 100_000
	b.Run("heap", func(b *testing.B) {
		var events int64
		for i := 0; i < b.N; i++ {
			cfg := sim.Config{
				MeshW: 16, MeshH: 16,
				Alloc: "hilbert/bestfit", Pattern: "nbody",
				Seed:          1,
				MsgsPerSecond: 1e-4,
				KeepRecords:   sim.Discard,
				KeepNodes:     sim.Discard,
			}
			e, err := sim.NewEngine(cfg)
			if err != nil {
				b.Fatal(err)
			}
			if err := e.RunSource(trace.Limit(trace.NewPoisson(1000, 256, 1), jobs), 0); err != nil {
				b.Fatal(err)
			}
			cs := e.CoreStats()
			if cs.Events == 0 {
				b.Fatalf("degenerate run: %+v", cs)
			}
			events += cs.Events
		}
		reportMetric(b, "ns_per_event", float64(b.Elapsed().Nanoseconds())/float64(events))
		reportMetric(b, "events_per_sec", float64(events)/b.Elapsed().Seconds())
	})
}

// BenchmarkSchedulerRound isolates the incremental scheduler state: the
// EASY backfill policy — the one whose shadow-time scan used to copy and
// sort the running set every round — over a saturated closed workload,
// with the persistent end-time-ordered index against the retained
// rebuild-per-round reference. ns_per_round divides wall time by rounds
// actually run (head-blocked skips are the watermark's job and count for
// neither side; EASY never skips).
func BenchmarkSchedulerRound(b *testing.B) {
	tr := benchTrace(5000, 256)
	for _, variant := range []string{"incremental", "rebuild"} {
		b.Run(variant, func(b *testing.B) {
			var rounds int64
			for i := 0; i < b.N; i++ {
				cfg := sim.Config{
					MeshW: 16, MeshH: 16,
					Alloc: "hilbert/bestfit", Pattern: "nbody",
					Load: 0.4, TimeScale: 0.01, Seed: 1,
					Scheduler:    "easy",
					RebuildSched: variant == "rebuild",
					KeepRecords:  sim.Discard,
					KeepNodes:    sim.Discard,
				}
				e, err := sim.NewEngine(cfg)
				if err != nil {
					b.Fatal(err)
				}
				count := 0
				e.Observe(func(sim.JobRecord) { count++ })
				if err := e.RunSource(tr.Source(), 0); err != nil {
					b.Fatal(err)
				}
				if count != len(tr.Jobs) {
					b.Fatal("short run")
				}
				rounds += e.CoreStats().SchedRounds
			}
			reportMetric(b, "ns_per_round", float64(b.Elapsed().Nanoseconds())/float64(rounds))
		})
	}
}

// --- Parallel experiment fabric (see BENCH.md: BENCH_5.json) ---

// benchSweepScaling runs one replicated experiment at several worker
// counts and reports wall_s per count plus the speedup of the widest
// pool over the sequential run. Because the fabric is bit-deterministic
// the runs produce identical figures — only wall_s moves, and only with
// real cores: on a single-core host every worker count reports ~the
// same wall time (the honest result; see BENCH.md).
func benchSweepScaling(b *testing.B, name string, build func(core.Options) (*core.Figure, error)) {
	var wall [4]float64
	counts := []int{1, 2, 4, 8}
	for ci, workers := range counts {
		b.Run(fmt.Sprintf("%s/workers%d", name, workers), func(b *testing.B) {
			opt := core.Options{Jobs: 120, TimeScale: 0.01, Seed: 1,
				Loads: []float64{1.0, 0.4}, Replications: 4, Parallelism: workers}
			for i := 0; i < b.N; i++ {
				fig, err := build(opt)
				if err != nil {
					b.Fatal(err)
				}
				if len(fig.Series) == 0 && len(fig.Tables) == 0 {
					b.Fatal("empty figure")
				}
			}
			wall[ci] = b.Elapsed().Seconds() / float64(b.N)
			reportMetric(b, "wall_s", wall[ci])
			if ci > 0 && wall[0] > 0 {
				reportMetric(b, "speedup_vs_seq", wall[0]/wall[ci])
			}
		})
	}
}

// BenchmarkParallelSweepFig7b scales the replicated Figure 7(b) grid —
// 9 allocators x 2 loads x 4 replications — across the sweep pool.
func BenchmarkParallelSweepFig7b(b *testing.B) {
	benchSweepScaling(b, "fig7b", func(o core.Options) (*core.Figure, error) {
		return core.Fig7(o)
	})
}

// BenchmarkParallelSweepExtSteady scales the replicated open-system
// steady-state table, whose reduction exercises the streaming merges.
func BenchmarkParallelSweepExtSteady(b *testing.B) {
	benchSweepScaling(b, "ext-steady", func(o core.Options) (*core.Figure, error) {
		return core.ExtSteady(o)
	})
}

// BenchmarkAllocateParallel times the sharded candidate scan against
// the sequential loop on a large machine at realistic occupancy. The
// parallel scan answers are bit-identical (see alloc's parallel tests);
// the question here is only the goroutine overhead versus core count.
func BenchmarkAllocateParallel(b *testing.B) {
	variants := []struct {
		name string
		mk   func(*topo.Grid) alloc.Allocator
	}{
		{"mc", func(g *topo.Grid) alloc.Allocator { return alloc.NewMC(g) }},
		{"genalg", func(g *topo.Grid) alloc.Allocator { return alloc.NewGenAlg(g) }},
	}
	for _, v := range variants {
		for _, workers := range []int{1, 2, 4, 8} {
			b.Run(fmt.Sprintf("32x32/%s/workers%d", v.name, workers), func(b *testing.B) {
				g := topo.New([]int{32, 32})
				a := v.mk(g)
				a.(alloc.ParallelScorer).SetParallelism(workers)
				prefillAllocator(b, a, g.Size())
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					ids, err := a.Allocate(alloc.Request{Size: 64})
					if err != nil {
						b.Fatal(err)
					}
					a.Release(ids)
				}
				reportMetric(b, "ns_per_alloc", float64(b.Elapsed().Nanoseconds())/float64(b.N))
			})
		}
	}
}

// --- Micro-benchmarks of the substrates ---

func BenchmarkAllocate(b *testing.B) {
	m := mesh.New(16, 22)
	for _, spec := range alloc.Specs() {
		b.Run(spec, func(b *testing.B) {
			a, err := alloc.Spec(m.Grid(), spec, 1)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ids, err := a.Allocate(alloc.Request{Size: 16})
				if err != nil {
					b.Fatal(err)
				}
				a.Release(ids)
			}
		})
	}
}

// prefillAllocator drives the allocator to a realistic mixed occupancy:
// a deterministic stream of mixed-size jobs is allocated until the
// machine is ~97% busy — the paper's Figure 7/8 runs push machines past
// saturation, where utilization sits in the 80-95% band — and then
// every fifth job is released, leaving ~80% busy with scattered
// mixed-size holes in the allocator's own placement pattern. Because
// the indexed and reference scorers are bit-identical, both reach the
// exact same state and the benchmark compares pure scoring cost.
func prefillAllocator(b *testing.B, a alloc.Allocator, total int) {
	b.Helper()
	rng := uint64(0x9e3779b97f4a7c15)
	next := func(n int) int {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return int(rng % uint64(n))
	}
	var live [][]int
	for a.NumFree() > total*3/100 {
		size := 1 + next(32)
		if size > a.NumFree() {
			size = a.NumFree()
		}
		ids, err := a.Allocate(alloc.Request{Size: size})
		if err != nil {
			b.Fatal(err)
		}
		live = append(live, ids)
	}
	for i := 0; i < len(live); i += 5 {
		a.Release(live[i])
	}
}

// BenchmarkAllocateLarge times the MC-family and Gen-Alg scorers on
// production-scale machines at realistic mixed occupancy, with the
// retained reference (pre-index) scorers alongside for the
// before/after comparison. The ns_per_alloc metric feeds BENCH_JSON
// (see BENCH.md: BENCH_3.json).
func BenchmarkAllocateLarge(b *testing.B) {
	machines := []struct {
		name string
		dims []int
	}{
		{"32x32", []int{32, 32}},
		{"16x16x16", []int{16, 16, 16}},
	}
	variants := []struct {
		name string
		mk   func(*topo.Grid) alloc.Allocator
	}{
		{"mc", func(g *topo.Grid) alloc.Allocator { return alloc.NewMC(g) }},
		{"mc/naive", func(g *topo.Grid) alloc.Allocator { return alloc.NewMCNaive(g) }},
		{"mc1x1", func(g *topo.Grid) alloc.Allocator { return alloc.NewMC1x1(g) }},
		{"mc1x1/naive", func(g *topo.Grid) alloc.Allocator { return alloc.NewMC1x1Naive(g) }},
		{"genalg", func(g *topo.Grid) alloc.Allocator { return alloc.NewGenAlg(g) }},
		{"genalg/naive", func(g *topo.Grid) alloc.Allocator { return alloc.NewGenAlgNaive(g) }},
	}
	for _, m := range machines {
		for _, v := range variants {
			b.Run(m.name+"/"+v.name, func(b *testing.B) {
				g := topo.New(m.dims)
				a := v.mk(g)
				prefillAllocator(b, a, g.Size())
				// A 64-processor request is a typical SDSC-trace job on a
				// machine this size (the trace mean is 10-30% of the
				// machine); tiny requests under-state scoring cost.
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					ids, err := a.Allocate(alloc.Request{Size: 64})
					if err != nil {
						b.Fatal(err)
					}
					a.Release(ids)
				}
				reportMetric(b, "ns_per_alloc", float64(b.Elapsed().Nanoseconds())/float64(b.N))
			})
		}
	}
}

// prefillPacker drives a bin-packer to the same ~80% mixed occupancy as
// prefillAllocator, leaving scattered mixed-size holes in curve-rank
// space so interval enumeration crosses many free runs.
func prefillPacker(b *testing.B, p *binpack.Packer, total int) {
	b.Helper()
	rng := uint64(0x9e3779b97f4a7c15)
	next := func(n int) int {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return int(rng % uint64(n))
	}
	var live [][]int
	for p.NumFree() > total*3/100 {
		size := 1 + next(32)
		if size > p.NumFree() {
			size = p.NumFree()
		}
		ids, err := p.Allocate(size, binpack.FirstFit)
		if err != nil {
			b.Fatal(err)
		}
		live = append(live, ids)
	}
	for i := 0; i < len(live); i += 5 {
		p.Release(live[i])
	}
}

// BenchmarkBitsetScan times first-fit and best-fit candidate enumeration
// over the word-parallel bitset free map against the retained naive
// rank-by-rank walk, at mixed occupancy on 32x32 and 16x16x16 machines.
// The speedup_word_vs_naive metric in BENCH_7.json is PR 7's >= 3x
// acceptance bar (see BENCH.md).
func BenchmarkBitsetScan(b *testing.B) {
	machines := []struct {
		name string
		dims []int
	}{
		{"32x32", []int{32, 32}},
		{"16x16x16", []int{16, 16, 16}},
	}
	for _, m := range machines {
		order, err := curve.GridOrder(curve.Hilbert{}, m.dims)
		if err != nil {
			b.Fatal(err)
		}
		for _, strat := range []binpack.Strategy{binpack.FirstFit, binpack.BestFit} {
			var wall [2]float64
			for vi, variant := range []string{"word", "naive"} {
				b.Run(fmt.Sprintf("%s/%s/%s", m.name, strat, variant), func(b *testing.B) {
					p := binpack.New(order)
					p.SetWordScan(variant == "word")
					prefillPacker(b, p, len(order))
					// A small request keeps the shared Allocate/Release
					// bookkeeping (id slice, rank marking) from drowning
					// out the interval enumeration under measurement.
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						ids, err := p.Allocate(8, strat)
						if err != nil {
							b.Fatal(err)
						}
						p.Release(ids)
					}
					wall[vi] = float64(b.Elapsed().Nanoseconds()) / float64(b.N)
					reportMetric(b, "ns_per_alloc", wall[vi])
					if vi == 1 && wall[1] > 0 {
						reportMetric(b, "speedup_word_vs_naive", wall[1]/wall[0])
					}
				})
			}
		}
	}
}

// BenchmarkMCAllocate times indexed MC on the closed SDSC replay's
// traffic rather than a same-size steady state: the machine is held at
// about 60% occupancy by fragmented mixed-size jobs, and each iteration
// is one Allocate+Release whose size cycles through a fixed mixed list,
// so consecutive requests almost never share a shape (see BENCH.md).
func BenchmarkMCAllocate(b *testing.B) {
	sizes := []int{1, 9, 4, 32, 2, 16, 7, 24, 64, 3, 12, 48}
	machines := []struct {
		name string
		dims []int
	}{
		{"16x22", []int{16, 22}},
		{"8x8x8", []int{8, 8, 8}},
	}
	for _, m := range machines {
		b.Run(m.name, func(b *testing.B) {
			g := topo.New(m.dims)
			a := alloc.NewMC(g)
			// Fill to 80% busy, then free jobs in allocation order,
			// skipping any whose release would drop below 60% busy: the
			// holes scatter through the packed region (60.2% busy on
			// 16x22, 60.4% on 8x8x8).
			var live [][]int
			for i := 0; a.NumFree() > g.Size()/5; i++ {
				ids, err := a.Allocate(alloc.Request{Size: min(sizes[i%len(sizes)], a.NumFree()-g.Size()/5)})
				if err != nil {
					b.Fatal(err)
				}
				live = append(live, ids)
			}
			for _, ids := range live {
				if a.NumFree()+len(ids) <= g.Size()*2/5 {
					a.Release(ids)
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ids, err := a.Allocate(alloc.Request{Size: sizes[i%len(sizes)]})
				if err != nil {
					b.Fatal(err)
				}
				a.Release(ids)
			}
			reportMetric(b, "ns_per_alloc", float64(b.Elapsed().Nanoseconds())/float64(b.N))
		})
	}
}

// BenchmarkFaultInjection runs the same workload fault-free and under
// dense exponential node failures for a curve allocator, an MC form
// and the contiguous submesh baseline, reporting goodput, wasted work
// and response degradation — the PR 8 headline numbers (BENCH_8.json;
// see BENCH.md). The fault-free rows double as the regression guard
// that fault plumbing costs the clean path nothing measurable.
func BenchmarkFaultInjection(b *testing.B) {
	tr := benchTrace(250, 128)
	for _, spec := range []string{"hilbert/bestfit", "mc1x1", "submesh"} {
		for _, faulty := range []bool{false, true} {
			name := spec + "/clean"
			if faulty {
				name = spec + "/dense"
			}
			b.Run(name, func(b *testing.B) {
				cfg := sim.Config{
					MeshW: 16, MeshH: 16,
					Alloc: spec, Pattern: "nbody",
					Load: 0.4, TimeScale: 0.01, Seed: 1,
				}
				if faulty {
					cfg.Faults = fault.Config{
						MTBF: fault.Dist{Kind: fault.DistExponential, Mean: 3e5},
						MTTR: fault.Dist{Kind: fault.DistExponential, Mean: 1.5e4},
					}
					cfg.Retry = fault.Retry{
						Kind: fault.RetryBackoff, Base: 60, Cap: 3600, MaxAttempts: 4,
					}
				}
				for i := 0; i < b.N; i++ {
					res, err := sim.Run(cfg, tr)
					if err != nil {
						b.Fatal(err)
					}
					reportMetric(b, "mean_resp_s", res.MeanResponse)
					if faulty {
						reportMetric(b, "goodput_pct", res.GoodputPct)
						reportMetric(b, "wasted_pct", res.WastedPct)
						reportMetric(b, "down_pct", res.DownPct)
						reportMetric(b, "kills", float64(res.Killed))
					}
				}
				reportMetric(b, "ns_per_job", float64(b.Elapsed().Nanoseconds())/float64(b.N*len(tr.Jobs)))
			})
		}
	}
}

// BenchmarkFaultStream times raw failure-schedule generation: one
// simulated year of dense exponential failure/repair churn across a
// 1024-node machine, no simulator attached.
func BenchmarkFaultStream(b *testing.B) {
	cfg := fault.Config{
		Seed: 1,
		MTBF: fault.Dist{Kind: fault.DistExponential, Mean: 3e5},
		MTTR: fault.Dist{Kind: fault.DistExponential, Mean: 1.5e4},
	}
	for i := 0; i < b.N; i++ {
		s, err := fault.NewStream(cfg, 1024)
		if err != nil {
			b.Fatal(err)
		}
		n := 0
		for {
			ev, ok := s.Next()
			if !ok || ev.T > 365*86400 {
				break
			}
			n++
		}
		if n == 0 {
			b.Fatal("no events")
		}
		reportMetric(b, "events_per_year", float64(n))
	}
}

func BenchmarkNetworkSend(b *testing.B) {
	m := mesh.New(16, 22)
	n := netsim.New(m.Grid(), netsim.DefaultConfig())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.Send(i%m.Size(), (i*7+13)%m.Size(), float64(i))
	}
}

func BenchmarkNetworkSend3D(b *testing.B) {
	g := topo.New([]int{8, 8, 8})
	n := netsim.New(g, netsim.DefaultConfig())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.Send(i%g.Size(), (i*7+13)%g.Size(), float64(i))
	}
}

func BenchmarkCurveOrder(b *testing.B) {
	for _, name := range curve.All() {
		b.Run(name, func(b *testing.B) {
			c, err := curve.ByName(name)
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < b.N; i++ {
				if got := c.Order(16, 22); len(got) != 352 {
					b.Fatal("bad order")
				}
			}
		})
	}
}

func BenchmarkBinpackStrategies(b *testing.B) {
	order := curve.Hilbert{}.Order(16, 22)
	for _, s := range []binpack.Strategy{binpack.FreeList, binpack.FirstFit, binpack.BestFit, binpack.SumOfSquares} {
		b.Run(s.String(), func(b *testing.B) {
			p := binpack.New(order)
			for i := 0; i < b.N; i++ {
				ids, err := p.Allocate(24, s)
				if err != nil {
					b.Fatal(err)
				}
				p.Release(ids)
			}
		})
	}
}

func BenchmarkEndToEndSmall(b *testing.B) {
	tr := benchTrace(100, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.Run(sim.Config{
			MeshW: 8, MeshH: 8,
			Alloc: "hilbert/bestfit", Pattern: "alltoall",
			TimeScale: 0.01, Seed: 1,
		}, tr); err != nil {
			b.Fatal(err)
		}
	}
}

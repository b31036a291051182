package sim

import (
	"math"
	"reflect"
	"runtime"
	"testing"

	"meshalloc/internal/netsim"
	"meshalloc/internal/trace"
)

// TestEngineMatchesRun pins the fundamental refactor contract: building
// an engine, submitting the whole trace and draining produces exactly
// what batch Run produces.
func TestEngineMatchesRun(t *testing.T) {
	tr := trace.NewSDSC(trace.SDSCConfig{Jobs: 150, MaxSize: 64, Seed: 5})
	cfg := baseConfig()
	cfg.TimeScale = 0.05
	want, err := Run(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range tr.Jobs {
		if err := e.Submit(j); err != nil {
			t.Fatal(err)
		}
	}
	e.Drain()
	got := e.Result()
	if !reflect.DeepEqual(got.Records, want.Records) {
		t.Fatal("engine records diverge from batch Run")
	}
	if got.MeanResponse != want.MeanResponse || got.MedianResponse != want.MedianResponse ||
		got.UtilizationPct != want.UtilizationPct || got.MeanQueueLen != want.MeanQueueLen ||
		got.Net != want.Net || got.Makespan != want.Makespan {
		t.Fatalf("engine aggregates diverge: %+v vs %+v", got, want)
	}
	if got.Jobs != len(want.Records) {
		t.Fatalf("Jobs = %d, want %d", got.Jobs, len(want.Records))
	}
}

// TestEngineStreamingAggregatesMatchRetained is the satellite
// equivalence test: a Discard run's streaming aggregates must match the
// retained-records aggregates of the same workload — exactly for the
// mean, contiguity and utilization (same arithmetic, same order), and
// within P² tolerance for the median.
func TestEngineStreamingAggregatesMatchRetained(t *testing.T) {
	tr := trace.NewSDSC(trace.SDSCConfig{Jobs: 400, MaxSize: 64, Seed: 2})
	cfg := baseConfig()
	cfg.TimeScale = 0.02
	retained, err := Run(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}

	cfg.KeepRecords, cfg.KeepNodes = Discard, Discard
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	streamed := 0
	e.Observe(func(r JobRecord) {
		streamed++
		if r.Nodes != nil {
			t.Error("KeepNodes=Discard record still carries nodes")
		}
	})
	if err := e.RunSource(tr.Source(), 0); err != nil {
		t.Fatal(err)
	}
	got := e.Result()

	if got.Records != nil {
		t.Fatal("Discard run retained records")
	}
	if streamed != len(retained.Records) || got.Jobs != streamed {
		t.Fatalf("streamed %d records, want %d", streamed, len(retained.Records))
	}
	if got.MeanResponse != retained.MeanResponse {
		t.Fatalf("streaming mean %g != retained %g", got.MeanResponse, retained.MeanResponse)
	}
	if got.PctContiguous != retained.PctContiguous || got.AvgComponents != retained.AvgComponents {
		t.Fatal("streaming contiguity aggregates diverge")
	}
	if got.UtilizationPct != retained.UtilizationPct || got.MeanQueueLen != retained.MeanQueueLen {
		t.Fatal("streaming occupancy aggregates diverge")
	}
	if got.Makespan != retained.Makespan || got.Net != retained.Net {
		t.Fatal("streaming makespan/network diverge")
	}
	if rel := math.Abs(got.MedianResponse-retained.MedianResponse) / retained.MedianResponse; rel > 0.05 {
		t.Fatalf("P² median %g vs exact %g (rel %g)", got.MedianResponse, retained.MedianResponse, rel)
	}
}

// TestEngineObserverStreamsInFinishOrder checks observers fire once per
// job, in finish order, while records are still being retained.
func TestEngineObserverStreamsInFinishOrder(t *testing.T) {
	e, err := NewEngine(baseConfig())
	if err != nil {
		t.Fatal(err)
	}
	var seen []JobRecord
	e.Observe(func(r JobRecord) { seen = append(seen, r) })
	for _, j := range tinyTrace().Jobs {
		if err := e.Submit(j); err != nil {
			t.Fatal(err)
		}
	}
	e.Drain()
	res := e.Result()
	if !reflect.DeepEqual(seen, res.Records) {
		t.Fatal("observed stream differs from retained records")
	}
}

// TestEngineOnlineSubmission submits a job while the clock is already
// running — the open-system capability batch Run never had.
func TestEngineOnlineSubmission(t *testing.T) {
	e, err := NewEngine(baseConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Submit(trace.Job{ID: 0, Arrival: 0, Size: 4, Runtime: 60}); err != nil {
		t.Fatal(err)
	}
	e.RunUntil(30)
	if e.Now() != 30 {
		t.Fatalf("clock %g, want 30", e.Now())
	}
	// Submit mid-run: an arrival in the past clamps to the clock.
	if err := e.Submit(trace.Job{ID: 1, Arrival: 10, Size: 4, Runtime: 30}); err != nil {
		t.Fatal(err)
	}
	e.Drain()
	res := e.Result()
	if res.Jobs != 2 {
		t.Fatalf("%d jobs finished, want 2", res.Jobs)
	}
	for _, r := range res.Records {
		if r.ID == 1 && r.Arrival < 30 {
			t.Fatalf("late submission arrival %g, want clamped to >= 30", r.Arrival)
		}
	}
}

// TestEngineStepGranularity walks a run one event at a time.
func TestEngineStepGranularity(t *testing.T) {
	e, err := NewEngine(baseConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range tinyTrace().Jobs {
		if err := e.Submit(j); err != nil {
			t.Fatal(err)
		}
	}
	steps := 0
	last := 0.0
	for e.Step() {
		steps++
		if e.Now() < last {
			t.Fatal("clock moved backwards")
		}
		last = e.Now()
	}
	if steps < 4 {
		t.Fatalf("only %d events for 4 jobs", steps)
	}
	if e.Step() {
		t.Fatal("Step on drained engine should return false")
	}
	if e.Finished() != 4 {
		t.Fatalf("Finished = %d", e.Finished())
	}
}

// TestEngineSubmitValidates pins the Submit error contract.
func TestEngineSubmitValidates(t *testing.T) {
	e, err := NewEngine(baseConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Submit(trace.Job{ID: 0, Size: 65, Runtime: 10}); err == nil {
		t.Fatal("oversized job accepted")
	}
	if err := e.Submit(trace.Job{ID: 1, Size: 0, Runtime: 10}); err == nil {
		t.Fatal("zero-size job accepted")
	}
}

// TestNewEngineRejectsNonFiniteNet requires a NaN or infinite network
// timing to fail NewEngine with an error rather than panic in netsim or
// run with garbage arrival times.
func TestNewEngineRejectsNonFiniteNet(t *testing.T) {
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), -1} {
		for field := 0; field < 3; field++ {
			cfg := baseConfig()
			cfg.Net = netsim.DefaultConfig()
			switch field {
			case 0:
				cfg.Net.FlitCycle = bad
			case 1:
				cfg.Net.HopLatency = bad
			default:
				cfg.Net.LocalDelay = bad
			}
			if _, err := NewEngine(cfg); err == nil {
				t.Errorf("NewEngine accepted Net %+v", cfg.Net)
			}
		}
	}
	cfg := baseConfig()
	cfg.Net = netsim.DefaultConfig()
	if _, err := NewEngine(cfg); err != nil {
		t.Fatalf("default network timing rejected: %v", err)
	}
}

// TestEngineRunSourcePoisson drives the engine from an unbounded
// Poisson source under a horizon, the canonical open-system run.
func TestEngineRunSourcePoisson(t *testing.T) {
	cfg := baseConfig()
	cfg.KeepRecords, cfg.KeepNodes = Discard, Discard
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.RunSource(trace.NewPoisson(200, 64, 1), 100000); err != nil {
		t.Fatal(err)
	}
	e.Drain() // finish the jobs in flight at the horizon
	res := e.Result()
	// ~100000/200 = 500 expected arrivals.
	if res.Jobs < 350 || res.Jobs > 650 {
		t.Fatalf("%d jobs over the horizon, want ~500", res.Jobs)
	}
	if res.MeanResponse <= 0 || res.UtilizationPct <= 0 {
		t.Fatalf("degenerate open-system aggregates: %+v", res)
	}
	if e.Deadlocked() {
		t.Fatal("drained open run reports deadlock")
	}
}

// TestEngineRunSourceResumesPastHorizon pins that a split-horizon run
// replays the identical event sequence a continuous run would: the job
// pulled past the horizon is held (not lost), and a horizon stop does
// not run in-flight work past the boundary — the workload overlaps
// heavily, so draining at a horizon would advance the clock and clamp
// later arrivals, diverging the records.
func TestEngineRunSourceResumesPastHorizon(t *testing.T) {
	mk := func() *trace.Trace {
		tr := &trace.Trace{}
		for i := 0; i < 40; i++ {
			tr.Jobs = append(tr.Jobs, trace.Job{ID: i, Arrival: float64(i * 100), Size: 16, Runtime: 2000})
		}
		return tr
	}
	whole, err := NewEngine(baseConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := whole.RunSource(mk().Source(), 0); err != nil {
		t.Fatal(err)
	}

	split, err := NewEngine(baseConfig())
	if err != nil {
		t.Fatal(err)
	}
	src := mk().Source()
	// Horizons that fall between arrivals: each boundary pulls one job
	// past it, which must be held for the next call.
	for _, h := range []float64{450, 1250, 2650} {
		if err := split.RunSource(src, h); err != nil {
			t.Fatal(err)
		}
	}
	if err := split.RunSource(src, 0); err != nil {
		t.Fatal(err)
	}
	if split.Finished() != whole.Finished() {
		t.Fatalf("split-horizon run finished %d jobs, whole run %d — an arrival was dropped",
			split.Finished(), whole.Finished())
	}
	if !reflect.DeepEqual(split.Result().Records, whole.Result().Records) {
		t.Fatal("split-horizon records diverge from single-run records")
	}
}

// TestEngineRunSourceBoundedHeap pins the lazy-feeding property: the
// event heap never holds more than the in-flight work even though the
// source yields thousands of jobs.
func TestEngineRunSourceBoundedHeap(t *testing.T) {
	cfg := baseConfig()
	cfg.KeepRecords, cfg.KeepNodes = Discard, Discard
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	maxHeap := 0
	src := trace.Limit(trace.NewPoisson(500, 64, 3), 3000)
	for {
		j, ok := src.Next()
		if !ok {
			break
		}
		e.RunUntil(j.Arrival) // Load and TimeScale default to 1
		if err := e.Submit(j); err != nil {
			t.Fatal(err)
		}
		if len(e.events) > maxHeap {
			maxHeap = len(e.events)
		}
	}
	e.Drain()
	if e.Result().Jobs != 3000 {
		t.Fatalf("finished %d jobs, want 3000", e.Result().Jobs)
	}
	// At mean interarrival 500 s the machine drains between arrivals;
	// the heap should stay tiny, never O(stream length).
	if maxHeap > 64 {
		t.Fatalf("event heap reached %d entries on a lazily-fed run", maxHeap)
	}
	// Each arrival frees its slab slot when it pops, so a lazily-fed run
	// reuses a handful of slots instead of one per job.
	if len(e.arrivals) > 64 {
		t.Fatalf("arrival slab grew to %d slots on a lazily-fed run", len(e.arrivals))
	}
}

// TestEngineDiscardBoundedMemory is the constant-memory acceptance
// guard: a long Discard run must not grow the live heap with the job
// count (a Keep run of the same length retains tens of MB of records).
func TestEngineDiscardBoundedMemory(t *testing.T) {
	if testing.Short() {
		t.Skip("long stream")
	}
	const jobs = 200000
	cfg := baseConfig()
	cfg.KeepRecords, cfg.KeepNodes = Discard, Discard
	// Tiny quotas keep the run fast: the point is job-count scaling.
	cfg.MsgsPerSecond = 1e-4

	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)

	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	count := 0
	e.Observe(func(JobRecord) { count++ })
	if err := e.RunSource(trace.Limit(trace.NewPoisson(1000, 64, 1), jobs), 0); err != nil {
		t.Fatal(err)
	}
	if count != jobs {
		t.Fatalf("finished %d jobs, want %d", count, jobs)
	}

	res := e.Result()
	runtime.GC()
	runtime.ReadMemStats(&m1)
	if res.Jobs != jobs {
		t.Fatalf("Result.Jobs = %d", res.Jobs)
	}
	grew := int64(m1.HeapAlloc) - int64(m0.HeapAlloc)
	// The engine itself (grid, network link arrays, pools) is well
	// under a megabyte; 8 MB of headroom keeps the guard robust while
	// still failing hard if per-job state is ever retained again
	// (200k records alone would be ~25 MB).
	if grew > 8<<20 {
		t.Fatalf("live heap grew %d bytes over a %d-job Discard run", grew, jobs)
	}
}

// TestEngineDeadlockDetection mirrors batch Run's deadlock error: a
// contiguous allocator refusing the head forever must be reported.
func TestEngineDeadlocked(t *testing.T) {
	e, err := NewEngine(baseConfig())
	if err != nil {
		t.Fatal(err)
	}
	if e.Deadlocked() {
		t.Fatal("fresh engine is not deadlocked")
	}
	// A drained, finished engine is not deadlocked either.
	if err := e.Submit(trace.Job{ID: 0, Size: 4, Runtime: 10}); err != nil {
		t.Fatal(err)
	}
	e.Drain()
	if e.Deadlocked() {
		t.Fatal("drained engine with empty queue reports deadlock")
	}
}

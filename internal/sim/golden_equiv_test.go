package sim

import (
	"fmt"
	"hash/fnv"
	"testing"

	"meshalloc/internal/sched"
	"meshalloc/internal/trace"
)

// goldenDigest reduces a Result to one FNV-64a hash over every per-job
// field and every summary metric, formatted with %v so the shortest
// round-trippable float representation pins the exact bits.
func goldenDigest(res *Result) string {
	h := fnv.New64a()
	for _, r := range res.Records {
		fmt.Fprintf(h, "%d %d %d %v %v %v %v %v %v %v %v %v %d %t %v\n",
			r.ID, r.Size, r.Quota,
			r.Arrival, r.Start, r.Finish, r.Response, r.RunTime, r.Wait,
			r.AvgPairwise, r.AvgMsgDist, r.QueuedSec,
			r.Components, r.Contiguous, r.Nodes)
	}
	fmt.Fprintf(h, "mean=%v median=%v pctcontig=%v avgcomp=%v makespan=%v util=%v qlen=%v\n",
		res.MeanResponse, res.MedianResponse, res.PctContiguous, res.AvgComponents,
		res.Makespan, res.UtilizationPct, res.MeanQueueLen)
	fmt.Fprintf(h, "net=%v %v %v %v\n",
		res.Net.Messages, res.Net.TotalHops, res.Net.TotalDistSec, res.Net.TotalQueueSec)
	for _, u := range res.NodeUtilization {
		fmt.Fprintf(h, "%v ", u)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// goldenCases are the paper-figure configurations whose batch outputs
// are pinned bit-for-bit across the engine refactor: the 2-D Figure 7/8
// machines, the native 3-D ext-cube3d machine, the EASY and SJF
// scheduler paths, and the sequential-issue ablation with a randomized
// pattern.
var goldenCases = []struct {
	name   string
	cfg    Config
	jobs   int
	max    int
	digest string
}{
	{
		name: "fig7-16x22-alltoall-hilbert",
		cfg: Config{Dims: []int{16, 22}, Alloc: "hilbert/bestfit", Pattern: "alltoall",
			Load: 0.2, TimeScale: 0.01, Seed: 1},
		jobs: 300, max: 352,
		digest: "8f7442e91d71fb78",
	},
	{
		name: "fig8-16x16-nbody-mc1x1",
		cfg: Config{Dims: []int{16, 16}, Alloc: "mc1x1", Pattern: "nbody",
			Load: 0.4, TimeScale: 0.01, Seed: 1},
		jobs: 300, max: 256,
		digest: "6cddb4f3b87c185e",
	},
	{
		name: "cube3d-8x8x8-nbody-hilbert",
		cfg: Config{Dims: []int{8, 8, 8}, Alloc: "hilbert/bestfit", Pattern: "nbody",
			Load: 0.2, TimeScale: 0.01, Seed: 1},
		jobs: 300, max: 512,
		digest: "08850c36d3f13630",
	},
	{
		name: "easy-16x16-alltoall-hilbert",
		cfg: Config{Dims: []int{16, 16}, Alloc: "hilbert/bestfit", Pattern: "alltoall",
			Load: 0.4, TimeScale: 0.01, Seed: 1, Scheduler: "easy"},
		jobs: 300, max: 256,
		digest: "8c0bc3cd16040603",
	},
	{
		// SJF re-picks from the whole queue and re-arms its head-blocked
		// watermark on every arrival; the queue stays ~10 jobs deep.
		name: "sjf-16x16-alltoall-mc",
		cfg: Config{Dims: []int{16, 16}, Alloc: "mc", Pattern: "alltoall",
			Load: 0.4, TimeScale: 0.01, Seed: 1, Scheduler: "sjf"},
		jobs: 300, max: 256,
		digest: "ece01d70662acdf0",
	},
	{
		name: "seq-16x22-random-scurve",
		cfg: Config{Dims: []int{16, 22}, Alloc: "scurve", Pattern: "random",
			Load: 0.6, TimeScale: 0.01, Seed: 1, Issue: IssueSequential},
		jobs: 200, max: 352,
		digest: "172a9d1ff350573c",
	},
}

// mustRun is Run failing the test on error.
func mustRun(t *testing.T, cfg Config, tr *trace.Trace) *Result {
	t.Helper()
	res, err := Run(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// goldenTrace is the trace every golden case replays.
func goldenTrace(jobs, max int) *trace.Trace {
	return trace.NewSDSC(trace.SDSCConfig{Jobs: jobs, MaxSize: max, Seed: 1}).FilterMaxSize(max)
}

// TestBatchRunGoldenDigests pins Run's batch outputs bit-for-bit against
// digests recorded before the Engine refactor: any change to event
// ordering, float arithmetic, or record contents fails here.
func TestBatchRunGoldenDigests(t *testing.T) {
	for _, tc := range goldenCases {
		t.Run(tc.name, func(t *testing.T) {
			if got := goldenDigest(mustRun(t, tc.cfg, goldenTrace(tc.jobs, tc.max))); got != tc.digest {
				t.Fatalf("digest %s, want %s (batch output changed bit-wise)", got, tc.digest)
			}
		})
	}
}

// auditStride is the AuditEvery value the equivalence matrices run
// beside 0: frequent enough that every case audits the event heap, the
// arrival slab and the rest of the engine's books many times mid-run,
// sparse enough to keep the matrices cheap.
const auditStride = 32

// TestGoldenDigestsAcrossEventCoreToggles re-runs every golden case
// with the invariant auditor off, after every event and every
// auditStride events, and requires the identical digest from all three:
// the mid-run audits must neither fire nor perturb the run. Auditing
// after every event pins the production fast paths' incremental mirrors
// at each step, which the reference path alone does not reach.
func TestGoldenDigestsAcrossEventCoreToggles(t *testing.T) {
	for _, tc := range goldenCases {
		for _, audit := range []int{0, 1, auditStride} {
			cfg := tc.cfg
			cfg.AuditEvery = audit
			t.Run(fmt.Sprintf("%s/audit=%d", tc.name, audit), func(t *testing.T) {
				if got := goldenDigest(mustRun(t, cfg, goldenTrace(tc.jobs, tc.max))); got != tc.digest {
					t.Fatalf("digest %s, want %s (audit cadence changed the run)", got, tc.digest)
				}
			})
		}
	}
}

// opaquePolicy hides a policy's concrete type from the engine: it
// exposes only Name and Pick, so setPolicy derives the general dispatch
// path — one Pick per round over the mirrors, with no FCFS head check
// and no head-blocked watermark.
type opaquePolicy struct{ sched.Policy }

// runReference is Run on the scheduler reference path: the configured
// policy behind opaquePolicy, with the invariant auditor after every
// event. The pend-mirror, run-mirror and run-order audits then pin the
// incremental scheduler mirrors against the queue and the job store at
// every step, while the policy itself makes each decision from them.
func runReference(t *testing.T, cfg Config, tr *trace.Trace) *Result {
	t.Helper()
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	e.setPolicy(opaquePolicy{e.policy})
	e.auditEvery = 1
	for _, j := range tr.Jobs {
		if err := e.Submit(j); err != nil {
			t.Fatal(err)
		}
	}
	e.Drain()
	if e.Deadlocked() {
		t.Fatalf("reference run deadlocked with %d queued", e.Pending())
	}
	if err := e.Audit(); err != nil {
		t.Fatal(err)
	}
	return e.Result()
}

// TestSchedulerReferenceGoldenDigests runs every golden case under FCFS,
// EASY and SJF on both the production scheduler paths and the
// reference path, and requires identical digests — equal to the pinned
// one under the case's own scheduler. The fast paths (head-only FCFS
// and the head-blocked watermark) must be pure performance changes.
func TestSchedulerReferenceGoldenDigests(t *testing.T) {
	for _, tc := range goldenCases {
		own := tc.cfg.withDefaults().Scheduler
		for _, policy := range []string{"fcfs", "easy", "sjf"} {
			cfg := tc.cfg
			cfg.Scheduler = policy
			t.Run(tc.name+"/"+policy, func(t *testing.T) {
				t.Parallel()
				tr := goldenTrace(tc.jobs, tc.max)
				want := goldenDigest(mustRun(t, cfg, tr))
				if policy == own && want != tc.digest {
					t.Fatalf("production digest %s, want pinned %s", want, tc.digest)
				}
				if got := goldenDigest(runReference(t, cfg, tr)); got != want {
					t.Fatalf("reference digest %s, want %s", got, want)
				}
			})
		}
	}
}

// TestScoringAllocatorGoldenDigests pins full simulations of the
// scoring allocators the golden cases leave out — MC on the Figure 7/8
// machines, Gen-Alg in 2-D and 3-D, MC1x1 in 3-D — to digests recorded
// before the sharded scorer was deleted, and requires the scheduler
// reference path to reproduce them.
func TestScoringAllocatorGoldenDigests(t *testing.T) {
	cases := []struct {
		name   string
		cfg    Config
		max    int
		digest string
	}{
		{"mc-16x16-alltoall", Config{Dims: []int{16, 16}, Alloc: "mc", Pattern: "alltoall",
			Load: 0.4, TimeScale: 0.01, Seed: 1}, 256, "4a6844ce35fdb68f"},
		{"mc-16x22-alltoall", Config{Dims: []int{16, 22}, Alloc: "mc", Pattern: "alltoall",
			Load: 0.4, TimeScale: 0.01, Seed: 1}, 352, "adb8817050237e77"},
		{"genalg-16x16-nbody", Config{Dims: []int{16, 16}, Alloc: "genalg", Pattern: "nbody",
			Load: 0.4, TimeScale: 0.01, Seed: 1}, 256, "5bdb293fc187eb34"},
		{"genalg-8x8x8-nbody", Config{Dims: []int{8, 8, 8}, Alloc: "genalg", Pattern: "nbody",
			Load: 0.2, TimeScale: 0.01, Seed: 1}, 512, "3d2a8cef42b929bf"},
		{"mc1x1-8x8x8-nbody", Config{Dims: []int{8, 8, 8}, Alloc: "mc1x1", Pattern: "nbody",
			Load: 0.2, TimeScale: 0.01, Seed: 1}, 512, "5cfafba34c540ba1"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tr := goldenTrace(150, tc.max)
			if got := goldenDigest(mustRun(t, tc.cfg, tr)); got != tc.digest {
				t.Fatalf("digest %s, want %s", got, tc.digest)
			}
			if got := goldenDigest(runReference(t, tc.cfg, tr)); got != tc.digest {
				t.Fatalf("reference digest %s, want %s", got, tc.digest)
			}
		})
	}
}

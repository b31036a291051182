package sim

import (
	"fmt"
	"hash/fnv"
	"testing"

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
// machines, the native 3-D ext-cube3d machine, the EASY scheduler path,
// and the sequential-issue ablation with a randomized pattern.
var goldenCases = []struct {
	name   string
	cfg    Config
	jobs   int
	max    int
	digest string
}{
	{
		name: "fig7-16x22-alltoall-hilbert",
		cfg: Config{MeshW: 16, MeshH: 22, Alloc: "hilbert/bestfit", Pattern: "alltoall",
			Load: 0.2, TimeScale: 0.01, Seed: 1},
		jobs: 300, max: 352,
		digest: "8f7442e91d71fb78",
	},
	{
		name: "fig8-16x16-nbody-mc1x1",
		cfg: Config{MeshW: 16, MeshH: 16, Alloc: "mc1x1", Pattern: "nbody",
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
		cfg: Config{MeshW: 16, MeshH: 16, Alloc: "hilbert/bestfit", Pattern: "alltoall",
			Load: 0.4, TimeScale: 0.01, Seed: 1, Scheduler: "easy"},
		jobs: 300, max: 256,
		digest: "8c0bc3cd16040603",
	},
	{
		name: "seq-16x22-random-scurve",
		cfg: Config{MeshW: 16, MeshH: 22, Alloc: "scurve", Pattern: "random",
			Load: 0.6, TimeScale: 0.01, Seed: 1, Issue: IssueSequential},
		jobs: 200, max: 352,
		digest: "172a9d1ff350573c",
	},
}

// TestBatchRunGoldenDigests pins Run's batch outputs bit-for-bit against
// digests recorded before the Engine refactor: any change to event
// ordering, float arithmetic, or record contents fails here.
func TestBatchRunGoldenDigests(t *testing.T) {
	for _, tc := range goldenCases {
		t.Run(tc.name, func(t *testing.T) {
			tr := trace.NewSDSC(trace.SDSCConfig{Jobs: tc.jobs, MaxSize: tc.max, Seed: 1}).
				FilterMaxSize(tc.max)
			res, err := Run(tc.cfg, tr)
			if err != nil {
				t.Fatal(err)
			}
			if got := goldenDigest(res); got != tc.digest {
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
// through the event-core configuration matrix — {off, every
// auditStride events} invariant audit × {incremental, rebuild-per-round}
// scheduler state × {counted, naive} dispersal metrics — and requires
// the identical pre-overhaul digest from each of the eight
// combinations. Every fast path must be a pure performance change,
// indistinguishable in any output bit from the retained reference
// implementations, and the mid-run audits must neither fire nor
// perturb the run.
func TestGoldenDigestsAcrossEventCoreToggles(t *testing.T) {
	for _, tc := range goldenCases {
		for _, audit := range []int{0, auditStride} {
			for _, rebuild := range []bool{false, true} {
				for _, naive := range []bool{false, true} {
					cfg := tc.cfg
					cfg.AuditEvery = audit
					cfg.RebuildSched = rebuild
					cfg.NaiveMetrics = naive
					name := fmt.Sprintf("%s/audit=%d/rebuild=%v/naive=%v", tc.name, audit, rebuild, naive)
					t.Run(name, func(t *testing.T) {
						tr := trace.NewSDSC(trace.SDSCConfig{Jobs: tc.jobs, MaxSize: tc.max, Seed: 1}).
							FilterMaxSize(tc.max)
						res, err := Run(cfg, tr)
						if err != nil {
							t.Fatal(err)
						}
						if got := goldenDigest(res); got != tc.digest {
							t.Fatalf("digest %s, want %s (toggle combination diverged)", got, tc.digest)
						}
					})
				}
			}
		}
	}
}

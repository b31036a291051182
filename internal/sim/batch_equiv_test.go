package sim

import (
	"math"
	"testing"

	"meshalloc/internal/trace"
)

// Batch-dispatch equivalence: the FCFS batch path (scheduleFCFSBatch
// over a BatchAllocator, fed by same-timestamp arrival draining) must
// produce bit-identical simulations to the one-at-a-time dispatch loop
// on workloads dense with simultaneous arrivals.

// burstTrace derives a trace whose arrivals are quantized onto a coarse
// clock so many jobs share exact timestamps — the workload the batch
// dispatch exists for.
func burstTrace(jobs, maxSize int, quantum float64) *trace.Trace {
	tr := trace.NewSDSC(trace.SDSCConfig{Jobs: jobs, MaxSize: maxSize, Seed: 1}).
		FilterMaxSize(maxSize).Clone()
	for i := range tr.Jobs {
		tr.Jobs[i].Arrival = math.Floor(tr.Jobs[i].Arrival/quantum) * quantum
	}
	return tr
}

// runDigest replays tr on a fresh engine, optionally with the batch
// dispatch disabled, and digests the full result.
func runDigest(t *testing.T, cfg Config, tr *trace.Trace, batch bool) string {
	t.Helper()
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !batch {
		e.batcher = nil
	} else if e.batcher == nil {
		t.Fatalf("allocator %q does not batch-allocate", cfg.Alloc)
	}
	for _, j := range tr.Jobs {
		if err := e.Submit(j); err != nil {
			t.Fatal(err)
		}
	}
	e.Drain()
	if e.Deadlocked() {
		t.Fatalf("deadlocked with %d queued", e.Pending())
	}
	return goldenDigest(e.Result())
}

// TestBatchDispatchEquivalence compares batch-on and batch-off runs for
// every batch-capable allocator family on a burst-heavy workload.
func TestBatchDispatchEquivalence(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
	}{
		{"hilbert-bestfit", Config{MeshW: 16, MeshH: 16, Alloc: "hilbert/bestfit", Pattern: "alltoall",
			Load: 0.4, TimeScale: 0.01, Seed: 1}},
		{"hilbert-firstfit", Config{MeshW: 16, MeshH: 16, Alloc: "hilbert/firstfit", Pattern: "alltoall",
			Load: 0.4, TimeScale: 0.01, Seed: 1}},
		{"mc", Config{MeshW: 16, MeshH: 16, Alloc: "mc", Pattern: "nbody",
			Load: 0.4, TimeScale: 0.01, Seed: 1}},
		{"mc-alltoall", Config{MeshW: 16, MeshH: 16, Alloc: "mc", Pattern: "alltoall",
			Load: 0.4, TimeScale: 0.01, Seed: 1}},
		{"mc1x1", Config{MeshW: 16, MeshH: 16, Alloc: "mc1x1", Pattern: "nbody",
			Load: 0.4, TimeScale: 0.01, Seed: 1}},
		{"genalg", Config{MeshW: 16, MeshH: 16, Alloc: "genalg", Pattern: "nbody",
			Load: 0.4, TimeScale: 0.01, Seed: 1}},
		{"random", Config{MeshW: 16, MeshH: 16, Alloc: "random", Pattern: "alltoall",
			Load: 0.4, TimeScale: 0.01, Seed: 1}},
		{"mc-3d", Config{Dims: []int{8, 8, 8}, Alloc: "mc", Pattern: "nbody",
			Load: 0.2, TimeScale: 0.01, Seed: 1}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			size := 256
			if tc.cfg.Dims != nil {
				size = 512
			}
			tr := burstTrace(120, size, 500)
			want := runDigest(t, tc.cfg, tr, false)
			if got := runDigest(t, tc.cfg, tr, true); got != want {
				t.Fatalf("batch dispatch digest %s, want sequential %s", got, want)
			}
		})
	}
}

// TestBatchDispatchNonFCFSUntouched pins that a batch-capable allocator
// under a queue-inspecting policy (SJF considers every pending job, so
// batching the head prefix would change its decisions) takes the
// one-at-a-time path: digests match with the batcher nulled out.
func TestBatchDispatchNonFCFSUntouched(t *testing.T) {
	cfg := Config{MeshW: 16, MeshH: 16, Alloc: "hilbert/bestfit", Pattern: "alltoall",
		Load: 0.4, TimeScale: 0.01, Seed: 1, Scheduler: "sjf"}
	tr := burstTrace(100, 256, 500)
	want := runDigest(t, cfg, tr, false)
	if got := runDigest(t, cfg, tr, true); got != want {
		t.Fatalf("non-FCFS batch digest %s, want %s", got, want)
	}
}

// TestDeltaObserverMirrorsOccupancy rebuilds the machine's free count
// purely from delta events and checks it tracks the allocator at every
// change, and that allocate/release deltas balance by the end.
func TestDeltaObserverMirrorsOccupancy(t *testing.T) {
	cfg := Config{MeshW: 16, MeshH: 16, Alloc: "hilbert/bestfit", Pattern: "alltoall",
		Load: 0.4, TimeScale: 0.01, Seed: 1}
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	busy := make([]bool, e.MachineSize())
	numBusy, allocs, releases := 0, 0, 0
	lastT := math.Inf(-1)
	e.ObserveDeltas(func(now float64, ids []int, allocated bool) {
		if now < lastT {
			t.Fatalf("delta time went backwards: %v after %v", now, lastT)
		}
		lastT = now
		for _, id := range ids {
			if allocated {
				if busy[id] {
					t.Fatalf("allocate delta for already-busy node %d", id)
				}
				busy[id] = true
				numBusy++
			} else {
				if !busy[id] {
					t.Fatalf("release delta for free node %d", id)
				}
				busy[id] = false
				numBusy--
			}
		}
		if allocated {
			allocs++
		} else {
			releases++
		}
		// During a batch the allocator runs ahead of the per-job deltas
		// (AllocateBatch serves the whole prefix before the jobs start),
		// so instantaneous agreement is only guaranteed at releases,
		// which never interleave with a dispatch round.
		if !allocated && e.MachineSize()-numBusy != e.NumFree() {
			t.Fatalf("delta mirror says %d free, allocator says %d",
				e.MachineSize()-numBusy, e.NumFree())
		}
	})
	tr := burstTrace(100, 256, 500)
	for _, j := range tr.Jobs {
		if err := e.Submit(j); err != nil {
			t.Fatal(err)
		}
	}
	e.Drain()
	if numBusy != 0 {
		t.Fatalf("%d nodes still busy after drain", numBusy)
	}
	if allocs != releases || allocs != e.Finished() {
		t.Fatalf("%d allocate deltas, %d release deltas, %d finished jobs",
			allocs, releases, e.Finished())
	}
}

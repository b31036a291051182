package sim

import (
	"math"
	"testing"

	"meshalloc/internal/trace"
)

// Burst arrivals: many jobs share exact arrival timestamps, and each
// arrival is its own event followed by its own scheduling round. The
// digests below were recorded while FCFS served each runnable queue
// prefix in one batch allocation; they pin that one-at-a-time dispatch
// starts the same jobs on the same nodes in the same order.

// burstTrace derives a trace whose arrivals are quantized onto a coarse
// clock so many jobs share exact timestamps.
func burstTrace(jobs, maxSize int, quantum float64) *trace.Trace {
	tr := trace.NewSDSC(trace.SDSCConfig{Jobs: jobs, MaxSize: maxSize, Seed: 1}).
		FilterMaxSize(maxSize).Clone()
	for i := range tr.Jobs {
		tr.Jobs[i].Arrival = math.Floor(tr.Jobs[i].Arrival/quantum) * quantum
	}
	return tr
}

// TestBurstArrivalGoldenDigests replays a burst-heavy trace for every
// exact-size allocator family, FCFS on 16x16 and 8x8x8 plus SJF and
// EASY, through production dispatch and through runReference: both
// must reproduce the pinned digest.
func TestBurstArrivalGoldenDigests(t *testing.T) {
	cases := []struct {
		name   string
		cfg    Config
		digest string
	}{
		{"hilbert-bestfit", Config{Dims: []int{16, 16}, Alloc: "hilbert/bestfit", Pattern: "alltoall",
			Load: 0.4, TimeScale: 0.01, Seed: 1}, "00eedf244edd2006"},
		{"hilbert-firstfit", Config{Dims: []int{16, 16}, Alloc: "hilbert/firstfit", Pattern: "alltoall",
			Load: 0.4, TimeScale: 0.01, Seed: 1}, "bbc7de6a4ea4b6d1"},
		{"mc", Config{Dims: []int{16, 16}, Alloc: "mc", Pattern: "nbody",
			Load: 0.4, TimeScale: 0.01, Seed: 1}, "315fa000451310d1"},
		{"mc-alltoall", Config{Dims: []int{16, 16}, Alloc: "mc", Pattern: "alltoall",
			Load: 0.4, TimeScale: 0.01, Seed: 1}, "db90c8c20ed4f8ca"},
		{"mc1x1", Config{Dims: []int{16, 16}, Alloc: "mc1x1", Pattern: "nbody",
			Load: 0.4, TimeScale: 0.01, Seed: 1}, "9728f42c5cbd4ec7"},
		{"genalg", Config{Dims: []int{16, 16}, Alloc: "genalg", Pattern: "nbody",
			Load: 0.4, TimeScale: 0.01, Seed: 1}, "361b511b3d30d132"},
		{"random", Config{Dims: []int{16, 16}, Alloc: "random", Pattern: "alltoall",
			Load: 0.4, TimeScale: 0.01, Seed: 1}, "c44939f607170672"},
		{"mc-3d", Config{Dims: []int{8, 8, 8}, Alloc: "mc", Pattern: "nbody",
			Load: 0.2, TimeScale: 0.01, Seed: 1}, "71eb34531999fa29"},
		{"hilbert-bestfit-sjf", Config{Dims: []int{16, 16}, Alloc: "hilbert/bestfit", Pattern: "alltoall",
			Load: 0.4, TimeScale: 0.01, Seed: 1, Scheduler: "sjf"}, "6d148490817a20b7"},
		{"hilbert-bestfit-easy", Config{Dims: []int{16, 16}, Alloc: "hilbert/bestfit", Pattern: "alltoall",
			Load: 0.4, TimeScale: 0.01, Seed: 1, Scheduler: "easy"}, "302369556b84d9fc"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			size := 1
			for _, d := range tc.cfg.Dims {
				size *= d
			}
			tr := burstTrace(120, size, 500)
			if got := goldenDigest(mustRun(t, tc.cfg, tr)); got != tc.digest {
				t.Fatalf("digest %s, want %s", got, tc.digest)
			}
			if got := goldenDigest(runReference(t, tc.cfg, tr)); got != tc.digest {
				t.Fatalf("reference digest %s, want %s", got, tc.digest)
			}
		})
	}
}

// TestDeltaObserverMirrorsOccupancy rebuilds the machine's free count
// purely from delta events and checks it tracks the allocator at every
// change, and that allocate/release deltas balance by the end.
func TestDeltaObserverMirrorsOccupancy(t *testing.T) {
	cfg := Config{Dims: []int{16, 16}, Alloc: "hilbert/bestfit", Pattern: "alltoall",
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
		if e.MachineSize()-numBusy != e.NumFree() {
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

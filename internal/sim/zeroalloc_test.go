package sim

// White-box allocation guards for the scheduler round itself, so the
// incremental structures of the event-core overhaul (persistent
// pendBuf, end-time-ordered running index, head-blocked watermark)
// cannot silently reintroduce per-event allocation. The repo-root
// zeroalloc_test.go pins the whole engine per job; these pin the
// trySchedule round in isolation.

import (
	"fmt"
	"testing"

	"meshalloc/internal/trace"
)

// TestTryScheduleHeadBlockedZeroAlloc pins a head-blocked scheduling
// round at exactly zero allocations for every policy: FCFS and SJF
// short-circuit on the watermark, and EASY — which must re-scan because
// its backfill decisions depend on the clock — runs its full PickSorted
// round over the persistent pendBuf and runOrd without copying either.
func TestTryScheduleHeadBlockedZeroAlloc(t *testing.T) {
	for _, policy := range []string{"fcfs", "sjf", "easy"} {
		t.Run(policy, func(t *testing.T) {
			cfg := Config{
				MeshW: 8, MeshH: 8,
				Alloc: "hilbert/bestfit", Pattern: "nbody", Seed: 1,
				Scheduler:   policy,
				KeepRecords: Discard, KeepNodes: Discard,
			}
			e, err := NewEngine(cfg)
			if err != nil {
				t.Fatal(err)
			}
			// Fill the machine, then queue jobs that cannot start.
			jobs := []trace.Job{
				{ID: 1, Size: 64, Arrival: 0, Runtime: 1000},
				{ID: 2, Size: 64, Arrival: 1, Runtime: 1000},
				{ID: 3, Size: 32, Arrival: 1, Runtime: 10},
				{ID: 4, Size: 48, Arrival: 1, Runtime: 500},
			}
			for _, j := range jobs {
				if err := e.Submit(j); err != nil {
					t.Fatal(err)
				}
			}
			e.RunUntil(2)
			if e.RunningJobs() != 1 || e.Pending() != 3 {
				t.Fatalf("setup: %d running, %d pending; want 1 running, 3 pending",
					e.RunningJobs(), e.Pending())
			}
			e.trySchedule(e.now) // warm any lazily-grown scratch
			n := testing.AllocsPerRun(200, func() {
				e.trySchedule(e.now)
			})
			if n != 0 {
				t.Fatalf("%s head-blocked round allocates %.1f objects, want 0", policy, n)
			}
			if e.RunningJobs() != 1 || e.Pending() != 3 {
				t.Fatalf("blocked rounds changed state: %d running, %d pending",
					e.RunningJobs(), e.Pending())
			}
		})
	}
}

// TestTryScheduleDispatchSteadyStateAllocs pins the full dispatching
// cycle — arrival event, scheduling round, allocation, message phases,
// finish with counted dispersal metrics — at a small constant per job
// on the Discard path: the allocator's returned id slice plus the
// pattern generator, nothing per-event and nothing per-round.
func TestTryScheduleDispatchSteadyStateAllocs(t *testing.T) {
	for _, policy := range []string{"fcfs", "easy"} {
		t.Run(policy, func(t *testing.T) {
			cfg := Config{
				MeshW: 8, MeshH: 8,
				Alloc: "hilbert/bestfit", Pattern: "nbody", Seed: 1,
				Scheduler:   policy,
				KeepRecords: Discard, KeepNodes: Discard,
			}
			e, err := NewEngine(cfg)
			if err != nil {
				t.Fatal(err)
			}
			id := 0
			cycle := func() {
				id++
				if err := e.Submit(trace.Job{ID: id, Size: 16, Arrival: e.Now(), Runtime: 5}); err != nil {
					t.Fatal(err)
				}
				e.Drain()
			}
			for i := 0; i < 50; i++ {
				cycle() // warm pools, scratch and event-queue buckets
			}
			n := testing.AllocsPerRun(200, cycle)
			if n > 4 {
				t.Fatalf("%s dispatch cycle allocates %.1f objects/job, want <= 4", policy, n)
			}
			if e.Finished() != id {
				t.Fatalf("finished %d of %d jobs", e.Finished(), id)
			}
			// One arrival is queued at a time, so its slab slot recycles
			// on every cycle.
			if len(e.arrivals) != 1 || len(e.arrFree) != 1 {
				t.Fatalf("arrival slab holds %d slots (%d free) after %d cycles; want 1 recycled slot",
					len(e.arrivals), len(e.arrFree), id)
			}
		})
	}
}

// deepFCFSEngine returns an FCFS engine on a 64-processor machine with
// one job running and depth whole-machine jobs queued behind it, and a
// cycle that appends one job to the tail and steps until the next job
// finishes — so every cycle dispatches exactly one job from the head
// of a queue that stays depth deep.
func deepFCFSEngine(tb testing.TB, depth int) (e *Engine, cycle func()) {
	tb.Helper()
	e, err := NewEngine(Config{
		MeshW: 8, MeshH: 8,
		Alloc: "hilbert/bestfit", Pattern: "nbody", Seed: 1,
		KeepRecords: Discard, KeepNodes: Discard,
	})
	if err != nil {
		tb.Fatal(err)
	}
	id := 0
	submit := func() {
		id++
		if err := e.Submit(trace.Job{ID: id, Size: 64, Arrival: e.Now(), Runtime: 5}); err != nil {
			tb.Fatal(err)
		}
	}
	for i := 0; i <= depth; i++ {
		submit()
	}
	cycle = func() {
		submit()
		for done := e.Finished(); e.Finished() == done; {
			if !e.Step() {
				tb.Fatal("engine ran out of events")
			}
		}
	}
	return e, cycle
}

// TestFCFSDeepQueueDispatchAllocs pins dispatch from the head of a deep
// FCFS queue at the steady-state dispatch bound: the head-offset deque
// advances instead of shifting the queue, and reuses its backing array
// rather than reallocating as the head moves.
func TestFCFSDeepQueueDispatchAllocs(t *testing.T) {
	const depth = 1500
	e, cycle := deepFCFSEngine(t, depth)
	for i := 0; i < 2*depth; i++ {
		cycle() // warm pools and scratch; cycle the deque past a compaction
	}
	n := testing.AllocsPerRun(2*depth, cycle)
	if n > 4 {
		t.Fatalf("deep-queue dispatch allocates %.1f objects/job, want <= 4", n)
	}
	if e.Pending() != depth {
		t.Fatalf("queue depth %d, want %d", e.Pending(), depth)
	}
}

// TestQueueDequeKeepsBackingArray pins the pending deque's bookkeeping:
// dropping the head advances the offset, the live tail moves down once
// the dead prefix exceeds half the slice, a drained queue resets to
// [:0], and none of it gives up the backing array — so an enqueue
// after a drain does not allocate (a bare queue[n:] reslice would).
func TestQueueDequeKeepsBackingArray(t *testing.T) {
	e := &Engine{}
	for i := 0; i < 8; i++ {
		e.enqueue(trace.Job{ID: i})
	}
	c := cap(e.queue)
	check := func(step string, head int, ids ...int) {
		t.Helper()
		if e.qhead != head || cap(e.queue) != c || e.Pending() != len(ids) {
			t.Fatalf("%s: head %d cap %d pending %d; want head %d cap %d pending %d",
				step, e.qhead, cap(e.queue), e.Pending(), head, c, len(ids))
		}
		for i, j := range e.pending() {
			if j.ID != ids[i] {
				t.Fatalf("%s: pending[%d] is job %d, want %d", step, i, j.ID, ids[i])
			}
		}
	}
	e.dropHead(3)
	check("advance", 3, 3, 4, 5, 6, 7)
	e.dropHead(2)
	check("compact", 0, 5, 6, 7)
	e.dequeueAt(1)
	check("remove inside", 0, 5, 7)
	e.dequeueAt(0)
	check("remove head", 1, 7)
	e.dropHead(1)
	check("drain", 0)
	if n := testing.AllocsPerRun(100, func() {
		e.enqueue(trace.Job{ID: 9})
		e.dropHead(1)
	}); n != 0 {
		t.Fatalf("enqueue after drain allocates %.1f objects, want 0", n)
	}
}

// BenchmarkFCFSDispatchDeepQueue times one head dispatch from FCFS
// queues 100 and 10,000 deep; with O(1) dequeue ns/op is flat across
// the two.
func BenchmarkFCFSDispatchDeepQueue(b *testing.B) {
	for _, depth := range []int{100, 10000} {
		b.Run(fmt.Sprintf("depth=%d", depth), func(b *testing.B) {
			_, cycle := deepFCFSEngine(b, depth)
			for i := 0; i < 1000; i++ {
				cycle()
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cycle()
			}
		})
	}
}

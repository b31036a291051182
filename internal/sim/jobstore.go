package sim

import (
	"meshalloc/internal/comm"
	"meshalloc/internal/trace"
)

// jobStore holds every in-flight job's state as a struct of parallel
// arrays indexed by pooled int32 handles. Events reference jobs by
// handle, so the event heap — the largest long-lived structure on a
// Discard run — carries no pointers at all and costs the garbage
// collector nothing to scan; the pointered columns (nodes, gen) are
// bounded by the number of concurrently running jobs, not by queue
// depth. Handles are recycled LIFO through free, exactly as the old
// *runningJob pool recycled structs: a handle stays in use after a kill
// (dead=true) until the job's one stale heap event pops and releases
// it, so a recycled handle can never collide with a live queue entry.
type jobStore struct {
	job      []trace.Job
	nodes    [][]int
	gen      []comm.Generator
	quota    []int64
	sent     []int64
	hops     []int64
	start    []float64
	lastArr  []float64 // latest delivery so far
	queued   []float64
	estEnd   []float64  // nominal end for backfilling estimates
	pending  []comm.Msg // first message of the next phase (phased mode)
	havePend []bool
	dead     []bool // killed by a node failure; awaiting its stale event
	inUse    []bool
	free     []int32
	live     int // in-use and not dead: the running-job count
}

// alloc returns a zeroed handle, growing the columns when the pool is
// dry.
func (s *jobStore) alloc() int32 {
	if n := len(s.free); n > 0 {
		h := s.free[n-1]
		s.free = s.free[:n-1]
		s.inUse[h] = true
		s.live++
		return h
	}
	h := int32(len(s.job))
	s.job = append(s.job, trace.Job{})
	s.nodes = append(s.nodes, nil)
	s.gen = append(s.gen, nil)
	s.quota = append(s.quota, 0)
	s.sent = append(s.sent, 0)
	s.hops = append(s.hops, 0)
	s.start = append(s.start, 0)
	s.lastArr = append(s.lastArr, 0)
	s.queued = append(s.queued, 0)
	s.estEnd = append(s.estEnd, 0)
	s.pending = append(s.pending, comm.Msg{})
	s.havePend = append(s.havePend, false)
	s.dead = append(s.dead, false)
	s.inUse = append(s.inUse, true)
	s.live++
	return h
}

// markDead flags a killed job whose stale heap event still holds the
// handle; the handle leaves the running count now but returns to the
// pool only when that event pops.
func (s *jobStore) markDead(h int32) {
	s.dead[h] = true
	s.live--
	s.gen[h] = nil
	s.nodes[h] = nil
}

// release returns h to the pool: the job finished, or the stale event
// of a killed job popped.
func (s *jobStore) release(h int32) {
	if !s.dead[h] {
		s.live--
	}
	s.dead[h] = false
	s.inUse[h] = false
	s.gen[h] = nil
	s.nodes[h] = nil
	s.free = append(s.free, h)
}

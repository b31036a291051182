package sim

import (
	"errors"
	"fmt"
	"sort"

	"meshalloc/internal/alloc"
	"meshalloc/internal/sched"
)

// Violation is one failed engine invariant: Invariant names the rule,
// Detail carries the numbers. Audit joins every violation it finds with
// errors.Join, so callers can match individual rules with errors.As and
// a target *Violation.
type Violation struct {
	Invariant string
	Detail    string
}

// Error implements error.
func (v *Violation) Error() string {
	return fmt.Sprintf("sim: invariant %q violated: %s", v.Invariant, v.Detail)
}

func violatef(invariant, format string, args ...any) error {
	return &Violation{Invariant: invariant, Detail: fmt.Sprintf(format, args...)}
}

// Audit cross-checks every redundant structure the engine maintains —
// the allocator's occupancy indexes against its free count, the job
// store against the owner map and the running-set mirrors, the event
// queue's time and sequence discipline, the fault masks against the
// availability flags, and job conservation across queue, machine and
// retry bookkeeping. It returns nil when every invariant holds, or all
// violations found joined into one error.
//
// The walk is read-only and costs O(machine + events + jobs); it is
// cheap enough to run between events (see Config.AuditEvery) and is
// run automatically after a snapshot restore.
func (e *Engine) Audit() error {
	var errs []error
	s := &e.store

	// Job-store bookkeeping: the live count, the pool free list and the
	// inUse/dead flags must describe one consistent partition of the
	// handle space.
	live := 0
	for h := range s.inUse {
		if s.inUse[h] && !s.dead[h] {
			live++
		}
	}
	if live != s.live {
		errs = append(errs, violatef("store-live", "counted %d live handles, cached %d", live, s.live))
	}
	seenFree := make(map[int32]bool, len(s.free))
	for _, h := range s.free {
		if h < 0 || int(h) >= len(s.inUse) {
			errs = append(errs, violatef("store-free", "free-list handle %d outside [0,%d)", h, len(s.inUse)))
			continue
		}
		if seenFree[h] {
			errs = append(errs, violatef("store-free", "handle %d on the free list twice", h))
		}
		seenFree[h] = true
		if s.inUse[h] {
			errs = append(errs, violatef("store-free", "handle %d both in use and on the free list", h))
		}
	}
	for h := range s.inUse {
		if !s.inUse[int32(h)] && !seenFree[int32(h)] {
			errs = append(errs, violatef("store-free", "handle %d neither in use nor on the free list", h))
		}
	}

	// Occupancy: the busy-processor total is the sum of live job sizes,
	// and machine size decomposes into job-held, fault-masked and free.
	busy := 0
	for h := range s.inUse {
		if s.inUse[h] && !s.dead[h] {
			busy += s.job[h].Size
		}
	}
	if busy != e.busyProcs {
		errs = append(errs, violatef("busy-procs", "live jobs hold %d processors, cached busyProcs %d", busy, e.busyProcs))
	}
	slack := e.grid.Size() - e.busyProcs - e.maskedN - e.allocator.NumFree()
	if slack < 0 {
		errs = append(errs, violatef("free-count",
			"machine %d < busy %d + masked %d + free %d", e.grid.Size(), e.busyProcs, e.maskedN, e.allocator.NumFree()))
	} else if slack > 0 && e.batcher != nil {
		// Exact-size allocators (the BatchAllocator contract) leave no
		// internal fragmentation; paged forms legitimately strand the
		// tail of a partially-used page, so only slack < 0 is wrong there.
		errs = append(errs, violatef("free-count",
			"%d processors unaccounted for (machine %d, busy %d, masked %d, free %d)",
			slack, e.grid.Size(), e.busyProcs, e.maskedN, e.allocator.NumFree()))
	}
	if aud, ok := e.allocator.(alloc.Auditor); ok {
		if err := aud.AuditIndexes(); err != nil {
			errs = append(errs, &Violation{Invariant: "alloc-indexes", Detail: err.Error()})
		}
	}

	// Event heap: every queued event is in the clock's future, carries
	// a sequence number below the engine's counter, no two events share
	// one, job events reference in-use handles, and every parent sorts
	// no later than its children. Arrival events each own one slab slot
	// the free list does not hold, and the slab holds no other live
	// slot.
	if i := e.events.disorder(); i >= 0 {
		p := (i - 1) / 2
		errs = append(errs, violatef("event-heap", "event %d (t=%v seq=%d) sorts before its parent %d (t=%v seq=%d)",
			i, e.events[i].t, e.events[i].seq, p, e.events[p].t, e.events[p].seq))
	}
	slotFree := make([]bool, len(e.arrivals))
	for _, slot := range e.arrFree {
		switch {
		case slot < 0 || int(slot) >= len(e.arrivals):
			errs = append(errs, violatef("arrival-slot", "free-list slot %d outside [0,%d)", slot, len(e.arrivals)))
		case slotFree[slot]:
			errs = append(errs, violatef("arrival-slot", "slot %d on the free list twice", slot))
		default:
			slotFree[slot] = true
		}
	}
	slotRef := make([]bool, len(e.arrivals))
	arrivals := 0
	seqs := make(map[int64]bool)
	for _, ev := range e.events {
		if ev.t < e.now {
			errs = append(errs, violatef("event-time", "event seq %d at t=%v behind clock %v", ev.seq, ev.t, e.now))
		}
		if ev.seq < 0 || ev.seq >= e.seq {
			errs = append(errs, violatef("event-seq", "event seq %d outside [0,%d)", ev.seq, e.seq))
		}
		if seqs[ev.seq] {
			errs = append(errs, violatef("event-seq", "two events share seq %d", ev.seq))
		}
		seqs[ev.seq] = true
		if ev.kind != kindArrival {
			if ev.h < 0 || int(ev.h) >= len(s.inUse) || !s.inUse[ev.h] {
				errs = append(errs, violatef("event-handle", "event seq %d references unused handle %d", ev.seq, ev.h))
			}
			continue
		}
		arrivals++
		switch {
		case ev.h < 0 || int(ev.h) >= len(e.arrivals):
			errs = append(errs, violatef("arrival-slot", "arrival seq %d holds slot %d outside [0,%d)", ev.seq, ev.h, len(e.arrivals)))
		case slotFree[ev.h]:
			errs = append(errs, violatef("arrival-slot", "arrival seq %d holds free slot %d", ev.seq, ev.h))
		case slotRef[ev.h]:
			errs = append(errs, violatef("arrival-slot", "two arrivals share slot %d", ev.h))
		default:
			slotRef[ev.h] = true
		}
	}
	if live := len(e.arrivals) - len(e.arrFree); live != arrivals {
		errs = append(errs, violatef("arrival-slot", "%d live slots for %d arrival events", live, arrivals))
	}

	// Scheduler mirrors: on the incremental path pendBuf shadows the
	// queue entry for entry and runOrd holds exactly the live set in
	// ascending (EstEnd, handle) order.
	if e.trackPend {
		if q := e.pending(); len(e.pendBuf) != len(q) {
			errs = append(errs, violatef("pend-mirror", "pendBuf holds %d entries, queue %d", len(e.pendBuf), len(q)))
		} else {
			for i, j := range q {
				if e.pendBuf[i].Size != j.Size || e.pendBuf[i].EstRuntime != j.Runtime {
					errs = append(errs, violatef("pend-mirror", "pendBuf[%d]=%+v disagrees with queue job %+v", i, e.pendBuf[i], j))
					break
				}
			}
		}
	}
	if e.trackRun {
		if len(e.runOrd) != live || len(e.runOrdH) != len(e.runOrd) {
			errs = append(errs, violatef("run-mirror", "runOrd holds %d entries for %d live jobs", len(e.runOrd), live))
		} else {
			seen := make(map[int32]bool, live)
			for i, h := range e.runOrdH {
				if h < 0 || int(h) >= len(s.inUse) || !s.inUse[h] || s.dead[h] {
					errs = append(errs, violatef("run-mirror", "runOrd[%d] references non-live handle %d", i, h))
					continue
				}
				seen[h] = true
				if e.runOrd[i].EstEnd != s.estEnd[h] || e.runOrd[i].Size != s.job[h].Size {
					errs = append(errs, violatef("run-mirror", "runOrd[%d]=%+v disagrees with handle %d", i, e.runOrd[i], h))
				}
				if i > 0 && (e.runOrd[i-1].EstEnd > e.runOrd[i].EstEnd ||
					(e.runOrd[i-1].EstEnd == e.runOrd[i].EstEnd && e.runOrdH[i-1] > h)) {
					errs = append(errs, violatef("run-order", "runOrd[%d..%d] out of (EstEnd, handle) order", i-1, i))
				}
			}
			if len(seen) != len(e.runOrdH) {
				errs = append(errs, violatef("run-mirror", "runOrd repeats a handle"))
			}
		}
	}

	// Fault state: flags, masks and ownership must agree — a node is
	// masked exactly when it is flagged unavailable and unoccupied, and
	// the owner map mirrors the live jobs' node sets both ways.
	if e.faults != nil {
		flagged, maskedN := 0, 0
		for n := range e.down {
			if e.down[n] || e.drained[n] {
				flagged++
			}
			if e.masked[n] {
				maskedN++
			}
			want := (e.down[n] || e.drained[n]) && e.owner[n] < 0
			if e.masked[n] != want {
				errs = append(errs, violatef("fault-mask",
					"node %d: masked=%v with down=%v drained=%v owner=%d", n, e.masked[n], e.down[n], e.drained[n], e.owner[n]))
			}
		}
		if flagged != e.flagged {
			errs = append(errs, violatef("fault-flagged", "counted %d flagged nodes, cached %d", flagged, e.flagged))
		}
		if maskedN != e.maskedN {
			errs = append(errs, violatef("fault-masked", "counted %d masked nodes, cached %d", maskedN, e.maskedN))
		}
		owned := 0
		for h := range s.inUse {
			if !s.inUse[h] || s.dead[h] {
				continue
			}
			for _, id := range s.nodes[h] {
				owned++
				if id < 0 || id >= len(e.owner) || e.owner[id] != int32(h) {
					errs = append(errs, violatef("owner-map", "node %d of handle %d has owner %d", id, h, e.owner[id]))
				}
			}
		}
		for n, h := range e.owner {
			if h >= 0 {
				owned--
				if int(h) >= len(s.inUse) || !s.inUse[h] || s.dead[h] {
					errs = append(errs, violatef("owner-map", "node %d owned by non-live handle %d", n, h))
				}
			}
		}
		if owned != 0 {
			errs = append(errs, violatef("owner-map", "owner map and job node sets disagree by %d nodes", owned))
		}
	}

	// Job conservation: every run instance created — a Submit or a retry
	// resubmission — is, at any instant, exactly one of: an arrival
	// event still queued, a pending queue entry, a running job, a
	// finished job, or a kill victim (whose successor instance, if the
	// policy granted one, is counted under retried). A job RunSource
	// holds past the horizon is not yet submitted.
	if in, out := e.submitted+e.retried, arrivals+e.Pending()+live+e.finished+e.killed; in != out {
		errs = append(errs, violatef("job-conservation",
			"%d submitted + %d retried != %d arrival events + %d queued + %d running + %d finished + %d killed",
			e.submitted, e.retried, arrivals, e.Pending(), live, e.finished, e.killed))
	}
	if e.killed != e.retried+e.givenUp {
		errs = append(errs, violatef("kill-split",
			"%d kills != %d retried + %d given up", e.killed, e.retried, e.givenUp))
	}

	return errors.Join(errs...)
}

// rebuildDerived reconstructs every derived index from the engine's
// authoritative state: the allocator's occupancy structures from the
// live jobs' node sets, the fault masks from the availability flags and
// ownership, and the scheduler's incremental mirrors from queue and
// store. It is idempotent — the restore path calls it once normally and
// once more as a last-resort repair when the post-restore audit fails —
// and returns an error (never panics) on state no allocator can hold.
func (e *Engine) rebuildDerived() (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("sim: derived-state rebuild failed: %v", r)
		}
	}()
	occ, ok := e.allocator.(alloc.Occupier)
	if !ok {
		return fmt.Errorf("sim: allocator %s cannot re-occupy nodes on restore", e.allocator.Name())
	}
	e.allocator.Reset()
	s := &e.store

	// Validate the node sets as a whole before touching the allocator:
	// ids in range and no processor claimed twice.
	size := e.grid.Size()
	claimed := make([]bool, size)
	busy := 0
	for h := range s.inUse {
		if !s.inUse[h] || s.dead[h] {
			continue
		}
		for _, id := range s.nodes[h] {
			if id < 0 || id >= size {
				return fmt.Errorf("sim: handle %d claims node %d outside [0,%d)", h, id, size)
			}
			if claimed[id] {
				return fmt.Errorf("sim: node %d claimed by two jobs", id)
			}
			claimed[id] = true
		}
		busy += s.job[h].Size
	}
	e.busyProcs = busy

	// Re-occupy in ascending handle order (deterministic, and for Buddy
	// any order reconstructs the same quadtree: eager coalescing makes
	// the free set a pure function of the allocated set).
	for h := range s.inUse {
		if s.inUse[h] && !s.dead[h] {
			occ.Occupy(s.nodes[h])
		}
	}

	// Fault-derived state: the owner map from the node sets, then the
	// mask for every flagged-and-unoccupied node. Flags themselves are
	// authoritative (restored from the snapshot).
	if e.faults != nil {
		for n := range e.owner {
			e.owner[n] = -1
			e.masked[n] = false
		}
		e.maskedN, e.flagged = 0, 0
		for h := range s.inUse {
			if !s.inUse[h] || s.dead[h] {
				continue
			}
			for _, id := range s.nodes[h] {
				e.owner[id] = int32(h)
			}
		}
		for n := range e.down {
			if e.down[n] || e.drained[n] {
				e.flagged++
				if e.owner[n] < 0 {
					e.faultable.MarkDown(n)
					e.masked[n] = true
					e.maskedN++
				}
			}
		}
	}

	// Scheduler mirrors.
	if e.trackPend {
		e.pendBuf = e.pendBuf[:0]
		for _, j := range e.pending() {
			e.pendBuf = append(e.pendBuf, sched.Pending{Size: j.Size, EstRuntime: j.Runtime})
		}
	}
	if e.trackRun {
		e.runOrd, e.runOrdH = e.runOrd[:0], e.runOrdH[:0]
		var hs []int32
		for h := range s.inUse {
			if s.inUse[h] && !s.dead[h] {
				hs = append(hs, int32(h))
			}
		}
		sort.Slice(hs, func(i, j int) bool {
			a, b := hs[i], hs[j]
			if s.estEnd[a] != s.estEnd[b] {
				return s.estEnd[a] < s.estEnd[b]
			}
			return a < b
		})
		for _, h := range hs {
			e.runOrd = append(e.runOrd, sched.Running{Size: s.job[h].Size, EstEnd: s.estEnd[h]})
			e.runOrdH = append(e.runOrdH, h)
		}
	}
	// The watermark is only ever an optimization; a cleared watermark is
	// always safe, and restore re-applies the snapshot's value after the
	// rebuild when it was armed.
	if !e.canBlock {
		e.blocked = false
	}
	return nil
}

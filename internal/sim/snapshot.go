package sim

import (
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"sort"

	"meshalloc/internal/alloc"
	"meshalloc/internal/comm"
	"meshalloc/internal/fault"
	"meshalloc/internal/netsim"
	"meshalloc/internal/snap"
	"meshalloc/internal/stats"
	"meshalloc/internal/trace"
)

// ErrConfigMismatch is returned (wrapped) by RestoreEngine when the
// snapshot was taken under a semantically different Config than the one
// the restore supplies. Fields that cannot change outcomes —
// AllocWorkers, RebuildSched, NaiveMetrics, AuditEvery — are excluded
// from the comparison, so a run may legally resume under a different
// worker count or scheduler-state path.
var ErrConfigMismatch = errors.New("sim: snapshot was taken under a different configuration")

// cfgFingerprint hashes the semantic configuration fields — the ones
// that determine the event sequence and outputs. cfg must already have
// defaults applied so "" and "fcfs" schedulers hash identically.
func cfgFingerprint(cfg Config) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%v|%v|%s|%s|%v|%v|%d|%+v|%s|%d|%v|%d|%d|%d|%+v|%+v",
		cfg.dims(), cfg.Torus, cfg.Alloc, cfg.Pattern, cfg.Load, cfg.TimeScale,
		cfg.Seed, cfg.Net, cfg.Scheduler, cfg.Issue, cfg.MsgsPerSecond,
		cfg.MaxPhase, cfg.KeepRecords, cfg.KeepNodes, cfg.Faults, cfg.Retry)
	return h.Sum64()
}

func writeJob(w *snap.Writer, j trace.Job) {
	w.Int(j.ID)
	w.Int(j.Size)
	w.F64(j.Arrival)
	w.F64(j.Runtime)
}

func (e *Engine) readJob(r *snap.Reader) (trace.Job, error) {
	j := trace.Job{ID: r.Int(), Size: r.Int(), Arrival: r.F64(), Runtime: r.F64()}
	if r.Err() != nil {
		return j, r.Err()
	}
	if j.Size <= 0 || j.Size > e.grid.Size() {
		return j, fmt.Errorf("sim: job %d size %d outside (0,%d]: %w", j.ID, j.Size, e.grid.Size(), snap.ErrCorrupt)
	}
	if !finite(j.Arrival) || !finite(j.Runtime) {
		return j, fmt.Errorf("sim: job %d has non-finite times: %w", j.ID, snap.ErrCorrupt)
	}
	return j, nil
}

func finite(f float64) bool { return !math.IsNaN(f) && !math.IsInf(f, 0) }

// Snapshot serializes the engine's authoritative state — clock, streaming
// aggregates, the job store, the event heap, the pending queue, RNG
// stream positions, fault and network state, and (under the Keep policy)
// the retained records — as one versioned, checksummed binary blob.
// Derived indexes (allocator occupancy structures, fault masks, the
// scheduler's incremental mirrors) are not serialized; RestoreEngine
// rebuilds them. The engine must be between events: Snapshot is safe
// from a checkpoint hook (SetCheckpoint), between Step calls, or after
// RunUntil/RunSource returns.
//
// A run resumed from a snapshot replays the exact event sequence the
// uninterrupted run would have: every record, digest and aggregate is
// bit-identical.
func (e *Engine) Snapshot(out io.Writer) error {
	w := snap.NewWriter()
	w.U64(cfgFingerprint(e.cfg))

	// Clock, sequence and streaming aggregates.
	w.F64(e.now)
	w.I64(e.seq)
	w.Int(e.finished)
	w.F64(e.respSum)
	w.Int(e.totalComps)
	w.Int(e.contig)
	w.F64(e.makespan)
	w.Int(e.busyProcs)
	w.F64(e.lastAccount)
	w.F64(e.busyArea)
	w.F64(e.queueArea)
	w.Int(e.killed)
	w.Int(e.retried)
	w.Int(e.givenUp)
	w.Int(e.submitted)
	w.F64(e.wastedArea)
	w.F64(e.downArea)
	w.Bool(e.blocked)

	// Event-core profiling counters, so CoreStats survives a resume.
	w.I64(e.core.Events)
	w.I64(e.core.Arrivals)
	w.I64(e.core.Steps)
	w.I64(e.core.Finishes)
	w.I64(e.core.FaultEvents)
	w.I64(e.core.SchedRounds)
	w.I64(e.core.SchedSkips)

	// The P² median estimator and the engine RNG position.
	ps := e.respMedian.State()
	w.F64(ps.P)
	w.Int(ps.N)
	for i := 0; i < 5; i++ {
		w.F64(ps.Q[i])
		w.F64(ps.Pos[i])
		w.F64(ps.Des[i])
		w.F64(ps.Inc[i])
	}
	w.Int(len(ps.Boot))
	for _, v := range ps.Boot {
		w.F64(v)
	}
	w.U64(e.rng.Pos())

	// Job store: per-handle flags, live rows in full, and the pool free
	// list verbatim — recycle order decides future handle assignment,
	// which feeds event identity and scheduler tie-breaks.
	s := &e.store
	w.Int(len(s.job))
	for h := range s.job {
		w.Bool(s.inUse[h])
		w.Bool(s.dead[h])
		if !s.inUse[h] || s.dead[h] {
			continue
		}
		writeJob(w, s.job[h])
		w.Int(len(s.nodes[h]))
		for _, id := range s.nodes[h] {
			w.Int(id)
		}
		gs, err := comm.StateOf(s.gen[h])
		if err != nil {
			return err
		}
		w.String(gs.Kind)
		w.String(gs.Pattern)
		w.Int(gs.P)
		w.Int(gs.Phase)
		w.Int(gs.Idx)
		w.Int(gs.Count)
		w.I64(s.quota[h])
		w.I64(s.sent[h])
		w.I64(s.hops[h])
		w.F64(s.start[h])
		w.F64(s.lastArr[h])
		w.F64(s.queued[h])
		w.F64(s.estEnd[h])
		w.Int(s.pending[h].Src)
		w.Int(s.pending[h].Dst)
		w.Bool(s.havePend[h])
	}
	w.Int(len(s.free))
	for _, h := range s.free {
		w.Int(int(h))
	}

	// The pending FCFS queue and the event heap. Events are written in
	// heap-array order; each carries its assigned seq, so any order
	// restores an equivalent heap. An arrival writes handle 0 and its
	// job inline (slab slots are not state), every other event its
	// handle and a zero job.
	w.Int(e.Pending())
	for _, j := range e.pending() {
		writeJob(w, j)
	}
	w.Int(len(e.events))
	for _, ev := range e.events {
		w.F64(ev.t)
		w.I64(ev.seq)
		w.Int(int(ev.kind))
		if ev.kind == kindArrival {
			w.Int(0)
			writeJob(w, e.arrivals[ev.h])
		} else {
			w.Int(int(ev.h))
			writeJob(w, trace.Job{})
		}
	}
	w.Bool(e.hasHeld)
	if e.hasHeld {
		writeJob(w, e.held)
	}

	// Fault-injection state: availability flags, retry bookkeeping, the
	// pending stream head, and the per-node failure-clock positions.
	// Presence is decided by the config (covered by the fingerprint),
	// so writer and reader always agree on whether this block exists.
	if e.faults != nil {
		for n := range e.down {
			w.Bool(e.down[n])
			w.Bool(e.drained[n])
		}
		ids := make([]int, 0, len(e.killCount))
		for id := range e.killCount {
			ids = append(ids, id)
		}
		sort.Ints(ids)
		w.Int(len(ids))
		for _, id := range ids {
			w.Int(id)
			w.Int(e.killCount[id])
		}
		w.Bool(e.hasFault)
		if e.hasFault {
			w.F64(e.nextFault.T)
			w.Int(e.nextFault.Node)
			w.Int(int(e.nextFault.Kind))
		}
		fs := e.faults.State()
		w.Int(fs.ScriptAt)
		w.Int(len(fs.Clocks))
		for _, c := range fs.Clocks {
			w.F64(c.T)
			w.Int(c.Node)
			w.Bool(c.Down)
			w.U64(c.RNG)
		}
	}

	// Network link state and aggregate stats.
	ns := e.net.State()
	w.Int(len(ns.FreeAt))
	for _, v := range ns.FreeAt {
		w.F64(v)
	}
	w.Int(len(ns.BusyTime))
	for _, v := range ns.BusyTime {
		w.F64(v)
	}
	w.I64(ns.Stats.Messages)
	w.I64(ns.Stats.TotalHops)
	w.F64(ns.Stats.TotalDistSec)
	w.F64(ns.Stats.TotalQueueSec)
	w.F64(ns.Clock)

	// Allocator aux words (NextFit cursor, allocator RNG position, ...).
	if ax, ok := e.allocator.(alloc.AuxState); ok {
		words := ax.AuxState()
		w.Int(len(words))
		for _, v := range words {
			w.U64(v)
		}
	} else {
		w.Int(0)
	}

	// Retained records under the Keep policy.
	if e.cfg.KeepRecords == Keep {
		w.Int(len(e.records))
		for i := range e.records {
			rec := &e.records[i]
			w.Int(rec.ID)
			w.Int(rec.Size)
			w.I64(rec.Quota)
			w.F64(rec.Arrival)
			w.F64(rec.Start)
			w.F64(rec.Finish)
			w.F64(rec.Response)
			w.F64(rec.RunTime)
			w.F64(rec.Wait)
			w.F64(rec.AvgPairwise)
			w.F64(rec.AvgMsgDist)
			w.F64(rec.QueuedSec)
			w.Int(rec.Components)
			w.Bool(rec.Contiguous)
			w.Bool(rec.Nodes != nil)
			if rec.Nodes != nil {
				w.Int(len(rec.Nodes))
				for _, id := range rec.Nodes {
					w.Int(id)
				}
			}
		}
	}

	return w.Flush(out)
}

// RestoreEngine reads a Snapshot blob and returns an engine that resumes
// the run exactly where the snapshot left it: the subsequent event
// sequence, records and aggregates are bit-identical to the run that
// never stopped. cfg must match the snapshotting run's semantic
// configuration (ErrConfigMismatch otherwise); the outcome-neutral
// fields — AllocWorkers, RebuildSched, NaiveMetrics, AuditEvery — may
// differ freely.
//
// Corrupt input is rejected with a typed error, never a panic:
// snap.ErrBadMagic, snap.ErrVersion or snap.ErrChecksum for a damaged
// container, snap.ErrCorrupt (wrapped) for a container whose payload
// decodes to impossible state. After the payload is installed, every
// derived index is rebuilt and the invariant auditor runs; if it finds a
// violation the rebuild is retried from scratch once before the restore
// is abandoned with the audit error.
func RestoreEngine(in io.Reader, cfg Config) (*Engine, error) {
	r, err := snap.NewReader(in)
	if err != nil {
		return nil, err
	}
	e, err := NewEngine(cfg)
	if err != nil {
		return nil, err
	}
	if got, want := r.U64(), cfgFingerprint(e.cfg); r.Err() == nil && got != want {
		return nil, fmt.Errorf("sim: snapshot fingerprint %016x, config fingerprint %016x: %w",
			got, want, ErrConfigMismatch)
	}

	e.now = r.F64()
	e.seq = r.I64()
	e.finished = r.Int()
	e.respSum = r.F64()
	e.totalComps = r.Int()
	e.contig = r.Int()
	e.makespan = r.F64()
	e.busyProcs = r.Int()
	e.lastAccount = r.F64()
	e.busyArea = r.F64()
	e.queueArea = r.F64()
	e.killed = r.Int()
	e.retried = r.Int()
	e.givenUp = r.Int()
	e.submitted = r.Int()
	e.wastedArea = r.F64()
	e.downArea = r.F64()
	blocked := r.Bool()
	if r.Err() == nil && (!finite(e.now) || e.now < 0 || e.seq < 0 || e.finished < 0 ||
		e.killed < 0 || e.retried < 0 || e.givenUp < 0 || e.submitted < 0 || e.busyProcs < 0) {
		return nil, fmt.Errorf("sim: negative or non-finite engine counters: %w", snap.ErrCorrupt)
	}

	e.core.Events = r.I64()
	e.core.Arrivals = r.I64()
	e.core.Steps = r.I64()
	e.core.Finishes = r.I64()
	e.core.FaultEvents = r.I64()
	e.core.SchedRounds = r.I64()
	e.core.SchedSkips = r.I64()

	var ps stats.P2State
	ps.P = r.F64()
	ps.N = r.Int()
	for i := 0; i < 5; i++ {
		ps.Q[i] = r.F64()
		ps.Pos[i] = r.F64()
		ps.Des[i] = r.F64()
		ps.Inc[i] = r.F64()
	}
	nboot := r.Count(8)
	for i := 0; i < nboot && r.Err() == nil; i++ {
		ps.Boot = append(ps.Boot, r.F64())
	}
	if r.Err() == nil {
		e.respMedian.SetState(ps)
	}
	if err := e.rng.SkipTo(r.U64()); err != nil && r.Err() == nil {
		return nil, fmt.Errorf("sim: %v: %w", err, snap.ErrCorrupt)
	}

	// Job store.
	s := &e.store
	nh := r.Count(1 << 31)
	for h := 0; h < nh && r.Err() == nil; h++ {
		inUse, dead := r.Bool(), r.Bool()
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
		s.dead = append(s.dead, dead)
		s.inUse = append(s.inUse, inUse)
		if !inUse || dead {
			continue
		}
		s.live++
		j, err := e.readJob(r)
		if err != nil {
			return nil, err
		}
		s.job[h] = j
		nn := r.Count(e.grid.Size())
		if r.Err() == nil && nn != j.Size {
			return nil, fmt.Errorf("sim: handle %d holds %d nodes for a %d-processor job: %w",
				h, nn, j.Size, snap.ErrCorrupt)
		}
		ids := make([]int, 0, nn)
		for i := 0; i < nn && r.Err() == nil; i++ {
			ids = append(ids, r.Int())
		}
		s.nodes[h] = ids
		gs := comm.GenState{
			Kind: r.String(), Pattern: r.String(),
			P: r.Int(), Phase: r.Int(), Idx: r.Int(), Count: r.Int(),
		}
		if r.Err() == nil {
			gen, err := comm.RestoreGen(gs, e.pattern, e.rng)
			if err != nil {
				return nil, fmt.Errorf("sim: handle %d: %v: %w", h, err, snap.ErrCorrupt)
			}
			s.gen[h] = gen
		}
		s.quota[h] = r.I64()
		s.sent[h] = r.I64()
		s.hops[h] = r.I64()
		s.start[h] = r.F64()
		s.lastArr[h] = r.F64()
		s.queued[h] = r.F64()
		s.estEnd[h] = r.F64()
		s.pending[h] = comm.Msg{Src: r.Int(), Dst: r.Int()}
		s.havePend[h] = r.Bool()
		if r.Err() == nil && !(finite(s.start[h]) && finite(s.lastArr[h]) && finite(s.estEnd[h])) {
			return nil, fmt.Errorf("sim: handle %d has non-finite times: %w", h, snap.ErrCorrupt)
		}
	}
	nf := r.Count(nh)
	for i := 0; i < nf && r.Err() == nil; i++ {
		fh := r.Int()
		if r.Err() == nil && (fh < 0 || fh >= nh) {
			return nil, fmt.Errorf("sim: free-list handle %d outside [0,%d): %w", fh, nh, snap.ErrCorrupt)
		}
		s.free = append(s.free, int32(fh))
	}

	// Pending queue and event heap.
	nq := r.Count(1 << 31)
	for i := 0; i < nq && r.Err() == nil; i++ {
		j, err := e.readJob(r)
		if err != nil {
			return nil, err
		}
		e.queue = append(e.queue, j)
	}
	ne := r.Count(1 << 31)
	for i := 0; i < ne && r.Err() == nil; i++ {
		t, seq, kind, h := r.F64(), r.I64(), r.Int(), r.Int()
		ev := event{t: t, seq: seq, kind: int32(kind), h: int32(h)}
		if kind == kindArrival {
			j, err := e.readJob(r)
			if err != nil {
				return nil, err
			}
			ev.h = e.parkArrival(j)
		} else {
			// Non-arrival events carry a zero job; skip its fields.
			if _, err := e.readJob(r); err != nil && r.Err() != nil {
				return nil, r.Err()
			}
			if r.Err() == nil && (h < 0 || h >= nh) {
				return nil, fmt.Errorf("sim: event handle %d outside [0,%d): %w", h, nh, snap.ErrCorrupt)
			}
		}
		if r.Err() != nil {
			break
		}
		if !finite(ev.t) || ev.t < e.now || ev.seq < 0 || ev.seq >= e.seq {
			return nil, fmt.Errorf("sim: event (t=%v seq=%d) inconsistent with clock %v seq %d: %w",
				ev.t, ev.seq, e.now, e.seq, snap.ErrCorrupt)
		}
		if kind < kindArrival || kind > kindFinish {
			return nil, fmt.Errorf("sim: unknown event kind %d: %w", kind, snap.ErrCorrupt)
		}
		e.events.push(ev)
	}
	e.hasHeld = r.Bool()
	if e.hasHeld && r.Err() == nil {
		j, err := e.readJob(r)
		if err != nil {
			return nil, err
		}
		e.held = j
	}

	// Fault state.
	if e.faults != nil {
		for n := range e.down {
			e.down[n] = r.Bool()
			e.drained[n] = r.Bool()
		}
		nk := r.Count(1 << 31)
		for i := 0; i < nk && r.Err() == nil; i++ {
			id, kills := r.Int(), r.Int()
			if r.Err() == nil && kills <= 0 {
				return nil, fmt.Errorf("sim: job %d recorded %d kills: %w", id, kills, snap.ErrCorrupt)
			}
			e.killCount[id] = kills
		}
		e.hasFault = r.Bool()
		if e.hasFault && r.Err() == nil {
			e.nextFault = fault.Event{T: r.F64(), Node: r.Int(), Kind: fault.Kind(r.Int())}
			if r.Err() == nil && (!finite(e.nextFault.T) ||
				e.nextFault.Node < 0 || e.nextFault.Node >= e.grid.Size() ||
				e.nextFault.Kind > fault.NodeUndrain) {
				return nil, fmt.Errorf("sim: pending fault event %+v invalid: %w", e.nextFault, snap.ErrCorrupt)
			}
		}
		var fs fault.State
		fs.ScriptAt = r.Int()
		nc := r.Count(e.grid.Size())
		for i := 0; i < nc && r.Err() == nil; i++ {
			c := fault.ClockState{T: r.F64(), Node: r.Int(), Down: r.Bool(), RNG: r.U64()}
			if r.Err() == nil && (!finite(c.T) || c.Node < 0 || c.Node >= e.grid.Size()) {
				return nil, fmt.Errorf("sim: fault clock %+v invalid: %w", c, snap.ErrCorrupt)
			}
			fs.Clocks = append(fs.Clocks, c)
		}
		if r.Err() == nil {
			if err := e.faults.SetState(fs); err != nil {
				return nil, fmt.Errorf("sim: %v: %w", err, snap.ErrCorrupt)
			}
		}
	}

	// Network state.
	var ns netsim.State
	nl := r.Count(1 << 31)
	for i := 0; i < nl && r.Err() == nil; i++ {
		ns.FreeAt = append(ns.FreeAt, r.F64())
	}
	nb := r.Count(1 << 31)
	for i := 0; i < nb && r.Err() == nil; i++ {
		ns.BusyTime = append(ns.BusyTime, r.F64())
	}
	ns.Stats.Messages = r.I64()
	ns.Stats.TotalHops = r.I64()
	ns.Stats.TotalDistSec = r.F64()
	ns.Stats.TotalQueueSec = r.F64()
	ns.Clock = r.F64()
	if r.Err() == nil {
		if err := e.net.SetState(ns); err != nil {
			return nil, fmt.Errorf("sim: %v: %w", err, snap.ErrCorrupt)
		}
	}

	// Allocator aux words. They are applied after rebuildDerived — the
	// rebuild begins with allocator.Reset, which clears exactly the
	// cursors these words restore.
	nw := r.Count(64)
	var auxWords []uint64
	for i := 0; i < nw && r.Err() == nil; i++ {
		auxWords = append(auxWords, r.U64())
	}
	applyAux := func() error {
		if len(auxWords) == 0 {
			return nil
		}
		ax, ok := e.allocator.(alloc.AuxState)
		if !ok {
			return fmt.Errorf("sim: allocator %s holds no aux state but the snapshot carries %d words: %w",
				e.allocator.Name(), len(auxWords), snap.ErrCorrupt)
		}
		if err := ax.SetAuxState(auxWords); err != nil {
			return fmt.Errorf("sim: %v: %w", err, snap.ErrCorrupt)
		}
		return nil
	}

	// Retained records.
	if e.cfg.KeepRecords == Keep {
		nr := r.Count(1 << 31)
		for i := 0; i < nr && r.Err() == nil; i++ {
			rec := JobRecord{
				ID: r.Int(), Size: r.Int(), Quota: r.I64(),
				Arrival: r.F64(), Start: r.F64(), Finish: r.F64(),
				Response: r.F64(), RunTime: r.F64(), Wait: r.F64(),
				AvgPairwise: r.F64(), AvgMsgDist: r.F64(), QueuedSec: r.F64(),
				Components: r.Int(), Contiguous: r.Bool(),
			}
			if r.Bool() {
				nn := r.Count(e.grid.Size())
				rec.Nodes = make([]int, 0, nn)
				for k := 0; k < nn && r.Err() == nil; k++ {
					rec.Nodes = append(rec.Nodes, r.Int())
				}
			}
			e.records = append(e.records, rec)
		}
	}

	if err := r.Err(); err != nil {
		return nil, err
	}
	if r.Remaining() != 0 {
		return nil, fmt.Errorf("sim: %d bytes of trailing payload: %w", r.Remaining(), snap.ErrCorrupt)
	}

	// Rebuild every derived index from the authoritative state, audit,
	// and — should the audit fail — rebuild once more from scratch
	// before giving up. rebuildDerived converts allocator panics on
	// impossible (but checksum-valid) state into errors.
	if err := e.rebuildDerived(); err != nil {
		return nil, fmt.Errorf("%v: %w", err, snap.ErrCorrupt)
	}
	if err := applyAux(); err != nil {
		return nil, err
	}
	e.blocked = blocked && e.canBlock
	if err := e.Audit(); err != nil {
		if rerr := e.rebuildDerived(); rerr != nil {
			return nil, fmt.Errorf("%v: %w", rerr, snap.ErrCorrupt)
		}
		if rerr := applyAux(); rerr != nil {
			return nil, rerr
		}
		e.blocked = blocked && e.canBlock
		if err := e.Audit(); err != nil {
			return nil, fmt.Errorf("sim: restored state failed the invariant audit: %v: %w", err, snap.ErrCorrupt)
		}
	}
	return e, nil
}

package sim

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"meshalloc/internal/alloc"
	"meshalloc/internal/comm"
	"meshalloc/internal/fault"
	"meshalloc/internal/netsim"
	"meshalloc/internal/sched"
	"meshalloc/internal/stats"
	"meshalloc/internal/topo"
	"meshalloc/internal/trace"
)

// Observer receives each finished job's record the moment it completes,
// before the retention policy applies: observers see every record even
// when Config.KeepRecords is Discard, which is how results stream out
// of a constant-memory run.
type Observer func(JobRecord)

// DeltaObserver receives the node-id delta of every occupancy change:
// the ids a starting job just received (allocated true) or a finishing
// job just returned (allocated false), with the scaled simulation time
// of the change. Deltas are exactly the invalidation sets incremental
// consumers need — a caching scorer or an external mirror of the
// free-map updates only the changed region instead of re-reading the
// machine. The ids slice is the engine's own and must not be retained
// or mutated past the call.
type DeltaObserver func(now float64, ids []int, allocated bool)

// event is one entry of the event heap: 24 bytes, pointer-free. Running
// jobs are referenced by jobStore handle and queued arrivals by their
// slot in the engine's arrival slab, so the heap — however deep a run
// makes it — contributes nothing to GC scan work and a sift moves three
// words per level.
type event struct {
	t    float64
	seq  int64 // FIFO tie-break for determinism
	kind int32 // kindArrival, kindStep or kindFinish
	h    int32 // jobStore handle (step, finish) or arrival slot (arrival)
}

const (
	kindArrival = iota
	kindStep
	kindFinish
)

func sortedCopy(ids []int) []int {
	out := append([]int(nil), ids...)
	sort.Ints(out)
	return out
}

// before is the event order: time, then the FIFO sequence number. Keys
// are unique, so every valid heap pops the same sequence.
func (a event) before(b event) bool {
	return a.t < b.t || (a.t == b.t && a.seq < b.seq)
}

// eventHeap is a hand-rolled binary min-heap of events ordered by (t,
// seq). container/heap would box every pushed and popped event into an
// interface — one garbage allocation per simulated event, right on the
// hottest loop of the simulator — so the sifts are written out against
// the concrete slice, moving a hole instead of swapping. replaceTop
// lets the engine reschedule a running job's next step with a single
// sift-down instead of a pop followed by a push.
type eventHeap []event

func (h *eventHeap) push(ev event) {
	s := append(*h, ev)
	i := len(s) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !ev.before(s[p]) {
			break
		}
		s[i] = s[p]
		i = p
	}
	s[i] = ev
	*h = s
}

func (h *eventHeap) pop() event {
	s := *h
	top := s[0]
	n := len(s) - 1
	if n > 0 {
		s[:n].siftDown(s[n])
	}
	*h = s[:n]
	return top
}

// replaceTop overwrites the earliest event with ev and restores the
// heap order: the fused pop-then-push of a live step.
func (h eventHeap) replaceTop(ev event) { h.siftDown(ev) }

// siftDown places ev at the root's hole and sinks it to its position.
func (h eventHeap) siftDown(ev event) {
	n := len(h)
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && h[r].before(h[c]) {
			c = r
		}
		if !h[c].before(ev) {
			break
		}
		h[i] = h[c]
		i = c
	}
	h[i] = ev
}

// disorder returns the first index whose event sorts before its parent,
// or -1 when the heap order holds.
func (h eventHeap) disorder() int {
	for i := 1; i < len(h); i++ {
		if h[i].before(h[(i-1)/2]) {
			return i
		}
	}
	return -1
}

// Engine is the resumable discrete-event core of the simulator. Where
// the batch Run builds the world, replays one trace to completion and
// returns every record in memory, an Engine exposes the lifecycle
// directly: construct with NewEngine, inject jobs at any time with
// Submit (online submission — the clock may already be running),
// advance with Step, RunUntil or Drain, stream per-job records through
// Observe, and read streaming aggregates with Result at any point.
//
// With Config.KeepRecords/KeepNodes set to Discard, the engine holds
// O(machine + in-flight jobs) memory regardless of how many jobs pass
// through — the shape a million-job open-system run needs.
//
// The engine clock runs in scaled simulation time (original seconds
// compressed by Config.Load on arrivals and Config.TimeScale overall);
// records re-inflate to original seconds exactly as in Run.
type Engine struct {
	cfg       Config
	grid      *topo.Grid
	allocator alloc.Allocator
	// batcher is non-nil when the allocator supports batch allocation;
	// the FCFS dispatch then serves each runnable queue prefix in one
	// call. Results are bit-identical to one-at-a-time dispatch (see
	// scheduleFCFSBatch); tests null it out to compare both paths.
	batcher alloc.BatchAllocator
	pattern comm.Pattern
	policy  sched.Policy
	// sorted is non-nil when the policy exploits the end-time-ordered
	// running index (EASY); used only on the incremental path.
	sorted sched.SortedPolicy
	isFCFS bool
	isSJF  bool
	net    *netsim.Network
	rng    *stats.RNG

	events eventHeap
	seq    int64
	now    float64
	// arrivals is the slab holding the (already scaled) job of every
	// queued arrival event, indexed by the event's h; arrFree recycles
	// slots LIFO. A slot is taken when the arrival is pushed (Submit or
	// a retry) and freed when it pops.
	arrivals []trace.Job
	arrFree  []int32
	// queue holds the pending jobs in FCFS arrival order, already
	// scaled, as a head-offset deque: the live entries are
	// queue[qhead:] (see pending and dropHead).
	queue []trace.Job
	qhead int
	store jobStore // in-flight job state, SoA, handle-indexed

	// Scheduler-round state. On the incremental path (RebuildSched
	// false), pendBuf mirrors queue entry for entry (trackPend) and
	// runOrd/runOrdH hold the running set ordered by (EstEnd, handle)
	// (trackRun), both maintained at the events that change them instead
	// of rebuilt every round; runBuf only serves the rebuild reference
	// path. blocked is the head-blocked watermark: set when an FCFS/SJF
	// round ends without a dispatch, letting the next round short-
	// circuit in O(1), and invalidated only on release and fault
	// transitions (plus arrivals that can change the decision: any
	// arrival under SJF, an arrival into an empty queue under FCFS).
	// EASY never blocks — its backfill decisions depend on the clock.
	pendBuf   []sched.Pending
	runBuf    []sched.Running
	reqBuf    []alloc.Request
	runOrd    []sched.Running
	runOrdH   []int32
	trackPend bool
	trackRun  bool
	canBlock  bool
	blocked   bool

	// setScratch backs the counted per-finish dispersal metrics.
	setScratch topo.SetScratch
	core       stats.EventCoreStats

	observers []Observer
	deltaObs  []DeltaObserver
	records   []JobRecord

	// Streaming aggregates, updated at every finish so Result never
	// needs the retained records.
	finished   int
	respSum    float64
	respMedian *stats.P2Quantile
	totalComps int
	contig     int
	makespan   float64

	// Time-weighted occupancy accounting.
	busyProcs   int
	lastAccount float64
	busyArea    float64 // processor-seconds held by jobs
	queueArea   float64 // job-seconds spent queued

	// held buffers a job RunSource pulled from its source but not yet
	// submitted — because it arrives past the horizon, or because the
	// clock is still advancing toward its arrival. A later RunSource
	// call resumes with it instead of losing it, and a snapshot taken
	// mid-advance carries it.
	held    trace.Job
	hasHeld bool

	// submitted counts jobs accepted by Submit, the input side of the
	// job-conservation invariant Audit checks.
	submitted int

	// Periodic hooks, both driven by the count of processed events:
	// auditEvery runs Audit (panicking on violation, like every other
	// bookkeeping check), ckptEvery fires the checkpoint callback.
	auditEvery int64
	sinceAudit int64
	ckptEvery  int64
	sinceCkpt  int64
	ckptFn     func()

	// Fault-injection state; all nil/zero on a fault-free engine, and
	// every hot-path touch is gated on faults != nil so the fault-free
	// event loop is unchanged instruction for instruction.
	faults     *fault.Stream
	nextFault  fault.Event // pending head of the stream, time already scaled
	hasFault   bool
	faultable  alloc.FaultAware
	down       []bool      // hard-failed nodes
	drained    []bool      // administratively drained nodes
	masked     []bool      // nodes currently marked down in the allocator
	owner      []int32     // occupying job handle per node (-1 free), for O(1) kill lookup
	flagged    int         // count of down-or-drained nodes
	maskedN    int         // count of masked nodes
	killCount  map[int]int // kills per job ID, for retry bookkeeping
	maskBuf    [1]int      // single-node delta scratch for observers
	killed     int
	retried    int
	givenUp    int
	wastedArea float64 // processor-seconds consumed by later-killed jobs
	downArea   float64 // node-seconds masked out of service
}

// NewEngine validates cfg and builds an idle engine with an empty queue
// and the clock at zero.
func NewEngine(cfg Config) (*Engine, error) {
	cfg = cfg.withDefaults()
	dims := cfg.dims()
	if len(dims) < 1 || len(dims) > topo.MaxDims {
		return nil, fmt.Errorf("sim: machine needs 1..%d dimensions, got %d", topo.MaxDims, len(dims))
	}
	for i, d := range dims {
		if d <= 0 {
			return nil, fmt.Errorf("sim: invalid machine extent %d on axis %d", d, i)
		}
	}
	if err := cfg.Net.Validate(); err != nil {
		return nil, err
	}
	var m *topo.Grid
	if cfg.Torus {
		m = topo.NewTorus(dims)
	} else {
		m = topo.New(dims)
	}
	allocator, err := alloc.Spec(m, cfg.Alloc, cfg.Seed)
	if err != nil {
		return nil, err
	}
	if cfg.AllocWorkers > 1 {
		if ps, ok := allocator.(alloc.ParallelScorer); ok {
			ps.SetParallelism(cfg.AllocWorkers)
		}
	}
	pattern, err := comm.ByName(cfg.Pattern)
	if err != nil {
		return nil, err
	}
	// Same-size jobs share one immutable phase schedule for the run.
	pattern = comm.Cached(pattern)
	policy, err := sched.ByName(cfg.Scheduler)
	if err != nil {
		return nil, err
	}
	if cfg.AuditEvery < 0 {
		return nil, fmt.Errorf("sim: AuditEvery must be >= 0, got %d", cfg.AuditEvery)
	}
	_, isFCFS := policy.(sched.FCFS)
	_, isSJF := policy.(sched.SJF)
	batcher, _ := allocator.(alloc.BatchAllocator)
	e := &Engine{
		cfg:        cfg,
		grid:       m,
		allocator:  allocator,
		batcher:    batcher,
		pattern:    pattern,
		policy:     policy,
		isFCFS:     isFCFS,
		isSJF:      isSJF,
		net:        netsim.New(m, cfg.Net),
		rng:        stats.NewRNG(cfg.Seed),
		respMedian: stats.NewP2Quantile(0.5),
		auditEvery: int64(cfg.AuditEvery),
	}
	if !cfg.RebuildSched {
		e.trackPend = !isFCFS
		e.trackRun = !isFCFS
		e.canBlock = isFCFS || isSJF
		e.sorted, _ = policy.(sched.SortedPolicy)
	}
	if cfg.Faults.Enabled() {
		if err := e.initFaults(); err != nil {
			return nil, err
		}
	}
	return e, nil
}

// initFaults validates the fault configuration and arms the engine's
// fault state. The failure clocks default to the run seed so a plain
// Config{Seed: s, Faults: ...} is fully determined by s.
func (e *Engine) initFaults() error {
	fc := e.cfg.Faults
	if fc.Seed == 0 {
		fc.Seed = e.cfg.Seed
	}
	fa, ok := e.allocator.(alloc.FaultAware)
	if !ok {
		return fmt.Errorf("sim: allocator %s cannot mask failed nodes; fault injection needs a FaultAware allocator (mc, mc1x1, genalg, random, submesh, or a curve/strategy form without a page suffix)",
			e.allocator.Name())
	}
	if err := e.cfg.Retry.Validate(); err != nil {
		return err
	}
	s, err := fault.NewStream(fc, e.grid.Size())
	if err != nil {
		return err
	}
	n := e.grid.Size()
	e.faults = s
	e.faultable = fa
	e.down = make([]bool, n)
	e.drained = make([]bool, n)
	e.masked = make([]bool, n)
	e.owner = make([]int32, n)
	for i := range e.owner {
		e.owner[i] = -1
	}
	e.killCount = map[int]int{}
	e.advanceFault()
	return nil
}

// advanceFault pulls the next stream event into the pending slot,
// contracting its time by TimeScale exactly as job runtimes are (node
// lifetimes are machine wall clock, so Load — an arrival-rate knob —
// does not apply).
func (e *Engine) advanceFault() {
	ev, ok := e.faults.Next()
	if !ok {
		e.hasFault = false
		return
	}
	ev.T *= e.cfg.TimeScale
	e.nextFault, e.hasFault = ev, true
}

// Observe registers fn to be called with every finished job's record,
// in finish order. Observers registered later are called later.
func (e *Engine) Observe(fn Observer) {
	e.observers = append(e.observers, fn)
}

// ObserveDeltas registers fn to be called with every allocate/release
// node delta, in event order. Registration order is call order.
func (e *Engine) ObserveDeltas(fn DeltaObserver) {
	e.deltaObs = append(e.deltaObs, fn)
}

// MachineSize returns the number of processors in the machine.
func (e *Engine) MachineSize() int { return e.grid.Size() }

// NumFree returns the number of currently unallocated processors.
func (e *Engine) NumFree() int { return e.allocator.NumFree() }

// Now returns the engine clock in scaled simulation time.
func (e *Engine) Now() float64 { return e.now }

// Pending returns the number of jobs queued but not yet started.
func (e *Engine) Pending() int { return len(e.queue) - e.qhead }

// RunningJobs returns the number of jobs currently holding processors.
func (e *Engine) RunningJobs() int { return e.store.live }

// Finished returns the number of jobs that have completed.
func (e *Engine) Finished() int { return e.finished }

// CoreStats snapshots the event-core counters: events processed by
// kind and scheduler rounds run versus skipped by the head-blocked
// watermark.
func (e *Engine) CoreStats() stats.EventCoreStats { return e.core }

// ErrOversize is the sentinel matched by errors.Is for jobs rejected
// because they can never (or, under strict capacity, currently cannot)
// be placed. The concrete error is an *OversizeError carrying the
// numbers.
var ErrOversize = errors.New("sim: job exceeds machine capacity")

// OversizeError reports a job rejected at Submit because its size
// exceeds Capacity — the whole machine, or, when Strict is set, the
// currently available (not failed, not drained) node count. Failing
// fast here, with the numbers attached, beats the old behaviour of
// letting the job sit queued until Deadlocked() tripped at the end of
// the run.
type OversizeError struct {
	ID       int
	Size     int
	Capacity int
	Strict   bool // rejection against available rather than total capacity
}

// Error implements error.
func (e *OversizeError) Error() string {
	if e.Strict {
		return fmt.Sprintf("sim: job %d needs %d processors, only %d currently in service",
			e.ID, e.Size, e.Capacity)
	}
	return fmt.Sprintf("sim: job %d needs %d processors, machine has %d (filter the trace first)",
		e.ID, e.Size, e.Capacity)
}

// Is reports equality against the ErrOversize sentinel.
func (e *OversizeError) Is(target error) bool { return target == ErrOversize }

// Submit injects a job given in original (unscaled) trace units: the
// engine applies Load to its arrival and TimeScale to both arrival and
// runtime, exactly as Run scales a whole trace. Jobs may be submitted
// while the clock runs; an arrival already in the past is clamped to
// the current clock. Oversized jobs are rejected with an *OversizeError
// (errors.Is(err, ErrOversize)); with Faults.StrictCapacity set, so are
// jobs larger than the currently available node count.
func (e *Engine) Submit(j trace.Job) error {
	if j.Size > e.grid.Size() {
		return &OversizeError{ID: j.ID, Size: j.Size, Capacity: e.grid.Size()}
	}
	if j.Size <= 0 {
		return fmt.Errorf("sim: job %d has invalid size %d", j.ID, j.Size)
	}
	if e.cfg.Faults.StrictCapacity && j.Size > e.grid.Size()-e.flagged {
		return &OversizeError{ID: j.ID, Size: j.Size, Capacity: e.grid.Size() - e.flagged, Strict: true}
	}
	// Mirror Trace.ScaleLoad followed by Trace.ScaleTime operation for
	// operation so batch outputs stay bit-identical.
	j.Arrival *= e.cfg.Load
	j.Arrival *= e.cfg.TimeScale
	j.Runtime *= e.cfg.TimeScale
	if j.Arrival < e.now {
		j.Arrival = e.now
	}
	e.submitted++
	e.pushArrival(j.Arrival, j)
	return nil
}

// SetCheckpoint arms (or, with every <= 0 or fn nil, disarms) the
// periodic checkpoint hook: fn runs after every `every`-th processed
// event, at a point where the engine is between events and therefore
// snapshot-consistent — the natural place for fn to call Snapshot.
func (e *Engine) SetCheckpoint(every int64, fn func()) {
	if every <= 0 || fn == nil {
		e.ckptEvery, e.ckptFn = 0, nil
		return
	}
	e.ckptEvery, e.ckptFn = every, fn
	e.sinceCkpt = 0
}

// afterEvent runs the periodic hooks once per fully-processed event
// (job or fault), when the engine is in a consistent between-events
// state. A failed periodic audit panics: it means engine bookkeeping
// has diverged, the same class of bug every other internal check
// treats as fatal.
func (e *Engine) afterEvent() {
	if e.auditEvery > 0 {
		if e.sinceAudit++; e.sinceAudit >= e.auditEvery {
			e.sinceAudit = 0
			if err := e.Audit(); err != nil {
				panic(fmt.Sprintf("sim: periodic audit at t=%v: %v", e.now, err))
			}
		}
	}
	if e.ckptEvery > 0 {
		if e.sinceCkpt++; e.sinceCkpt >= e.ckptEvery {
			e.sinceCkpt = 0
			e.ckptFn()
		}
	}
}

// enqueue appends an arrived job to the pending queue, keeping the
// incremental policy snapshot in lockstep.
func (e *Engine) enqueue(j trace.Job) {
	e.queue = append(e.queue, j)
	if e.trackPend {
		e.pendBuf = append(e.pendBuf, sched.Pending{Size: j.Size, EstRuntime: j.Runtime})
	}
}

// pending returns the live queue entries in FCFS arrival order.
func (e *Engine) pending() []trace.Job { return e.queue[e.qhead:] }

// dropHead removes the first n pending entries in amortized O(1): the
// head offset advances, the slice resets to empty when the queue
// drains, and the live tail moves down only once the dead prefix
// exceeds half the slice — each such copy moves fewer entries than
// were dequeued since the last one. Dispatch from a deep queue
// therefore never shifts it per job, and the steady state reuses one
// backing array.
func (e *Engine) dropHead(n int) {
	e.qhead += n
	switch {
	case e.qhead == len(e.queue):
		e.queue, e.qhead = e.queue[:0], 0
	case e.qhead > len(e.queue)/2:
		e.queue, e.qhead = e.queue[:copy(e.queue, e.queue[e.qhead:])], 0
	}
}

// dequeueAt removes pending entry i, which a policy picked, keeping the
// incremental snapshot in lockstep.
func (e *Engine) dequeueAt(i int) {
	if i == 0 {
		e.dropHead(1)
	} else {
		e.queue = append(e.queue[:e.qhead+i], e.queue[e.qhead+i+1:]...)
	}
	if e.trackPend {
		e.pendBuf = append(e.pendBuf[:i], e.pendBuf[i+1:]...)
	}
}

// runInsert places handle h in the end-time-ordered running index at
// its (EstEnd, handle) position.
func (e *Engine) runInsert(h int32, end float64, size int) {
	i := len(e.runOrd)
	for i > 0 && (e.runOrd[i-1].EstEnd > end || (e.runOrd[i-1].EstEnd == end && e.runOrdH[i-1] > h)) {
		i--
	}
	e.runOrd = append(e.runOrd, sched.Running{})
	e.runOrdH = append(e.runOrdH, 0)
	copy(e.runOrd[i+1:], e.runOrd[i:])
	copy(e.runOrdH[i+1:], e.runOrdH[i:])
	e.runOrd[i] = sched.Running{Size: size, EstEnd: end}
	e.runOrdH[i] = h
}

// runRemove drops handle h from the end-time-ordered running index.
func (e *Engine) runRemove(h int32) {
	for i, hh := range e.runOrdH {
		if hh == h {
			e.runOrd = append(e.runOrd[:i], e.runOrd[i+1:]...)
			e.runOrdH = append(e.runOrdH[:i], e.runOrdH[i+1:]...)
			return
		}
	}
}

// Step processes the single earliest event and returns true, or returns
// false when no events remain. Fault events interleave by time with job
// events; on an exact tie the fault applies first, so a job finishing
// at the instant its node dies is killed, not completed — the
// conservative reading, and the ordering contract DESIGN.md documents.
func (e *Engine) Step() bool {
	if e.hasFault {
		if len(e.events) == 0 {
			// No job events left. Keep the machine evolving only while
			// queued work could still be unblocked by a repair;
			// otherwise the run is over and the infinite failure
			// stream must not keep it alive.
			if e.Pending() == 0 {
				return false
			}
			e.processFault()
			return true
		}
		if e.nextFault.T <= e.events[0].t {
			e.processFault()
			return true
		}
	}
	if len(e.events) == 0 {
		return false
	}
	if top := e.events[0]; top.kind == kindStep && !e.store.dead[top.h] {
		// A live step is processed in place: its follow-up event takes
		// the next seq — exactly what a pop-then-push would assign —
		// and overwrites the root with one sift-down.
		e.core.Events++
		e.core.Steps++
		e.advance(top.t)
		e.events.replaceTop(e.stamp(e.step(top.h, top.t)))
		e.afterEvent()
		return true
	}
	ev := e.events.pop()
	e.core.Events++
	e.advance(ev.t)
	switch ev.kind {
	case kindArrival:
		e.core.Arrivals++
		wasEmpty := e.Pending() == 0
		e.enqueue(e.takeArrival(ev.h))
		if e.isFCFS {
			// Drain every same-timestamp arrival at the head of the queue
			// before scheduling once, so simultaneous arrivals dispatch
			// as one batch. Under FCFS this is bit-identical to
			// scheduling after each arrival: the drain stops at any
			// earlier-sequenced non-arrival event, queue order is
			// arrival order either way, and the combined trySchedule
			// starts the same jobs in the same order consuming the RNG
			// identically. Policies that inspect the whole queue (SJF)
			// keep per-arrival scheduling.
			for len(e.events) > 0 && e.events[0].t == ev.t && e.events[0].kind == kindArrival {
				next := e.events.pop()
				e.core.Events++
				e.core.Arrivals++
				e.enqueue(e.takeArrival(next.h))
			}
		}
		// A new arrival re-arms a blocked FCFS round only when it
		// becomes the head (empty queue); under SJF any arrival can
		// change the pick.
		if wasEmpty || e.isSJF {
			e.blocked = false
		}
		e.trySchedule(ev.t)
	case kindStep:
		// Only a killed job's stale step reaches here: the pop was its
		// last reference, so the handle recycles.
		e.core.Steps++
		e.store.release(ev.h)
	case kindFinish:
		e.core.Finishes++
		if e.store.dead[ev.h] {
			e.store.release(ev.h)
			break
		}
		e.finish(ev.h, ev.t)
	}
	e.afterEvent()
	return true
}

// advance integrates occupancy up to an event at t and moves the clock
// forward to it.
func (e *Engine) advance(t float64) {
	e.account(t)
	if t > e.now {
		e.now = t
	}
}

// RunUntil processes every event with time <= t (scaled simulation
// time) and advances the clock and occupancy accounting to t. Pending
// fault events up to t are applied even when no job event forces them,
// so the machine's availability (and its down-time accounting) is
// current at t for the next submission.
func (e *Engine) RunUntil(t float64) {
	for {
		ok := len(e.events) > 0
		if e.hasFault && e.nextFault.T <= t && (!ok || e.nextFault.T <= e.events[0].t) {
			e.processFault()
			continue
		}
		if ok && e.events[0].t <= t {
			e.Step()
			continue
		}
		break
	}
	e.account(t)
	if t > e.now {
		e.now = t
	}
}

// Drain processes events until none remain.
func (e *Engine) Drain() {
	for e.Step() {
	}
}

// Deadlocked reports whether the engine has no events left but jobs
// still queued or running — the state batch Run reports as an error
// (a contiguous allocator can strand the queue head forever). Pending
// fault events count as events: a queued job stuck behind failed nodes
// is only deadlocked once the repair stream has nothing more to offer.
func (e *Engine) Deadlocked() bool {
	return len(e.events) == 0 && !e.hasFault && (e.Pending() > 0 || e.store.live > 0)
}

// RunSource pumps src into the engine lazily: each job is submitted
// only when the clock reaches its arrival, so the event queue stays
// bounded by the in-flight work rather than the stream length. With
// horizon 0 the stream runs until the source is exhausted and the
// remaining events drain. horizon > 0 stops at the first job arriving
// after horizon (original trace seconds) and advances the clock
// exactly to the horizon, leaving in-flight work pending — so resumed
// calls with growing horizons replay the identical event sequence a
// single continuous run would, and the past-horizon job is held, not
// lost: the next RunSource call submits it before pulling from its
// source again. Call Drain to let a horizon-stopped run finish its
// in-flight jobs.
func (e *Engine) RunSource(src trace.Source, horizon float64) error {
	for {
		if !e.hasHeld {
			j, ok := src.Next()
			if !ok {
				break
			}
			// Hold the job the moment it leaves the source: a snapshot
			// taken while the clock advances toward its arrival then
			// carries it, and the restored engine re-submits it instead
			// of losing it.
			e.held, e.hasHeld = j, true
		}
		j := e.held
		if horizon > 0 && j.Arrival > horizon {
			e.RunUntil(horizon * e.cfg.Load * e.cfg.TimeScale)
			return nil
		}
		e.RunUntil(j.Arrival * e.cfg.Load * e.cfg.TimeScale)
		if err := e.Submit(j); err != nil {
			return err
		}
		e.held, e.hasHeld = trace.Job{}, false
	}
	e.Drain()
	if e.Deadlocked() {
		return fmt.Errorf("sim: deadlock with %d queued and %d running jobs",
			e.Pending(), e.store.live)
	}
	// The exhausted-source drain is the open-system run's natural end;
	// close it with the same invariant pass batch Run applies.
	return e.Audit()
}

// Result snapshots the run's aggregate outcome. With KeepRecords left
// at Keep it matches batch Run field for field; with Discard, Records
// is nil, MedianResponse is the P² streaming estimate, and everything
// else is exact.
func (e *Engine) Result() *Result {
	res := &Result{
		Config:          e.cfg,
		Records:         e.records,
		Jobs:            e.finished,
		Net:             e.net.Stats(),
		NodeUtilization: e.net.NodeUtilization(),
		Makespan:        e.makespan,
	}
	if e.finished > 0 {
		res.MeanResponse = e.respSum / float64(e.finished)
		res.PctContiguous = 100 * float64(e.contig) / float64(e.finished)
		res.AvgComponents = float64(e.totalComps) / float64(e.finished)
	}
	if e.cfg.KeepRecords == Keep {
		responses := make([]float64, 0, len(e.records))
		for i := range e.records {
			responses = append(responses, e.records[i].Response)
		}
		res.MedianResponse = stats.Percentile(responses, 50)
	} else {
		res.MedianResponse = e.respMedian.Value()
	}
	if e.lastAccount > 0 {
		res.UtilizationPct = 100 * e.busyArea / (e.lastAccount * float64(e.grid.Size()))
		res.MeanQueueLen = e.queueArea / e.lastAccount
	}
	res.Killed = e.killed
	res.Retried = e.retried
	res.GivenUp = e.givenUp
	if e.busyArea > 0 {
		res.WastedPct = 100 * e.wastedArea / e.busyArea
	}
	if e.lastAccount > 0 {
		area := e.lastAccount * float64(e.grid.Size())
		res.DownPct = 100 * e.downArea / area
		res.GoodputPct = 100 * (e.busyArea - e.wastedArea) / area
	}
	return res
}

// account integrates the time-weighted occupancy up to now.
func (e *Engine) account(now float64) {
	if now > e.lastAccount {
		e.busyArea += float64(e.busyProcs) * (now - e.lastAccount)
		e.queueArea += float64(e.Pending()) * (now - e.lastAccount)
		e.downArea += float64(e.maskedN) * (now - e.lastAccount)
		e.lastAccount = now
	}
}

// processFault applies the pending fault event and pulls the next one
// from the stream. Availability flags (down, drained) and the
// allocator mask are kept separate: a node is masked in the allocator
// exactly when it is flagged unavailable and not occupied by a running
// job — an occupied node hit by NodeDown is masked right after its
// job's release, and a drained node's job runs to completion with the
// mask applied at finish.
func (e *Engine) processFault() {
	ev := e.nextFault
	e.advanceFault()
	e.core.FaultEvents++
	e.advance(ev.T)
	n := ev.Node
	switch ev.Kind {
	case fault.NodeDown:
		if e.down[n] {
			break
		}
		e.setFlag(n, true, true)
		if h := e.owner[n]; h >= 0 {
			e.killJob(h, e.now)
		} else if !e.masked[n] {
			e.mask(n)
		}
	case fault.NodeUp:
		if !e.down[n] {
			break
		}
		e.setFlag(n, true, false)
		if e.masked[n] && !e.drained[n] {
			e.unmask(n)
			e.trySchedule(e.now)
		}
	case fault.NodeDrain:
		if e.drained[n] {
			break
		}
		e.setFlag(n, false, true)
		if e.owner[n] < 0 && !e.masked[n] {
			e.mask(n)
		}
	case fault.NodeUndrain:
		if !e.drained[n] {
			break
		}
		e.setFlag(n, false, false)
		if e.masked[n] && !e.down[n] {
			e.unmask(n)
			e.trySchedule(e.now)
		}
	}
	e.afterEvent()
}

// setFlag sets the down (isDown true) or drained flag of node n and
// maintains the count of unavailable nodes behind strict-capacity
// submission.
func (e *Engine) setFlag(n int, isDown, v bool) {
	was := e.down[n] || e.drained[n]
	if isDown {
		e.down[n] = v
	} else {
		e.drained[n] = v
	}
	is := e.down[n] || e.drained[n]
	if is && !was {
		e.flagged++
	} else if was && !is {
		e.flagged--
	}
}

// mask marks a free node busy in the allocator — occupancy indexes,
// word scans and free counts all see it as taken — and notifies delta
// observers so external free-map mirrors track fault masking exactly
// like allocations. Any fault transition invalidates the head-blocked
// watermark: with SJF a shrunken free set can change which job is
// picked, and clearing on every transition is cheap because fault
// events are rare.
func (e *Engine) mask(n int) {
	e.faultable.MarkDown(n)
	e.masked[n] = true
	e.maskedN++
	e.blocked = false
	e.maskBuf[0] = n
	for _, fn := range e.deltaObs {
		fn(e.now, e.maskBuf[:], true)
	}
}

// unmask returns a masked node to the allocator's free set.
func (e *Engine) unmask(n int) {
	e.faultable.MarkUp(n)
	e.masked[n] = false
	e.maskedN--
	e.blocked = false
	e.maskBuf[0] = n
	for _, fn := range e.deltaObs {
		fn(e.now, e.maskBuf[:], false)
	}
}

// killJob tears down a running job hit by a node failure: release its
// processors (re-masking the members flagged down or drained), account
// the work lost, and requeue or abandon the job per the retry policy.
// The release may free survivors that admit queued jobs, so the
// scheduler runs before returning.
func (e *Engine) killJob(h int32, now float64) {
	s := &e.store
	nodes := s.nodes[h]
	job := s.job[h]
	e.allocator.Release(nodes)
	e.blocked = false
	e.busyProcs -= job.Size
	for _, fn := range e.deltaObs {
		fn(now, nodes, false)
	}
	e.wastedArea += float64(job.Size) * (now - s.start[h])
	for _, id := range nodes {
		e.owner[id] = -1
		if (e.down[id] || e.drained[id]) && !e.masked[id] {
			e.mask(id)
		}
	}
	e.killed++
	e.killCount[job.ID]++
	kills := e.killCount[job.ID]
	if e.trackRun {
		e.runRemove(h)
	}
	// The job's one outstanding step/finish event still references the
	// handle; it recycles when that stale event pops.
	s.markDead(h)
	if e.cfg.Retry.Allow(kills) {
		e.retried++
		delay := e.cfg.Retry.Delay(kills) * e.cfg.TimeScale
		e.pushArrival(now+delay, job)
	} else {
		e.givenUp++
		delete(e.killCount, job.ID)
	}
	e.trySchedule(now)
}

func (e *Engine) push(ev event) { e.events.push(e.stamp(ev)) }

// stamp assigns ev the next FIFO sequence number.
func (e *Engine) stamp(ev event) event {
	ev.seq = e.seq
	e.seq++
	return ev
}

// pushArrival queues job j to arrive at t, parking it in a slab slot.
func (e *Engine) pushArrival(t float64, j trace.Job) {
	e.push(event{t: t, kind: kindArrival, h: e.parkArrival(j)})
}

// parkArrival stores j in a free arrival slot and returns the slot.
func (e *Engine) parkArrival(j trace.Job) int32 {
	if n := len(e.arrFree); n > 0 {
		slot := e.arrFree[n-1]
		e.arrFree = e.arrFree[:n-1]
		e.arrivals[slot] = j
		return slot
	}
	e.arrivals = append(e.arrivals, j)
	return int32(len(e.arrivals) - 1)
}

// takeArrival returns the job parked in slot and frees the slot.
func (e *Engine) takeArrival(slot int32) trace.Job {
	e.arrFree = append(e.arrFree, slot)
	return e.arrivals[slot]
}

func (e *Engine) quotaOf(j trace.Job) int64 {
	q := int64(math.Round(j.Runtime * e.cfg.MsgsPerSecond))
	if q < 1 {
		q = 1
	}
	return q
}

// block arms the head-blocked watermark after a dispatch-free FCFS/SJF
// round: until a release, fault transition or decision-changing arrival,
// re-running the round is provably a no-op (a refused Allocate consumes
// no RNG and refusals are monotone under an unchanged or shrinking free
// set), so trySchedule short-circuits in O(1).
func (e *Engine) block() {
	if e.canBlock {
		e.blocked = true
	}
}

// trySchedule starts every job the policy allows at time now.
func (e *Engine) trySchedule(now float64) {
	if e.blocked {
		e.core.SchedSkips++
		return
	}
	e.core.SchedRounds++
	if e.isFCFS && e.batcher != nil {
		e.scheduleFCFSBatch(now)
		return
	}
	for {
		var pick int
		switch {
		case e.isFCFS:
			// Fast path: strict FCFS only ever inspects the head.
			pick = -1
			if q := e.pending(); len(q) > 0 && q[0].Size <= e.allocator.NumFree() {
				pick = 0
			}
		case e.cfg.RebuildSched:
			// Reference path: rebuild the policy's snapshots from
			// scratch every round, iterating live handles in ascending
			// order so equal-EstEnd running entries land in the same
			// relative order the incremental index keeps.
			e.pendBuf = e.pendBuf[:0]
			for _, j := range e.pending() {
				e.pendBuf = append(e.pendBuf, sched.Pending{Size: j.Size, EstRuntime: j.Runtime})
			}
			e.runBuf = e.runBuf[:0]
			for h := 0; h < len(e.store.job); h++ {
				if e.store.inUse[h] && !e.store.dead[h] {
					e.runBuf = append(e.runBuf, sched.Running{Size: e.store.job[h].Size, EstEnd: e.store.estEnd[h]})
				}
			}
			pick = e.policy.Pick(e.pendBuf, now, e.allocator.NumFree(), e.runBuf)
		default:
			// Incremental path: pendBuf mirrors the queue and runOrd is
			// already (EstEnd, handle)-sorted, so the round costs one
			// policy scan and nothing else.
			if e.sorted != nil {
				pick = e.sorted.PickSorted(e.pendBuf, now, e.allocator.NumFree(), e.runOrd)
			} else {
				pick = e.policy.Pick(e.pendBuf, now, e.allocator.NumFree(), e.runOrd)
			}
		}
		if pick < 0 {
			e.block()
			return
		}
		job := e.pending()[pick]
		nodes, err := e.allocator.Allocate(alloc.Request{Size: job.Size})
		if err == alloc.ErrInsufficient {
			// Contiguous allocators (submesh, buddy) can refuse on
			// external fragmentation even when enough processors
			// are free; the job stays queued until a release.
			e.block()
			return
		}
		if err != nil {
			// Any other refusal is a bookkeeping bug.
			panic(fmt.Sprintf("sim: allocator %s refused %d procs with %d free: %v",
				e.allocator.Name(), job.Size, e.allocator.NumFree(), err))
		}
		e.dequeueAt(pick)
		e.startJob(job, nodes, now)
	}
}

// scheduleFCFSBatch dispatches the runnable FCFS queue prefix in one
// AllocateBatch call. The BatchAllocator contract (exact-size
// consumption, success whenever size <= NumFree) makes the cumulative
// size check below exactly the head-fits rule the sequential loop
// applies after each allocation, and AllocateBatch is defined as the
// in-order sequence of Allocates, so the jobs started, their node sets,
// the RNG consumption, and the relative event order are all identical
// to the one-at-a-time loop — pinned by the golden digests and the
// batch equivalence suite.
func (e *Engine) scheduleFCFSBatch(now float64) {
	q := e.pending()
	free := e.allocator.NumFree()
	n := 0
	for n < len(q) && q[n].Size <= free {
		free -= q[n].Size
		n++
	}
	if n == 0 {
		e.block()
		return
	}
	if n == 1 {
		// Single-job rounds skip the batch call and its result slice —
		// the common steady-state case stays zero-alloc.
		job := q[0]
		nodes, err := e.allocator.Allocate(alloc.Request{Size: job.Size})
		if err != nil {
			panic(fmt.Sprintf("sim: batch allocator %s refused %d procs with %d free: %v",
				e.allocator.Name(), job.Size, e.allocator.NumFree(), err))
		}
		e.dropHead(1)
		e.startJob(job, nodes, now)
		e.block()
		return
	}
	e.reqBuf = e.reqBuf[:0]
	for i := 0; i < n; i++ {
		e.reqBuf = append(e.reqBuf, alloc.Request{Size: q[i].Size})
	}
	batch, err := e.batcher.AllocateBatch(e.reqBuf)
	if err != nil || len(batch) != n {
		panic(fmt.Sprintf("sim: batch allocator %s served %d of %d requests with %d free: %v",
			e.allocator.Name(), len(batch), n, e.allocator.NumFree(), err))
	}
	for i := 0; i < n; i++ {
		e.startJob(q[i], batch[i], now)
	}
	e.dropHead(n)
	// n was the maximal runnable prefix, so the remaining head (if any)
	// exceeds the remaining free count: the round ends blocked.
	e.block()
}

// startJob registers an allocated job: claim a store handle, draw its
// communication generator (the single RNG consumer, so call order fixes
// determinism), account occupancy, notify delta observers, and schedule
// its first step.
func (e *Engine) startJob(job trace.Job, nodes []int, now float64) {
	h := e.store.alloc()
	s := &e.store
	s.job[h] = job
	s.nodes[h] = nodes
	s.gen[h] = e.pattern.Generator(job.Size, e.rng)
	s.quota[h] = e.quotaOf(job)
	s.sent[h] = 0
	s.hops[h] = 0
	s.start[h] = now
	s.lastArr[h] = now
	s.queued[h] = 0
	s.estEnd[h] = now + job.Runtime
	s.havePend[h] = false
	e.busyProcs += job.Size
	if e.owner != nil {
		for _, id := range nodes {
			e.owner[id] = h
		}
	}
	if e.trackRun {
		e.runInsert(h, s.estEnd[h], job.Size)
	}
	for _, fn := range e.deltaObs {
		fn(now, nodes, true)
	}
	e.push(event{t: now, kind: kindStep, h: h})
}

// finish runs as its own event at the time the job's last message
// arrived, so processors are not released before that moment.
func (e *Engine) finish(h int32, now float64) {
	s := &e.store
	nodes := s.nodes[h]
	job := s.job[h]
	e.allocator.Release(nodes)
	e.blocked = false
	e.busyProcs -= job.Size
	for _, fn := range e.deltaObs {
		fn(now, nodes, false)
	}
	if e.owner != nil {
		// A drained node lets its occupying job finish; the mask lands
		// here, the moment the release frees it.
		for _, id := range nodes {
			e.owner[id] = -1
			if (e.down[id] || e.drained[id]) && !e.masked[id] {
				e.mask(id)
			}
		}
		delete(e.killCount, job.ID)
	}
	if e.trackRun {
		e.runRemove(h)
	}
	end := s.lastArr[h]
	if end < now {
		end = now
	}
	inv := 1 / e.cfg.TimeScale
	var nComps int
	var avgPair float64
	if e.cfg.NaiveMetrics {
		// Reference walks: materialize the components, decode a
		// coordinate pair per distance.
		nComps = len(e.grid.Components(nodes))
		avgPair = e.grid.AvgPairwiseDist(nodes)
	} else {
		// Counted forms: integer-exact per-axis histograms and an
		// epoch-stamped flood fill — bit-identical results at a
		// fraction of the cost (see topo/setmetrics.go).
		nComps = e.grid.CountComponents(nodes, &e.setScratch)
		avgPair = e.grid.AvgPairwiseDistCounted(nodes, &e.setScratch)
	}
	rec := JobRecord{
		ID:          job.ID,
		Size:        job.Size,
		Quota:       s.quota[h],
		Arrival:     job.Arrival * inv,
		Start:       s.start[h] * inv,
		Finish:      end * inv,
		Response:    (end - job.Arrival) * inv,
		RunTime:     (end - s.start[h]) * inv,
		Wait:        (s.start[h] - job.Arrival) * inv,
		AvgPairwise: avgPair,
		QueuedSec:   s.queued[h] * inv,
		Components:  nComps,
		Contiguous:  nComps == 1,
	}
	if e.cfg.KeepNodes == Keep {
		rec.Nodes = sortedCopy(nodes)
	}
	if s.sent[h] > 0 {
		rec.AvgMsgDist = float64(s.hops[h]) / float64(s.sent[h])
	}

	// Streaming aggregates and observers see every record; the records
	// slice only grows under the Keep policy.
	e.finished++
	e.respSum += rec.Response
	e.respMedian.Add(rec.Response)
	e.totalComps += rec.Components
	if rec.Contiguous {
		e.contig++
	}
	if rec.Finish > e.makespan {
		e.makespan = rec.Finish
	}
	for _, fn := range e.observers {
		fn(rec)
	}
	if e.cfg.KeepRecords == Keep {
		e.records = append(e.records, rec)
	}

	// The finish event was the job's last reference; recycle the
	// handle for a later arrival.
	s.release(h)
	e.trySchedule(end)
}

// step issues the next burst of messages for the job at handle h at
// time now and returns the job's follow-up event, unsequenced: the next
// step at the burst's last delivery, or the finish once the quota is
// sent.
func (e *Engine) step(h int32, now float64) event {
	s := &e.store
	burst := int64(1)
	if e.cfg.Issue == IssuePhased {
		burst = math.MaxInt64 // until phase boundary
	}
	if e.cfg.MaxPhase > 0 && burst > int64(e.cfg.MaxPhase) {
		burst = int64(e.cfg.MaxPhase)
	}
	maxArr := now
	var issued int64
	nodes := s.nodes[h]
	gen := s.gen[h]
	sent, quota := s.sent[h], s.quota[h]
	hops, queued := s.hops[h], s.queued[h]
	for issued < burst && sent < quota {
		var msg comm.Msg
		if s.havePend[h] {
			msg, s.havePend[h] = s.pending[h], false
		} else {
			var newPhase bool
			msg, newPhase = gen.Next()
			if newPhase && issued > 0 {
				// The phase ended; save the message for the next burst.
				s.pending[h], s.havePend[h] = msg, true
				break
			}
		}
		r := e.net.Send(nodes[msg.Src], nodes[msg.Dst], now)
		sent++
		hops += int64(r.Hops)
		queued += r.Queued
		if r.Arrival > maxArr {
			maxArr = r.Arrival
		}
		issued++
	}
	s.sent[h], s.hops[h], s.queued[h] = sent, hops, queued
	if maxArr > s.lastArr[h] {
		s.lastArr[h] = maxArr
	}
	if sent >= quota {
		return event{t: maxArr, kind: kindFinish, h: h}
	}
	// Barrier: the next subphase starts when this burst has arrived.
	return event{t: maxArr, kind: kindStep, h: h}
}

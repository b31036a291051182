// Package sim is the trace-driven microsimulator: it binds the scheduler,
// an allocation algorithm, a communication pattern, and the network model
// into one event-driven run over a job trace, producing the per-job
// records behind every figure in the paper.
//
// Job model, following Section 3 of the paper: a job arrives, waits in
// the FCFS queue until the allocator can place it, and then communicates.
// Its message quota is one message per second of traced runtime. The
// pattern's messages are issued subphase by subphase: all messages of a
// subphase enter the network together and the next subphase starts when
// the last of them arrives. The job terminates when the whole quota has
// been delivered, so a job's lifetime — and through queueing, every later
// job's response time — is determined by network contention, which is
// what the allocation algorithms fight over.
//
// The package has two entry points built on one core. Run replays a
// whole trace as a closed system and returns every record, exactly the
// paper's setup. Engine exposes the lifecycle underneath — online
// Submit while the clock runs, Step/RunUntil/Drain, streaming Observer
// callbacks, Result at any time — and, with the Discard retention
// policies, holds constant memory over unbounded open-system workloads
// fed from a trace.Source.
package sim

import (
	"fmt"

	"meshalloc/internal/fault"
	"meshalloc/internal/netsim"
	"meshalloc/internal/trace"
)

// IssueMode selects how a job's messages enter the network.
type IssueMode int

const (
	// IssuePhased injects each pattern subphase as one concurrent burst
	// with a barrier before the next subphase — the parallel-program
	// behaviour ProcSimity models. Default.
	IssuePhased IssueMode = iota
	// IssueSequential injects one message at a time per job, each send
	// blocking on the previous delivery; the ablation mode.
	IssueSequential
)

// String implements fmt.Stringer.
func (m IssueMode) String() string {
	if m == IssueSequential {
		return "sequential"
	}
	return "phased"
}

// KeepPolicy selects whether per-job data is retained in memory or only
// streamed to observers.
type KeepPolicy int

const (
	// Keep retains the data (default; what the batch experiments expect).
	Keep KeepPolicy = iota
	// Discard drops the data once observers have seen it, so unbounded
	// open-system runs hold O(1) memory.
	Discard
)

// String implements fmt.Stringer.
func (p KeepPolicy) String() string {
	if p == Discard {
		return "discard"
	}
	return "keep"
}

// Config describes one simulation run.
type Config struct {
	// MeshW, MeshH are the machine dimensions (paper: 16x22 and 16x16).
	// They are the 2-D compatibility path: when Dims is empty the
	// machine is the MeshW x MeshH mesh, exactly as before the topology
	// layer became dimension-generic.
	MeshW, MeshH int
	// Dims, when non-empty, gives the machine extents axis by axis and
	// overrides MeshW/MeshH — e.g. []int{8, 8, 8} simulates the 8x8x8
	// 3-D mesh CPlant physically was. Allocators, routing and link
	// accounting all run natively in n dimensions.
	Dims []int
	// Torus adds wraparound links (the paper's machines are plain
	// meshes; torus mode is an extension for other topologies).
	Torus bool
	// Alloc is the allocator spec (see alloc.Spec), e.g. "hilbert/bestfit".
	Alloc string
	// Pattern is the communication pattern name (see comm.ByName).
	Pattern string
	// Load is the arrival-contraction factor (1 down to 0.2).
	Load float64
	// TimeScale contracts the whole trace (arrivals, runtimes and hence
	// message quotas) to keep runs tractable; reported times re-inflate
	// by 1/TimeScale. 1.0 replays the trace at full length.
	TimeScale float64
	// Seed drives randomized patterns and allocators.
	Seed int64
	// Net is the network timing; zero value means netsim.DefaultConfig.
	Net netsim.Config
	// Scheduler is "fcfs" (default, as in the paper), "easy" or "sjf";
	// see sched.ByName.
	Scheduler string
	// Issue selects phased (default) or sequential message injection.
	Issue IssueMode
	// MsgsPerSecond converts traced runtime to message quota (paper: 1).
	MsgsPerSecond float64
	// MaxPhase caps messages issued per event to bound event sizes for
	// enormous all-to-all phases; 0 means no cap.
	MaxPhase int
	// KeepRecords selects whether Result.Records accumulates every
	// per-job record (Keep, default) or records only stream to
	// observers (Discard). Discard bounds memory for million-job runs;
	// MedianResponse then comes from the P² streaming estimator.
	KeepRecords KeepPolicy
	// KeepNodes selects whether each JobRecord retains its Nodes slice
	// (Keep, default). Discard skips the per-job copy; dispersal
	// metrics (AvgPairwise, Components) are computed either way.
	KeepNodes KeepPolicy
	// AllocWorkers shards the allocator's candidate-scoring loop over
	// this many goroutines when the allocator supports it (MC, MC1x1 and
	// Gen-Alg on their indexed paths). The parallel scan is bit-identical
	// to the sequential one — the lowest-id candidate wins ties either
	// way — so this knob only trades goroutines for wall clock. 0 or 1
	// keeps the sequential loop; other allocators ignore it.
	AllocWorkers int
	// Faults injects node failure/repair events (see fault.Config). The
	// zero value disables injection, leaving every code path and output
	// bit-identical to a fault-free engine. Fault times (MTBF/MTTR
	// draws, script times, retry delays) are given in original trace
	// seconds and contracted by TimeScale like job runtimes. When
	// Faults.Seed is zero, Seed derives the failure clocks. The
	// configured allocator must implement alloc.FaultAware, which every
	// allocator but two does: NewEngine rejects buddy and the paged
	// forms (<curve>/<strategy>/page<s>), whose block ledgers track
	// whole blocks rather than individual nodes. Submesh masks a downed
	// node like a busy one and is accepted.
	Faults fault.Config
	// Retry is the policy for jobs killed by a node failure (see
	// fault.Retry). The zero value resubmits killed jobs immediately
	// with no attempt bound; parse "none", "immediate[:N]" or
	// "backoff:BASE,CAP[,N]" specs with fault.ParseRetry.
	Retry fault.Retry
	// RebuildSched, when true, rebuilds the scheduler's pending/running
	// snapshots from scratch on every round and disables the
	// head-blocked watermark — the reference path the incremental
	// structures are equivalence-tested against. Outputs are identical;
	// the default (false) is just faster.
	RebuildSched bool
	// NaiveMetrics, when true, computes each finished job's dispersal
	// metrics (Components, AvgPairwise) with the materializing
	// reference walks instead of the counted forms in topo/setmetrics.go.
	// The counted forms are integer-exact, so outputs are bit-identical
	// either way; the knob exists for equivalence testing.
	NaiveMetrics bool
	// AuditEvery, when positive, runs the invariant auditor (see
	// Engine.Audit) after every AuditEvery-th processed event. A
	// violation panics — it means engine bookkeeping has diverged, the
	// same class of bug the engine's other internal checks treat as
	// fatal. 0 (default) disables periodic auditing; the audit always
	// runs once at the end of a batch Run and after a snapshot restore.
	AuditEvery int
}

// withDefaults fills zero fields with the paper-experiment defaults.
func (c Config) withDefaults() Config {
	if c.Load == 0 {
		c.Load = 1
	}
	if c.TimeScale == 0 {
		c.TimeScale = 1
	}
	if c.Net.MessageFlits == 0 {
		c.Net = netsim.DefaultConfig()
	}
	if c.Scheduler == "" {
		c.Scheduler = "fcfs"
	}
	if c.MsgsPerSecond == 0 {
		c.MsgsPerSecond = 1
	}
	return c
}

// dims resolves the machine extents: Dims when given, the MeshW x MeshH
// compatibility pair otherwise.
func (c Config) dims() []int {
	if len(c.Dims) > 0 {
		return c.Dims
	}
	return []int{c.MeshW, c.MeshH}
}

// JobRecord is the per-job outcome, in original (un-time-scaled) seconds.
type JobRecord struct {
	ID   int
	Size int
	// Quota is the number of messages the job had to deliver.
	Quota int64
	// Arrival, Start, Finish are absolute times; Response = Finish -
	// Arrival (the paper's metric), RunTime = Finish - Start.
	Arrival, Start, Finish float64
	Response, RunTime      float64
	Wait                   float64
	// AvgPairwise is the mean pairwise Manhattan distance of the job's
	// processors (the dispersal metric of Figure 9).
	AvgPairwise float64
	// AvgMsgDist is the mean hops per delivered message (Figure 10).
	AvgMsgDist float64
	// QueuedSec is the total time the job's messages spent blocked on
	// busy links.
	QueuedSec float64
	// Components is the number of rectilinearly-connected components of
	// the allocation; Contiguous means a single component (Figure 11).
	Components int
	Contiguous bool
	// Nodes is the allocation itself (sorted processor ids), retained so
	// consumers can compute further dispersal metrics post hoc. Nil
	// when Config.KeepNodes is Discard.
	Nodes []int
}

// Result is the outcome of one run.
type Result struct {
	Config Config
	// Records holds every per-job record in finish order, or nil when
	// Config.KeepRecords is Discard (records then only stream through
	// Engine.Observe).
	Records []JobRecord
	// Jobs is the number of jobs that completed, whether or not their
	// records were retained.
	Jobs int
	// MeanResponse is the mean job response time in original seconds.
	MeanResponse float64
	// MedianResponse is the 50th percentile response time: exact over
	// retained records, the P² streaming estimate under Discard.
	MedianResponse float64
	// PctContiguous is the percentage of jobs allocated contiguously.
	PctContiguous float64
	// AvgComponents is the mean number of allocation components per job.
	AvgComponents float64
	// Net is the aggregate network activity (in scaled time units).
	Net netsim.Stats
	// NodeUtilization is each node's mean outgoing-link busy fraction
	// over the run, a contention heatmap indexed by node id.
	NodeUtilization []float64
	// Makespan is the completion time of the last job, original seconds.
	Makespan float64
	// UtilizationPct is the time-weighted percentage of processors held
	// by jobs over the makespan — the system-utilization measure that
	// the paper says contiguous-only allocation drives unacceptably low.
	UtilizationPct float64
	// MeanQueueLen is the time-weighted mean number of queued jobs.
	MeanQueueLen float64

	// Fault-injection outcomes; all zero on a fault-free run. Killed
	// counts job kills by node failures (a job killed twice counts
	// twice), Retried the kills followed by a resubmission, GivenUp the
	// jobs abandoned by the retry policy.
	Killed, Retried, GivenUp int
	// WastedPct is the percentage of consumed processor-seconds thrown
	// away by kills (work a job had accumulated when a failure killed
	// it). GoodputPct is the time-weighted percentage of the machine
	// doing work that eventually completed — utilization minus waste.
	// DownPct is the time-weighted percentage of the machine masked out
	// by failures or drains.
	WastedPct, GoodputPct, DownPct float64
}

// Run simulates the trace under cfg and returns the per-job records. The
// trace is taken in original time units; Run applies Load and TimeScale
// itself. Jobs larger than the mesh are rejected with an error.
//
// Run is a thin closed-system wrapper over Engine: every job is
// submitted up front, the event heap drains to completion, and the
// resulting records and aggregates are bit-identical to the historical
// monolithic implementation (pinned by the golden digests in
// golden_equiv_test.go).
func Run(cfg Config, tr *trace.Trace) (*Result, error) {
	e, err := NewEngine(cfg)
	if err != nil {
		return nil, err
	}
	// Submit validates each job (oversized jobs error out here, before
	// any event is processed — the whole run is rejected, as always).
	for _, j := range tr.Jobs {
		if err := e.Submit(j); err != nil {
			return nil, err
		}
	}
	e.Drain()
	if e.Deadlocked() {
		return nil, fmt.Errorf("sim: deadlock with %d queued and %d running jobs",
			e.Pending(), e.RunningJobs())
	}
	// Every batch run ends with one pass of the invariant auditor: the
	// cross-checks are O(machine) against a whole run's work, and a
	// divergence caught here names the broken invariant instead of
	// surfacing as a silently wrong digest.
	if err := e.Audit(); err != nil {
		return nil, err
	}
	return e.Result(), nil
}

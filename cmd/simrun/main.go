// Command simrun executes a single allocation/pattern simulation and
// prints the summary metrics: mean/median response time, contiguity,
// and network statistics. The workload is a closed-system replay of a
// synthetic SDSC Paragon trace (or a trace file), or — with -arrival —
// an open-system stream whose per-job records stream out as NDJSON and
// whose aggregates come from the engine's constant-memory streaming
// statistics.
//
// Example:
//
//	simrun -mesh 16x22 -alloc hilbert/bestfit -pattern nbody -load 0.6
//	simrun -mesh 8x8x8 -alloc hilbert/bestfit -pattern nbody      # native 3-D
//	simrun -mesh 16x16 -arrival poisson:900 -duration 1e6 -stream  # open system
package main

import (
	"bufio"
	"bytes"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"

	"meshalloc/internal/alloc"
	"meshalloc/internal/curve"
	"meshalloc/internal/fault"
	"meshalloc/internal/mesh"
	"meshalloc/internal/metrics"
	"meshalloc/internal/netsim"
	"meshalloc/internal/sched"
	"meshalloc/internal/sim"
	"meshalloc/internal/snap"
	"meshalloc/internal/topo"
	"meshalloc/internal/trace"
)

func main() {
	var (
		meshSpec  = flag.String("mesh", "16x22", "mesh dimensions, e.g. 16x22 or 8x8x8")
		allocSpec = flag.String("alloc", "hilbert/bestfit", "allocator spec (e.g. mc, mc1x1, genalg, hilbert/bestfit, scurve)")
		pattern   = flag.String("pattern", "alltoall", "communication pattern (alltoall, nbody, random, ring, pingpong, testsuite)")
		load      = flag.Float64("load", 1.0, "arrival contraction factor (1 down to 0.2)")
		timeScale = flag.Float64("timescale", 0.02, "trace time contraction for tractability")
		jobs      = flag.Int("jobs", 6087, "number of synthetic trace jobs (also caps open-system streams)")
		seed      = flag.Int64("seed", 1, "random seed")
		scheduler = flag.String("sched", "fcfs", "scheduling policy (fcfs, easy or sjf)")
		issue     = flag.String("issue", "phased", "message issue mode (phased or sequential)")
		routing   = flag.String("routing", "xy", "network routing (xy, yx, adaptive)")
		torus     = flag.Bool("torus", false, "wraparound (torus) links")
		traceFile = flag.String("trace", "", "replay a trace file instead of synthesizing one")
		swf       = flag.Bool("swf", false, "parse -trace as Standard Workload Format")
		swfLoose  = flag.Bool("swf-lenient", false, "with -swf: skip malformed lines (reported to stderr) instead of aborting")
		verbose   = flag.Bool("v", false, "print per-job records")
		heatmap   = flag.Bool("heatmap", false, "print a node-level link-utilization heatmap")
		disperse  = flag.Bool("dispersal", false, "print aggregate dispersal metrics of the allocations")
		stream    = flag.Bool("stream", false, "stream per-job records as NDJSON to stdout (summary goes to stderr); records are not retained")
		arrival   = flag.String("arrival", "", "open-system arrival process: poisson:MEANSEC or bursty:MEANSEC,ONSEC,OFFSEC (empty = closed trace replay)")
		duration  = flag.Float64("duration", 0, "open-system horizon in trace seconds (0 = run until the -jobs cap)")
		allocWk   = flag.Int("alloc-workers", 0, "goroutines scoring allocation candidates (mc, mc1x1, genalg); results are bit-identical at any value")
		mtbf      = flag.String("mtbf", "", "per-node mean time between failures: MEANSEC, exp:MEANSEC or weibull:MEANSEC,SHAPE (trace seconds; empty = no failures)")
		mttr      = flag.String("mttr", "", "per-node mean time to repair, same forms as -mtbf (empty with -mtbf = permanent failures)")
		retrySpec = flag.String("retry", "", "retry policy for killed jobs: none, immediate[:MAXATTEMPTS] or backoff:BASESEC,CAPSEC[,MAXATTEMPTS] (empty = immediate, unlimited)")
		rebuild   = flag.Bool("rebuild-sched", false, "rebuild scheduler state from scratch every round (reference path; slower, bit-identical)")
		ckptPath  = flag.String("checkpoint", "", "write a resumable checkpoint to this file every -checkpoint-every events (atomic replace)")
		ckptEvery = flag.Int64("checkpoint-every", 0, "events between checkpoints (requires -checkpoint)")
		resume    = flag.String("resume", "", "resume from a -checkpoint file; pass the same configuration flags as the original run")
		auditEv   = flag.Int("audit-every", 0, "run the engine invariant auditor every N events (0 = audit only at end of run)")
		cpuProf   = flag.String("cpuprofile", "", "write a pprof CPU profile of the simulation to this file")
		memProf   = flag.String("memprofile", "", "write a pprof allocation profile (after the run) to this file")
	)
	flag.Parse()

	dims, err := parseMesh(*meshSpec)
	if err != nil {
		fatal(err)
	}
	size := 1
	for _, d := range dims {
		size *= d
	}

	// Reject a typo'd -alloc or -sched up front with a usage error that
	// lists the valid names, before any trace is synthesized or replayed:
	// in sweep scripts a late failure (or a silently defaulted value)
	// masks the typo.
	if _, err := alloc.Spec(topo.New(dims), *allocSpec, *seed); err != nil {
		fatal(fmt.Errorf("%v\n%s", err, allocUsage()))
	}
	if _, err := sched.ByName(*scheduler); err != nil {
		fatal(fmt.Errorf("%v (valid -sched values: fcfs, easy, sjf)", err))
	}

	// Durability flags fail fast before any workload is built: a typo'd
	// checkpoint cadence must not surface hours into a sweep.
	if *auditEv < 0 {
		fatal(fmt.Errorf("-audit-every must be >= 0 (got %d)", *auditEv))
	}
	if *ckptEvery < 0 {
		fatal(fmt.Errorf("-checkpoint-every must be > 0 (got %d)", *ckptEvery))
	}
	if (*ckptPath != "") != (*ckptEvery > 0) {
		fatal(fmt.Errorf("-checkpoint and -checkpoint-every must be used together"))
	}
	if *resume != "" && *traceFile != "" {
		fatal(fmt.Errorf("-resume restores the workload from the checkpoint; drop -trace"))
	}

	cfg := sim.Config{
		Dims:         dims,
		Torus:        *torus,
		Alloc:        *allocSpec,
		Pattern:      *pattern,
		Load:         *load,
		TimeScale:    *timeScale,
		Seed:         *seed,
		Scheduler:    *scheduler,
		AllocWorkers: *allocWk,
		RebuildSched: *rebuild,
		AuditEvery:   *auditEv,
	}
	if *issue == "sequential" {
		cfg.Issue = sim.IssueSequential
	} else if *issue != "phased" {
		fatal(fmt.Errorf("unknown issue mode %q", *issue))
	}

	// Fault flags fail fast at parse time — a malformed -mtbf in a
	// sweep script must die before hours of simulation, not after.
	cfg.Faults.MTBF, err = fault.ParseDist(*mtbf)
	if err != nil {
		fatal(fmt.Errorf("-mtbf: %v", err))
	}
	cfg.Faults.MTTR, err = fault.ParseDist(*mttr)
	if err != nil {
		fatal(fmt.Errorf("-mttr: %v", err))
	}
	if cfg.Faults.MTTR.Enabled() && !cfg.Faults.MTBF.Enabled() {
		fatal(fmt.Errorf("-mttr without -mtbf: nothing ever fails"))
	}
	cfg.Retry, err = fault.ParseRetry(*retrySpec)
	if err != nil {
		fatal(fmt.Errorf("-retry: %v", err))
	}
	route, err := netsim.RoutingByName(*routing)
	if err != nil {
		fatal(err)
	}
	cfg.Net = netsim.DefaultConfig()
	cfg.Net.Routing = route

	// Streaming and open-system runs discard records; the per-record
	// reports need the retained slice.
	if (*stream || *arrival != "") && (*verbose || *disperse) {
		fatal(fmt.Errorf("-v and -dispersal need retained records; drop -stream/-arrival"))
	}

	// Profile files are created (and the CPU profile started) before the
	// workload is built, so an unwritable path dies in milliseconds, not
	// after the simulation. Trace synthesis is inside the profiled span:
	// for large open-system runs it is part of the event loop's cost.
	stopCPU := func() {}
	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fatal(fmt.Errorf("-cpuprofile: %v", err))
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(fmt.Errorf("-cpuprofile: %v", err))
		}
		stopCPU = func() {
			pprof.StopCPUProfile()
			if err := f.Close(); err != nil {
				fatal(fmt.Errorf("-cpuprofile: %v", err))
			}
		}
	}

	ck := ckptSpec{path: *ckptPath, every: *ckptEvery}
	var res *sim.Result
	var eng *sim.Engine
	if *resume != "" {
		res, eng, err = runResume(cfg, *resume, *arrival, size, *seed, *jobs, *duration, *stream, ck)
	} else if *arrival != "" {
		if *traceFile != "" {
			fatal(fmt.Errorf("-arrival generates its own workload; drop -trace"))
		}
		res, eng, err = runOpen(cfg, *arrival, size, *seed, *jobs, *duration, *stream, ck)
	} else {
		var tr *trace.Trace
		if *traceFile != "" {
			f, oerr := os.Open(*traceFile)
			if oerr != nil {
				fatal(oerr)
			}
			if *swf && *swfLoose {
				var skips []trace.SWFSkip
				tr, skips, err = trace.ReadSWFLenient(f)
				for _, s := range skips {
					fmt.Fprintf(os.Stderr, "simrun: %s: swf %s\n", *traceFile, s)
				}
			} else if *swf {
				tr, err = trace.ReadSWF(f)
			} else {
				tr, err = trace.Read(f)
			}
			f.Close()
			if err != nil {
				fatal(err)
			}
		} else {
			tr = trace.NewSDSC(trace.SDSCConfig{Jobs: *jobs, MaxSize: size, Seed: *seed})
		}
		tr = tr.FilterMaxSize(size)
		if *stream {
			res, eng, err = runStreaming(cfg, tr, ck)
		} else {
			res, eng, err = runBatch(cfg, tr, ck)
		}
	}
	if err != nil {
		fatal(err)
	}
	stopCPU()
	if *memProf != "" {
		f, err := os.Create(*memProf)
		if err != nil {
			fatal(fmt.Errorf("-memprofile: %v", err))
		}
		runtime.GC() // report live objects, not dead garbage
		if err := pprof.WriteHeapProfile(f); err != nil {
			fatal(fmt.Errorf("-memprofile: %v", err))
		}
		if err := f.Close(); err != nil {
			fatal(fmt.Errorf("-memprofile: %v", err))
		}
	}

	// With -stream, stdout carries the NDJSON records; the summary
	// moves to stderr so the record stream stays machine-readable.
	sum := os.Stdout
	if *stream {
		sum = os.Stderr
	}
	fmt.Fprintf(sum, "mesh %s  alloc %-18s pattern %-9s load %.2f  jobs %d\n",
		*meshSpec, *allocSpec, *pattern, *load, res.Jobs)
	fmt.Fprintf(sum, "mean response    %14.0f s\n", res.MeanResponse)
	// Without retained records the median is the P² streaming estimate
	// (coarse on short heavy-tailed runs); say so.
	if res.Records == nil {
		fmt.Fprintf(sum, "median response  %14.0f s (P² estimate)\n", res.MedianResponse)
	} else {
		fmt.Fprintf(sum, "median response  %14.0f s\n", res.MedianResponse)
	}
	fmt.Fprintf(sum, "makespan         %14.0f s\n", res.Makespan)
	fmt.Fprintf(sum, "contiguous       %13.1f %%   avg components %.2f\n", res.PctContiguous, res.AvgComponents)
	fmt.Fprintf(sum, "network: %d messages, avg %.2f hops, avg latency %.3f s (scaled)\n",
		res.Net.Messages, res.Net.AvgHops(), res.Net.AvgLatency())
	if cfg.Faults.Enabled() {
		fmt.Fprintf(sum, "faults: %d kills, %d retries, %d given up\n",
			res.Killed, res.Retried, res.GivenUp)
		fmt.Fprintf(sum, "goodput          %13.1f %%   wasted %.2f %%   down %.2f %%\n",
			res.GoodputPct, res.WastedPct, res.DownPct)
	}

	// Profiling runs also print the event-core counters, so the event
	// mix and the scheduler's skip rate sit next to the profile.
	if *cpuProf != "" || *memProf != "" {
		cs := eng.CoreStats()
		fmt.Fprintf(os.Stderr, "event core: %d events (%d arrivals, %d steps, %d finishes), %d fault events\n",
			cs.Events, cs.Arrivals, cs.Steps, cs.Finishes, cs.FaultEvents)
		fmt.Fprintf(os.Stderr, "scheduler: %d rounds, %d head-blocked skips\n", cs.SchedRounds, cs.SchedSkips)
	}

	if *heatmap {
		if len(dims) != 2 {
			fatal(fmt.Errorf("-heatmap renders 2-D meshes only (got %s)", *meshSpec))
		}
		fmt.Fprintln(sum, "\nlink-utilization heatmap (0-9 per node, '.' = idle):")
		fmt.Fprint(sum, renderHeatmap(res.NodeUtilization, dims[0], dims[1]))
	}

	if *disperse {
		if len(dims) != 2 {
			fatal(fmt.Errorf("-dispersal supports 2-D meshes only (got %s)", *meshSpec))
		}
		m := meshForDims(dims[0], dims[1], *torus)
		ms := make([]metrics.Dispersal, len(res.Records))
		sizes := make([]int, len(res.Records))
		for i, r := range res.Records {
			ms[i] = metrics.Measure(m, r.Nodes)
			sizes[i] = r.Size
		}
		s := metrics.Summarize(ms, sizes)
		fmt.Printf("\ndispersal over %d allocations:\n", s.N)
		fmt.Printf("  mean avg pairwise distance  %6.2f hops\n", s.MeanAvgPairwise)
		fmt.Printf("  mean bounding-box fill      %6.2f\n", s.MeanBoundingFill)
		fmt.Printf("  mean perimeter ratio        %6.2f (1.0 = ideal square)\n", s.MeanPerimeterRatio)
		fmt.Printf("  mean components             %6.2f\n", s.MeanComponents)
		fmt.Printf("  contiguous                  %6.1f %%\n", s.PctContiguous)
	}

	if *verbose {
		fmt.Println("\n  id  size     quota     response      runtime  pairwise  msgdist comps")
		for _, r := range res.Records {
			fmt.Printf("%4d  %4d  %8d  %11.0f  %11.0f  %8.2f  %7.2f  %4d\n",
				r.ID, r.Size, r.Quota, r.Response, r.RunTime, r.AvgPairwise, r.AvgMsgDist, r.Components)
		}
	}
}

// runOpen simulates an open-system workload: arrivals from the spec'd
// process, streamed through the engine with record retention off so
// the run holds constant memory no matter how many jobs pass through.
// Node lists stay on (the per-record copies are transient), so -stream
// emits the same NDJSON schema in open and closed mode. The stream
// ends at the horizon (trace seconds) or the jobs cap, whichever comes
// first.
func runOpen(cfg sim.Config, spec string, maxSize int, seed int64, jobs int, horizon float64, stream bool, ck ckptSpec) (*sim.Result, *sim.Engine, error) {
	src, err := parseArrival(spec, maxSize, seed)
	if err != nil {
		return nil, nil, err
	}
	cfg.KeepRecords = sim.Discard
	e, err := sim.NewEngine(cfg)
	if err != nil {
		return nil, nil, err
	}
	flush := func() {}
	if stream {
		flush = observeNDJSON(e)
	}
	lim := trace.Limit(src, jobs)
	armCheckpoint(e, lim, ck)
	if err := e.RunSource(lim, horizon); err != nil {
		return nil, nil, err
	}
	// A horizon stop leaves in-flight jobs pending; let them finish so
	// the summary covers every admitted job.
	e.Drain()
	flush()
	return e.Result(), e, nil
}

// runStreaming replays a closed-system trace but streams every record
// as NDJSON instead of retaining it; summary statistics come from the
// engine's streaming aggregates. Jobs are submitted up front exactly
// as sim.Run does, so -stream changes the output format only — even
// event-time ties resolve in the same order as the batch path.
func runStreaming(cfg sim.Config, tr *trace.Trace, ck ckptSpec) (*sim.Result, *sim.Engine, error) {
	cfg.KeepRecords = sim.Discard
	e, err := sim.NewEngine(cfg)
	if err != nil {
		return nil, nil, err
	}
	flush := observeNDJSON(e)
	for _, j := range tr.Jobs {
		if err := e.Submit(j); err != nil {
			return nil, nil, err
		}
	}
	armCheckpoint(e, nil, ck)
	e.Drain()
	if e.Deadlocked() {
		return nil, nil, fmt.Errorf("deadlock with %d queued and %d running jobs", e.Pending(), e.RunningJobs())
	}
	flush()
	return e.Result(), e, nil
}

// runBatch is sim.Run with the engine handle kept, so the profiling
// report can read the event-core counters. Submission order, event
// processing and the deadlock check match sim.Run exactly.
func runBatch(cfg sim.Config, tr *trace.Trace, ck ckptSpec) (*sim.Result, *sim.Engine, error) {
	e, err := sim.NewEngine(cfg)
	if err != nil {
		return nil, nil, err
	}
	for _, j := range tr.Jobs {
		if err := e.Submit(j); err != nil {
			return nil, nil, err
		}
	}
	armCheckpoint(e, nil, ck)
	e.Drain()
	if e.Deadlocked() {
		return nil, nil, fmt.Errorf("deadlock with %d queued and %d running jobs", e.Pending(), e.RunningJobs())
	}
	return e.Result(), e, nil
}

// ckptSpec carries the -checkpoint flags: where to write and how many
// events between writes. A zero spec disables checkpointing.
type ckptSpec struct {
	path  string
	every int64
}

// armCheckpoint hooks the engine's periodic checkpoint callback to
// write ck.path atomically every ck.every events. src is the live
// open-system source whose position rides along in the file (nil for
// closed-system runs, whose arrivals are already engine events). A
// checkpoint that cannot be written aborts the run: continuing would
// silently drop the durability the user asked for.
func armCheckpoint(e *sim.Engine, src trace.Source, ck ckptSpec) {
	if ck.path == "" {
		return
	}
	e.SetCheckpoint(ck.every, func() {
		if err := writeCheckpoint(ck.path, e, src); err != nil {
			fatal(fmt.Errorf("-checkpoint: %v", err))
		}
	})
}

// writeCheckpoint serializes the engine (and, for open systems, the
// arrival source position) into a snap container at path. The file is
// staged as path.tmp and renamed into place so a crash mid-write never
// corrupts the previous good checkpoint.
func writeCheckpoint(path string, e *sim.Engine, src trace.Source) error {
	var blob bytes.Buffer
	if err := e.Snapshot(&blob); err != nil {
		return err
	}
	w := snap.NewWriter()
	w.Bytes(blob.Bytes())
	if src != nil {
		st, err := trace.CaptureSource(src)
		if err != nil {
			return err
		}
		w.Bool(true)
		writeSourceState(w, st)
	} else {
		w.Bool(false)
	}
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if err := w.Flush(f); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	return os.Rename(tmp, path)
}

func writeSourceState(w *snap.Writer, st trace.SourceState) {
	w.String(st.Kind)
	w.U64(st.RNGPos)
	w.F64(st.OnLeft)
	w.F64(st.Now)
	w.Int(st.Next)
	w.Int(st.Index)
	w.Int(st.Left)
	w.Bool(st.Inner != nil)
	if st.Inner != nil {
		writeSourceState(w, *st.Inner)
	}
}

func readSourceState(r *snap.Reader, depth int) (trace.SourceState, error) {
	var st trace.SourceState
	if depth > 8 {
		return st, fmt.Errorf("source state nests deeper than any source this binary builds")
	}
	st.Kind = r.String()
	st.RNGPos = r.U64()
	st.OnLeft = r.F64()
	st.Now = r.F64()
	st.Next = r.Int()
	st.Index = r.Int()
	st.Left = r.Int()
	if r.Bool() {
		inner, err := readSourceState(r, depth+1)
		if err != nil {
			return st, err
		}
		st.Inner = &inner
	}
	return st, r.Err()
}

// runResume restores a checkpoint written by -checkpoint and finishes
// the run. Closed-system checkpoints carry every pending arrival as
// engine events, so the trace is not re-read; open-system checkpoints
// additionally record the arrival-source position, and the caller must
// pass the original -arrival spec (and -jobs/-duration) to rebuild it.
func runResume(cfg sim.Config, path, arrivalSpec string, maxSize int, seed int64, jobs int, horizon float64, stream bool, ck ckptSpec) (*sim.Result, *sim.Engine, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	r, err := snap.NewReader(f)
	f.Close()
	if err != nil {
		return nil, nil, fmt.Errorf("-resume %s: %v", path, err)
	}
	blob := r.Bytes()
	hasSrc := r.Bool()
	var st trace.SourceState
	if hasSrc {
		if st, err = readSourceState(r, 0); err != nil {
			return nil, nil, fmt.Errorf("-resume %s: %v", path, err)
		}
	}
	if r.Err() != nil {
		return nil, nil, fmt.Errorf("-resume %s: %v", path, r.Err())
	}
	if n := r.Remaining(); n != 0 {
		return nil, nil, fmt.Errorf("-resume %s: %d trailing bytes after checkpoint payload", path, n)
	}
	if hasSrc && arrivalSpec == "" {
		return nil, nil, fmt.Errorf("-resume %s: checkpoint holds an open-system source; pass the original -arrival spec", path)
	}
	if !hasSrc && arrivalSpec != "" {
		return nil, nil, fmt.Errorf("-resume %s: checkpoint is a closed-system run; drop -arrival", path)
	}

	// Mirror the KeepRecords choice the original run modes make, so the
	// restore config fingerprint matches the checkpointed engine's.
	if stream || arrivalSpec != "" {
		cfg.KeepRecords = sim.Discard
	}
	e, err := sim.RestoreEngine(bytes.NewReader(blob), cfg)
	if err != nil {
		return nil, nil, fmt.Errorf("-resume %s: %v", path, err)
	}
	flush := func() {}
	if stream {
		flush = observeNDJSON(e)
	}
	if hasSrc {
		src, err := parseArrival(arrivalSpec, maxSize, seed)
		if err != nil {
			return nil, nil, err
		}
		lim := trace.Limit(src, jobs)
		if err := trace.RestoreSource(lim, st); err != nil {
			return nil, nil, fmt.Errorf("-resume %s: %v", path, err)
		}
		armCheckpoint(e, lim, ck)
		if err := e.RunSource(lim, horizon); err != nil {
			return nil, nil, err
		}
		e.Drain()
	} else {
		armCheckpoint(e, nil, ck)
		e.Drain()
		if e.Deadlocked() {
			return nil, nil, fmt.Errorf("deadlock with %d queued and %d running jobs", e.Pending(), e.RunningJobs())
		}
	}
	flush()
	return e.Result(), e, nil
}

// observeNDJSON attaches an observer encoding each record as one JSON
// line on stdout and returns the buffer flush.
func observeNDJSON(e *sim.Engine) (flush func()) {
	w := bufio.NewWriter(os.Stdout)
	var line []byte
	e.Observe(func(r sim.JobRecord) {
		var err error
		if line, err = appendRecord(line[:0], &r); err != nil {
			fatal(err)
		}
		if _, err := w.Write(line); err != nil {
			fatal(err)
		}
	})
	return func() {
		if err := w.Flush(); err != nil {
			fatal(err)
		}
	}
}

// parseArrival builds the open-system source from its flag spec:
// "poisson:MEANSEC" or "bursty:MEANSEC,ONSEC,OFFSEC".
func parseArrival(spec string, maxSize int, seed int64) (trace.Source, error) {
	kind, args, _ := strings.Cut(spec, ":")
	var nums []float64
	if args != "" {
		for _, p := range strings.Split(args, ",") {
			v, err := strconv.ParseFloat(p, 64)
			// NaN fails every comparison and ±Inf passes v > 0, so
			// reject non-finite values explicitly.
			if err != nil || math.IsNaN(v) || math.IsInf(v, 0) || v <= 0 {
				return nil, fmt.Errorf("bad arrival parameter %q in %q", p, spec)
			}
			nums = append(nums, v)
		}
	}
	switch kind {
	case "poisson":
		if len(nums) != 1 {
			return nil, fmt.Errorf("poisson arrival wants poisson:MEANSEC, got %q", spec)
		}
		return trace.NewPoisson(nums[0], maxSize, seed), nil
	case "bursty":
		if len(nums) != 3 {
			return nil, fmt.Errorf("bursty arrival wants bursty:MEANSEC,ONSEC,OFFSEC, got %q", spec)
		}
		return trace.NewBursty(nums[0], nums[1], nums[2], maxSize, seed), nil
	default:
		return nil, fmt.Errorf("unknown arrival process %q (want poisson or bursty)", kind)
	}
}

// renderHeatmap draws per-node utilization as digit intensities.
func renderHeatmap(util []float64, w, h int) string {
	max := 0.0
	for _, u := range util {
		if u > max {
			max = u
		}
	}
	var b strings.Builder
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			u := util[y*w+x]
			switch {
			case u == 0 || max == 0:
				b.WriteByte('.')
			default:
				level := int(u / max * 9)
				if level > 9 {
					level = 9
				}
				b.WriteByte(byte('0' + level))
			}
			b.WriteByte(' ')
		}
		b.WriteByte('\n')
	}
	return b.String()
}

func meshForDims(w, h int, torus bool) *mesh.Mesh {
	if torus {
		return mesh.NewTorus(w, h)
	}
	return mesh.New(w, h)
}

func parseMesh(s string) ([]int, error) {
	parts := strings.Split(s, "x")
	if len(parts) < 2 || len(parts) > topo.MaxDims {
		return nil, fmt.Errorf("bad mesh spec %q, want WxH or WxHxD", s)
	}
	dims := make([]int, len(parts))
	for i, p := range parts {
		d, err := strconv.Atoi(p)
		if err != nil || d <= 0 {
			return nil, fmt.Errorf("bad mesh spec %q: extent %q", s, p)
		}
		dims[i] = d
	}
	return dims, nil
}

// allocUsage lists the valid -alloc spec forms and the registry names
// they can be built from, so a rejected spec is a one-stop fix.
func allocUsage() string {
	return fmt.Sprintf(`valid -alloc forms:
  mc | mc1x1 | genalg | random | submesh | buddy
  <curve>                       Paging with a sorted free list
  <curve>/<strategy>            Paging with a bin-packing strategy
  <curve>/<strategy>/page<s>    Lo et al.'s Paging with 2^s-sided pages
curves: %s, optcurve, or proj2d-<curve> (2-D projection on n-D grids)
strategies: freelist, firstfit, bestfit, sumofsquares, worstfit, nextfit`,
		strings.Join(curve.All(), ", "))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "simrun:", err)
	os.Exit(1)
}

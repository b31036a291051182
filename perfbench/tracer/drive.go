package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"math"
	"runtime"
	"slices"
	"time"

	"meshalloc/internal/sim"
	"meshalloc/internal/stats"
	"meshalloc/internal/topo"
	"meshalloc/internal/trace"
)

// feeder keeps the next open-system arrival submitted one job ahead of
// the clock. RunSource submits each job when the clock reaches its
// arrival; submitting it when the previous source job arrives instead
// keeps the event order (Poisson arrival times are distinct) and lets
// the run advance by Step alone.
type feeder struct {
	e           *sim.Engine
	src         trace.Source // nil for closed runs and once exhausted
	load, scale float64
	due         float64 // engine time of the last submitted source job
}

func (f *feeder) feed() error {
	j, ok := f.src.Next()
	if !ok {
		f.src = nil
		return nil
	}
	// Submit scales arrivals in this order; matching it keeps due exact.
	f.due = j.Arrival * f.load
	f.due *= f.scale
	return f.e.Submit(j)
}

// next tops up the source once the clock has reached the last
// submitted arrival.
func (f *feeder) next() error {
	if f.src != nil && f.e.Now() >= f.due {
		return f.feed()
	}
	return nil
}

// setupTimes are the seconds spent making the arrivals and building
// the engine; a closed run's submissions count as engine build.
type setupTimes struct{ trace, engine float64 }

// start builds the engine and its arrivals as simrun does: a closed run
// synthesizes the SDSC trace and submits it whole, an open run draws
// from a Poisson source capped at the job count.
func (w *workload) start() (*sim.Engine, *feeder, setupTimes, error) {
	var st setupTimes
	t0 := time.Now()
	var tr *trace.Trace
	var src trace.Source
	if w.mean > 0 {
		src = trace.Limit(trace.NewPoisson(w.mean, w.size, w.cfg.Seed), w.jobs)
	} else {
		tr = trace.NewSDSC(trace.SDSCConfig{Jobs: w.jobs, MaxSize: w.size, Seed: w.cfg.Seed}).FilterMaxSize(w.size)
	}
	t1 := time.Now()
	e, err := sim.NewEngine(w.cfg)
	if err != nil {
		return nil, nil, st, err
	}
	f := &feeder{e: e, src: src, load: w.cfg.Load, scale: w.cfg.TimeScale}
	if tr != nil {
		for _, j := range tr.Jobs {
			if err := e.Submit(j); err != nil {
				return nil, nil, st, err
			}
		}
	} else if err := f.feed(); err != nil {
		return nil, nil, st, err
	}
	st.trace = t1.Sub(t0).Seconds()
	st.engine = time.Since(t1).Seconds()
	return e, f, st, nil
}

// end checks the run stopped the way simrun's runs stop: nothing
// stranded and a clean invariant audit.
func end(e *sim.Engine) error {
	if e.Deadlocked() {
		return fmt.Errorf("deadlock with %d queued and %d running jobs", e.Pending(), e.RunningJobs())
	}
	return e.Audit()
}

// ndjson encodes records exactly as simrun -stream does, into a sha256
// instead of stdout, counting the bytes.
type ndjson struct {
	h   hash.Hash
	n   int64
	bw  *bufio.Writer
	enc *json.Encoder
	err error
}

func newNDJSON() *ndjson {
	o := &ndjson{h: sha256.New()}
	o.bw = bufio.NewWriter(o)
	o.enc = json.NewEncoder(o.bw)
	return o
}

func (o *ndjson) Write(p []byte) (int, error) {
	o.n += int64(len(p))
	return o.h.Write(p)
}

func (o *ndjson) encode(r sim.JobRecord) {
	if err := o.enc.Encode(r); err != nil && o.err == nil {
		o.err = err
	}
}

func (o *ndjson) sum() (string, error) {
	if o.err != nil {
		return "", o.err
	}
	if err := o.bw.Flush(); err != nil {
		return "", err
	}
	return hex.EncodeToString(o.h.Sum(nil)), nil
}

// plainRun is the untimed baseline.
type plainRun struct {
	digest     string
	jobs       int
	wall       float64
	setup      setupTimes
	allocBytes uint64
	gcCycles   uint32
}

func (w *workload) runPlain() (*plainRun, error) {
	e, f, st, err := w.start()
	if err != nil {
		return nil, err
	}
	out := newNDJSON()
	e.Observe(out.encode)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	for e.Step() {
		if err := f.next(); err != nil {
			return nil, err
		}
	}
	wall := time.Since(t0).Seconds()
	runtime.ReadMemStats(&m1)
	if err := end(e); err != nil {
		return nil, err
	}
	digest, err := out.sum()
	if err != nil {
		return nil, err
	}
	return &plainRun{
		digest:     digest,
		jobs:       e.Finished(),
		wall:       wall,
		setup:      st,
		allocBytes: m1.TotalAlloc - m0.TotalAlloc,
		gcCycles:   m1.NumGC - m0.NumGC,
	}, nil
}

// Step classes, by the CoreStats counter a Step moved.
const (
	clsArrival = iota
	clsStep
	clsFinish
	clsFault
	nClasses
)

func classify(prev, cs stats.EventCoreStats) int {
	switch {
	case cs.FaultEvents != prev.FaultEvents:
		return clsFault
	case cs.Finishes != prev.Finishes:
		return clsFinish
	case cs.Steps != prev.Steps:
		return clsStep
	}
	return clsArrival
}

// tracedRun holds what the traced run measured.
type tracedRun struct {
	digest   string
	wall     float64
	res      *sim.Result
	core     stats.EventCoreStats
	stepNS   [nClasses]int64 // engine time per class, output excluded
	steps    [nClasses]int64
	durs     []uint32 // engine ns of every Step, in event order
	queueSum int64
	queueMax int
	records  int64
	bytes    int64
	encodeNS int64
	topoNS   int64
	// topoMismatches counts records whose recomputed set metrics differ
	// from the engine's.
	topoMismatches int
	deltas         *capture
}

func (w *workload) runTraced() (*tracedRun, error) {
	e, f, _, err := w.start()
	if err != nil {
		return nil, err
	}
	t := &tracedRun{deltas: newCapture(w.size)}
	grid := topo.New(w.cfg.Dims)
	var sc topo.SetScratch
	out := newNDJSON()
	// Per-Step shares of observer time: encoding belongs to the output
	// layer and the set-metric recompute is the tracer's own, so both
	// come off the Step's engine time.
	var encNS, topoNS int64
	e.Observe(func(r sim.JobRecord) {
		t0 := time.Now()
		out.encode(r)
		t1 := time.Now()
		comps := grid.CountComponents(r.Nodes, &sc)
		pair := grid.AvgPairwiseDistCounted(r.Nodes, &sc)
		t2 := time.Now()
		if comps != r.Components || pair != r.AvgPairwise {
			t.topoMismatches++
		}
		encNS += t1.Sub(t0).Nanoseconds()
		topoNS += t2.Sub(t1).Nanoseconds()
		t.records++
	})
	e.ObserveDeltas(t.deltas.observe)
	prev := e.CoreStats()
	start := time.Now()
	for {
		encNS, topoNS = 0, 0
		mark := len(t.deltas.deltas)
		t0 := time.Now()
		ok := e.Step()
		d := time.Since(t0).Nanoseconds()
		if !ok {
			break
		}
		cs := e.CoreStats()
		cls := classify(prev, cs)
		prev = cs
		if cls == clsFault {
			t.deltas.relabel(mark)
		}
		ns := d - encNS - topoNS
		t.stepNS[cls] += ns
		t.steps[cls]++
		t.durs = append(t.durs, uint32(min(ns, math.MaxUint32)))
		t.encodeNS += encNS
		t.topoNS += topoNS
		q := e.Pending()
		t.queueSum += int64(q)
		t.queueMax = max(t.queueMax, q)
		if err := f.next(); err != nil {
			return nil, err
		}
	}
	t.wall = time.Since(start).Seconds()
	if err := end(e); err != nil {
		return nil, err
	}
	if t.digest, err = out.sum(); err != nil {
		return nil, err
	}
	t.bytes = out.n
	t.res = e.Result()
	t.core = e.CoreStats()
	return t, nil
}

// report is the tracer's output.
type report struct {
	PlainSHA256    string             `json:"plain_sha256"`
	TracedSHA256   string             `json:"traced_sha256"`
	Jobs           int                `json:"jobs"`
	TopoMismatches int                `json:"topo_mismatches"`
	Metrics        map[string]float64 `json:"metrics"`
}

func measure(w *workload) (*report, error) {
	p, err := w.runPlain()
	if err != nil {
		return nil, fmt.Errorf("plain run: %w", err)
	}
	t, err := w.runTraced()
	if err != nil {
		return nil, fmt.Errorf("traced run: %w", err)
	}
	grid := topo.New(w.cfg.Dims)
	ar, err := replayAlloc(grid, w.cfg.Alloc, w.cfg.Seed, t.deltas)
	if err != nil {
		return nil, fmt.Errorf("alloc replay: %w", err)
	}
	sendNS, err := replaySend(grid, w.cfg, t.deltas)
	if err != nil {
		return nil, fmt.Errorf("send replay: %w", err)
	}

	per := func(a, b int64) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}
	sorted := slices.Clone(t.durs)
	slices.Sort(sorted)
	quantile := func(q float64) float64 {
		if len(sorted) == 0 {
			return 0
		}
		return float64(sorted[int(q*float64(len(sorted)-1))])
	}
	fifth := len(t.durs) / 5
	meanOf := func(ds []uint32) int64 {
		var s int64
		for _, d := range ds {
			s += int64(d)
		}
		return s / int64(max(len(ds), 1))
	}
	growth := per(meanOf(t.durs[len(t.durs)-fifth:]), meanOf(t.durs[:fifth]))
	var engineNS int64
	for _, ns := range t.stepNS {
		engineNS += ns
	}
	cs, res := t.core, t.res
	rounds := cs.SchedRounds + cs.SchedSkips
	m := map[string]float64{
		"sim.events":              float64(cs.Events + cs.FaultEvents),
		"sim.arrival_ns":          per(t.stepNS[clsArrival], t.steps[clsArrival]),
		"sim.step_ns":             per(t.stepNS[clsStep], t.steps[clsStep]),
		"sim.finish_ns":           per(t.stepNS[clsFinish], t.steps[clsFinish]),
		"sim.fault_ns":            per(t.stepNS[clsFault], t.steps[clsFault]),
		"sim.event_ns_p50":        quantile(0.50),
		"sim.event_ns_p99":        quantile(0.99),
		"sim.event_ns_growth":     growth,
		"sim.cal_resizes":         float64(cs.CalResizes),
		"sim.cal_direct_scans":    float64(cs.CalDirectScans),
		"sim.alloc_bytes_per_job": per(int64(p.allocBytes), int64(p.jobs)),
		"sim.gc_cycles":           float64(p.gcCycles),

		"sched.rounds":         float64(cs.SchedRounds),
		"sched.skips":          float64(cs.SchedSkips),
		"sched.skip_frac":      per(cs.SchedSkips, rounds),
		"sched.queue_len_mean": per(t.queueSum, int64(len(t.durs))),
		"sched.queue_len_max":  float64(t.queueMax),

		"alloc.calls":        float64(ar.calls),
		"alloc.allocate_ns":  per(ar.allocNS, int64(ar.calls)),
		"alloc.release_ns":   per(ar.releaseNS, int64(ar.releases)),
		"alloc.replay_match": b2f(ar.match),

		"netsim.msgs":         float64(res.Net.Messages),
		"netsim.hops_per_msg": res.Net.AvgHops(),
		"netsim.ns_per_msg":   per(t.stepNS[clsStep], res.Net.Messages),
		"netsim.send_ns":      sendNS,

		"topo.setmetrics_ns": per(t.topoNS, t.records),

		"output.ns_per_record":    per(t.encodeNS, t.records),
		"output.bytes_per_record": per(t.bytes, t.records),

		"fault.events":  float64(cs.FaultEvents),
		"fault.kills":   float64(res.Killed),
		"fault.retries": float64(res.Retried),

		"setup.trace_s":  p.setup.trace,
		"setup.engine_s": p.setup.engine,

		"bench.trace_overhead":    t.wall / p.wall,
		"bench.unattributed_frac": 1 - float64(engineNS+t.encodeNS)/(t.wall*1e9),
	}
	return &report{
		PlainSHA256:    p.digest,
		TracedSHA256:   t.digest,
		Jobs:           res.Jobs,
		TopoMismatches: t.topoMismatches,
		Metrics:        m,
	}, nil
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

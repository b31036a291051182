// Command tracer is the benchmark's in-process driver. It takes the
// simrun flags a workload is defined by, rebuilds the sim.Config simrun
// builds from them, and drives the engine one Step at a time through its
// public API. It prints one JSON object: the sha256 of each run's NDJSON
// record stream, which must equal simrun's byte for byte, and the
// per-layer metrics.
//
// The workload runs twice. The plain run is untimed per event; it is
// the baseline of the tracing overhead and the run whose heap
// statistics are reported. The traced run times every Step and
// classifies it by the event-core counter it moved, times the NDJSON
// encoding and recomputes each record's set metrics, and captures every
// occupancy delta. The captured deltas are then replayed on a fresh
// allocator, and sampled node sets on a fresh network, to time those
// layers in isolation.
//
//	go run ./tracer -mesh 16x22 -alloc mc -pattern nbody -load 0.6 -jobs 30000 -seed 1
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"meshalloc/internal/fault"
	"meshalloc/internal/netsim"
	"meshalloc/internal/sim"
)

// workload is one simrun invocation in engine terms.
type workload struct {
	cfg  sim.Config
	size int
	jobs int
	// mean is the Poisson mean inter-arrival time of an open run, in
	// trace seconds; 0 selects simrun's closed SDSC trace replay.
	mean float64
}

func main() {
	w, err := parseFlags(os.Args[1:])
	if err != nil {
		fatal(err)
	}
	out, err := measure(w)
	if err != nil {
		fatal(err)
	}
	if err := json.NewEncoder(os.Stdout).Encode(out); err != nil {
		fatal(err)
	}
}

// parseFlags accepts the subset of simrun's flags the benchmark
// workloads use, with simrun's defaults, and builds the same Config:
// simrun's default -timescale and -routing (x-y, the zero Routing) are
// fixed. -stream is accepted for symmetry: records are always encoded.
func parseFlags(args []string) (*workload, error) {
	fs := flag.NewFlagSet("tracer", flag.ContinueOnError)
	var (
		meshSpec  = fs.String("mesh", "16x22", "mesh dimensions")
		allocSpec = fs.String("alloc", "hilbert/bestfit", "allocator spec")
		pattern   = fs.String("pattern", "alltoall", "communication pattern")
		load      = fs.Float64("load", 1.0, "arrival contraction factor")
		jobs      = fs.Int("jobs", 6087, "trace length, or open-system job cap")
		seed      = fs.Int64("seed", 1, "random seed")
		scheduler = fs.String("sched", "fcfs", "scheduling policy")
		arrival   = fs.String("arrival", "", "open-system arrivals: poisson:MEANSEC (empty = closed trace replay)")
		mtbf      = fs.String("mtbf", "", "per-node time between failures")
		mttr      = fs.String("mttr", "", "per-node time to repair")
		retrySpec = fs.String("retry", "", "retry policy for killed jobs")
		_         = fs.Bool("stream", false, "accepted for simrun compatibility")
	)
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	var dims []int
	size := 1
	for _, p := range strings.Split(*meshSpec, "x") {
		d, err := strconv.Atoi(p)
		if err != nil || d <= 0 {
			return nil, fmt.Errorf("bad -mesh %q", *meshSpec)
		}
		dims = append(dims, d)
		size *= d
	}
	w := &workload{
		cfg: sim.Config{
			Dims:        dims,
			Alloc:       *allocSpec,
			Pattern:     *pattern,
			Load:        *load,
			TimeScale:   0.02,
			Seed:        *seed,
			Scheduler:   *scheduler,
			Net:         netsim.DefaultConfig(),
			KeepRecords: sim.Discard,
		},
		size: size,
		jobs: *jobs,
	}
	var err error
	if w.cfg.Faults.MTBF, err = fault.ParseDist(*mtbf); err != nil {
		return nil, fmt.Errorf("-mtbf: %w", err)
	}
	if w.cfg.Faults.MTTR, err = fault.ParseDist(*mttr); err != nil {
		return nil, fmt.Errorf("-mttr: %w", err)
	}
	if w.cfg.Retry, err = fault.ParseRetry(*retrySpec); err != nil {
		return nil, fmt.Errorf("-retry: %w", err)
	}
	if *arrival != "" {
		kind, arg, _ := strings.Cut(*arrival, ":")
		w.mean, err = strconv.ParseFloat(arg, 64)
		if kind != "poisson" || err != nil || !(w.mean > 0) {
			return nil, fmt.Errorf("-arrival %q: want poisson:MEANSEC", *arrival)
		}
	}
	return w, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "tracer:", err)
	os.Exit(1)
}

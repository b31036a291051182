// Opensystem: drive the engine with an unbounded Poisson arrival
// stream instead of a fixed trace — the open-system shape the batch
// experiments cannot take. Records stream through an observer and are
// never retained, so the same program scales to millions of jobs in
// constant memory; the summary comes from the engine's streaming
// aggregates (running mean, P² median).
//
//	go run ./examples/opensystem [-jobs N] [-bursty]
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"

	"meshalloc"
)

func main() {
	jobs := flag.Int("jobs", 2000, "number of open-system arrivals to simulate")
	bursty := flag.Bool("bursty", false, "use the on/off bursty arrival process instead of Poisson")
	flag.Parse()
	if err := run(*jobs, *bursty, os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(jobs int, bursty bool, w io.Writer) error {
	eng, err := meshalloc.NewEngine(meshalloc.Config{
		Dims:    []int{16, 16},
		Alloc:   "hilbert/bestfit",
		Pattern: "nbody",
		Seed:    7,
		// Discard per-job data once observers have seen it: the run
		// holds O(machine + in-flight jobs) memory however long the
		// stream gets.
		KeepRecords: meshalloc.Discard,
		KeepNodes:   meshalloc.Discard,
	})
	if err != nil {
		return err
	}

	// An observer sees every record the moment its job finishes; here
	// it just tracks the worst response so far.
	worst := meshalloc.JobRecord{}
	eng.Observe(func(r meshalloc.JobRecord) {
		if r.Response > worst.Response {
			worst = r
		}
	})

	// Jobs arrive every ~620 s on average — about 0.7 offered load for
	// SDSC-sized jobs on 256 processors. The bursty variant clusters
	// the same long-run rate into on/off periods.
	var src meshalloc.Source
	if bursty {
		src = meshalloc.NewBurstySource(200, 3600, 7200, 256, 7)
	} else {
		src = meshalloc.NewPoissonSource(620, 256, 7)
	}
	if err := eng.RunSource(meshalloc.LimitSource(src, jobs), 0); err != nil {
		return err
	}

	res := eng.Result()
	fmt.Fprintf(w, "open-system run: %d jobs, records retained: %d\n", res.Jobs, len(res.Records))
	fmt.Fprintf(w, "  mean response      %10.0f s (streaming)\n", res.MeanResponse)
	fmt.Fprintf(w, "  median response    %10.0f s (P² estimate)\n", res.MedianResponse)
	fmt.Fprintf(w, "  utilization        %10.1f %%\n", res.UtilizationPct)
	fmt.Fprintf(w, "  mean queue length  %10.2f jobs\n", res.MeanQueueLen)
	fmt.Fprintf(w, "  worst job: id %d, size %d, response %.0f s\n", worst.ID, worst.Size, worst.Response)
	return nil
}

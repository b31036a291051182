// Quickstart: simulate a small synthetic workload on a 16x16 mesh under
// two allocation algorithms and compare mean response time.
//
//	go run ./examples/quickstart [-jobs N]
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
	jobs := flag.Int("jobs", 400, "synthetic trace length (lower for a quick smoke run)")
	flag.Parse()
	if err := run(*jobs, os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(jobs int, w io.Writer) error {
	// A workload statistically matched to the SDSC Paragon trace,
	// capped to fit a 16x16 machine.
	tr := meshalloc.NewSDSCTrace(meshalloc.SDSCConfig{Jobs: jobs, MaxSize: 256, Seed: 7})

	for _, spec := range []string{"hilbert/bestfit", "scurve"} {
		res, err := meshalloc.Run(meshalloc.Config{
			Dims:      []int{16, 16},
			Alloc:     spec,
			Pattern:   "alltoall",
			Load:      0.4,  // pack arrivals 2.5x tighter than traced
			TimeScale: 0.02, // contract the trace for a fast demo
			Seed:      7,
		}, tr)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%-16s mean response %8.0f s   contiguous %5.1f%%   avg components %.2f\n",
			spec, res.MeanResponse, res.PctContiguous, res.AvgComponents)
	}
	fmt.Fprintln(w, "\nHilbert with Best Fit keeps jobs compact, so all-to-all traffic")
	fmt.Fprintln(w, "contends less and the FCFS queue drains faster than under the")
	fmt.Fprintln(w, "plain sorted-free-list S-curve allocator.")
	return nil
}

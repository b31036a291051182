// loadsweep performs the paper's load sweep (arrival contraction factors
// 1.0 down to 0.2) for one allocator/pattern pair and prints the response
// curve — one series of Figure 7 — plus queueing diagnostics useful for
// capacity planning.
//
//	go run ./examples/loadsweep -alloc mc -pattern alltoall
package main

import (
	"flag"
	"fmt"
	"log"

	"meshalloc"
)

func main() {
	allocSpec := flag.String("alloc", "hilbert/bestfit", "allocator spec")
	pattern := flag.String("pattern", "alltoall", "communication pattern")
	jobs := flag.Int("jobs", 800, "synthetic trace length (lower for a quick smoke run)")
	flag.Parse()

	tr := meshalloc.NewSDSCTrace(meshalloc.SDSCConfig{Jobs: *jobs, MaxSize: 352, Seed: 11})

	fmt.Printf("allocator %s, pattern %s, 16x22 mesh, %d jobs\n\n", *allocSpec, *pattern, *jobs)
	fmt.Println("load   mean resp (s)   median (s)   mean wait (s)   net avg hops")
	for _, load := range []float64{1.0, 0.8, 0.6, 0.4, 0.2} {
		res, err := meshalloc.Run(meshalloc.Config{
			Dims:      []int{16, 22},
			Alloc:     *allocSpec,
			Pattern:   *pattern,
			Load:      load,
			TimeScale: 0.02,
			Seed:      11,
		}, tr)
		if err != nil {
			log.Fatal(err)
		}
		var wait float64
		for _, r := range res.Records {
			wait += r.Wait
		}
		wait /= float64(len(res.Records))
		fmt.Printf("%.1f    %12.0f   %10.0f   %13.0f   %12.2f\n",
			load, res.MeanResponse, res.MedianResponse, wait, res.Net.AvgHops())
	}
	fmt.Println("\nAs the load factor shrinks (x axis of the paper's Figures 7-8),")
	fmt.Println("arrivals pack tighter, the FCFS queue saturates, and waiting time")
	fmt.Println("comes to dominate response time.")
}

// fragmentation watches how external fragmentation (the share of free
// processors unreachable by a contiguous request) evolves under
// different allocators — the failure mode that pushed production systems
// from convex to noncontiguous allocation, as the paper's Section 2
// recounts.
//
//	go run ./examples/fragmentation [-jobs N]
package main

import (
	"flag"
	"fmt"
	"log"

	"meshalloc"
)

func main() {
	jobs := flag.Int("jobs", 250, "synthetic trace length (lower for a quick smoke run)")
	flag.Parse()
	tr := meshalloc.NewSDSCTrace(meshalloc.SDSCConfig{Jobs: *jobs, MaxSize: 256, Seed: 13})
	m := meshalloc.NewMesh(16, 16)

	fmt.Println("allocator          mean frag   worst frag   mean resp (s)")
	for _, spec := range []string{"hilbert/bestfit", "mc1x1", "random", "scurve"} {
		res, err := meshalloc.Run(meshalloc.Config{
			Dims:      []int{16, 16},
			Alloc:     spec,
			Pattern:   "alltoall",
			Load:      0.4,
			TimeScale: 0.02,
			Seed:      13,
		}, tr)
		if err != nil {
			log.Fatal(err)
		}
		// Rebuild machine snapshots at each job start from the records:
		// jobs running at time t are those with Start <= t < Finish.
		meanFrag, worstFrag := 0.0, 0.0
		samples := 0
		for _, at := range res.Records {
			var busy []int
			for _, other := range res.Records {
				if other.Start <= at.Start && at.Start < other.Finish {
					busy = append(busy, other.Nodes...)
				}
			}
			f := meshalloc.MeasureFragmentation(m, busy)
			if f.FreeProcs == 0 {
				continue
			}
			meanFrag += f.External
			if f.External > worstFrag {
				worstFrag = f.External
			}
			samples++
		}
		if samples > 0 {
			meanFrag /= float64(samples)
		}
		fmt.Printf("%-18s %9.2f   %10.2f   %13.0f\n", spec, meanFrag, worstFrag, res.MeanResponse)
	}
	fmt.Println("\nDispersing allocators shatter the free set: most free processors")
	fmt.Println("sit outside the largest free rectangle, which is why contiguous-")
	fmt.Println("only allocation cannot keep a production machine busy.")
}

package sim

import (
	"testing"

	"meshalloc/internal/alloc"
	"meshalloc/internal/comm"
	"meshalloc/internal/trace"
)

// TestAllocatorPatternMatrix drives every allocator spec against every
// pattern end-to-end and checks the cross-cutting invariants the rest of
// the suite verifies only per-component:
//   - every job completes exactly once,
//   - response = wait + runtime,
//   - timestamps are ordered and non-negative,
//   - the machine is empty at the end (utilization accounting balances).
func TestAllocatorPatternMatrix(t *testing.T) {
	tr := trace.NewSDSC(trace.SDSCConfig{Jobs: 40, MaxSize: 64, Seed: 21})
	specs := append(alloc.Fig11Specs(),
		"random", "submesh", "buddy", "zorder/bestfit", "moore",
		"hilbert/worstfit", "hilbert/nextfit", "hilbert/freelist/page1")
	for _, spec := range specs {
		for _, pattern := range comm.All() {
			cfg := Config{
				Dims:      []int{8, 8},
				Alloc:     spec,
				Pattern:   pattern,
				TimeScale: 0.01,
				Seed:      3,
			}
			res, err := Run(cfg, tr)
			if err != nil {
				t.Fatalf("%s x %s: %v", spec, pattern, err)
			}
			if len(res.Records) != 40 {
				t.Fatalf("%s x %s: %d records", spec, pattern, len(res.Records))
			}
			seen := map[int]bool{}
			for _, r := range res.Records {
				if seen[r.ID] {
					t.Fatalf("%s x %s: job %d finished twice", spec, pattern, r.ID)
				}
				seen[r.ID] = true
				if r.Arrival < 0 || r.Start < r.Arrival || r.Finish < r.Start {
					t.Fatalf("%s x %s: job %d times disordered: %+v", spec, pattern, r.ID, r)
				}
				if diff := r.Response - (r.Wait + r.RunTime); diff > 1e-6 || diff < -1e-6 {
					t.Fatalf("%s x %s: job %d response %g != wait %g + runtime %g",
						spec, pattern, r.ID, r.Response, r.Wait, r.RunTime)
				}
			}
			if res.UtilizationPct < 0 || res.UtilizationPct > 100.0001 {
				t.Fatalf("%s x %s: utilization %g", spec, pattern, res.UtilizationPct)
			}
		}
	}
}

// TestSeedSensitivity checks that different seeds change randomized
// outcomes but never the job count, and that the response distribution
// stays in a sane band across seeds.
func TestSeedSensitivity(t *testing.T) {
	base := trace.NewSDSC(trace.SDSCConfig{Jobs: 60, MaxSize: 64, Seed: 5})
	var responses []float64
	for seed := int64(1); seed <= 4; seed++ {
		cfg := Config{
			Dims:      []int{8, 8},
			Alloc:     "hilbert/bestfit",
			Pattern:   "random",
			TimeScale: 0.01,
			Seed:      seed,
		}
		res, err := Run(cfg, base)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Records) != 60 {
			t.Fatalf("seed %d: %d records", seed, len(res.Records))
		}
		responses = append(responses, res.MeanResponse)
	}
	allSame := true
	for _, r := range responses[1:] {
		if r != responses[0] {
			allSame = false
		}
	}
	if allSame {
		t.Fatal("random pattern ignored the seed")
	}
	for _, r := range responses[1:] {
		if r > responses[0]*3 || r < responses[0]/3 {
			t.Fatalf("seed variance implausibly large: %v", responses)
		}
	}
}

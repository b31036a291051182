package meshalloc

import "testing"

func TestFacadeQuickstart(t *testing.T) {
	tr := NewSDSCTrace(SDSCConfig{Jobs: 60, MaxSize: 64, Seed: 1})
	res, err := Run(Config{
		Dims:      []int{8, 8},
		Alloc:     "hilbert/bestfit",
		Pattern:   "nbody",
		TimeScale: 0.01,
		Seed:      1,
	}, tr)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Records) != 60 {
		t.Fatalf("records = %d", len(res.Records))
	}
	if res.MeanResponse <= 0 {
		t.Fatal("mean response not positive")
	}
}

// TestFacadeEngineStreaming runs the open-system quick start from the
// package documentation through the facade.
func TestFacadeEngineStreaming(t *testing.T) {
	eng, err := NewEngine(Config{
		Dims:  []int{8, 8},
		Alloc: "hilbert/bestfit", Pattern: "nbody",
		Seed:        1,
		KeepRecords: Discard, KeepNodes: Discard,
	})
	if err != nil {
		t.Fatal(err)
	}
	streamed := 0
	eng.Observe(func(r JobRecord) { streamed++ })
	src := LimitSource(NewPoissonSource(500, 64, 1), 200)
	if err := eng.RunSource(src, 0); err != nil {
		t.Fatal(err)
	}
	res := eng.Result()
	if streamed != 200 || res.Jobs != 200 {
		t.Fatalf("streamed %d, Result.Jobs %d, want 200", streamed, res.Jobs)
	}
	if res.Records != nil {
		t.Fatal("Discard run retained records")
	}
	if res.MeanResponse <= 0 || res.MedianResponse <= 0 {
		t.Fatalf("degenerate streaming aggregates: %+v", res)
	}
	// The bursty source drives the same machinery.
	eng2, err := NewEngine(Config{
		Dims: []int{8, 8}, Alloc: "scurve", Pattern: "ring", Seed: 1,
		KeepRecords: Discard, KeepNodes: Discard,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng2.RunSource(LimitSource(NewBurstySource(200, 3600, 7200, 64, 2), 100), 0); err != nil {
		t.Fatal(err)
	}
	if eng2.Result().Jobs != 100 {
		t.Fatalf("bursty run finished %d jobs", eng2.Result().Jobs)
	}
}

func TestFacadeAllocator(t *testing.T) {
	m := NewMesh(8, 8)
	for _, spec := range Allocators() {
		a, err := NewAllocator(m, spec, 1)
		if err != nil {
			t.Fatalf("NewAllocator(%q): %v", spec, err)
		}
		ids, err := a.Allocate(AllocRequest{Size: 6})
		if err != nil || len(ids) != 6 {
			t.Fatalf("%s: Allocate = %v, %v", spec, ids, err)
		}
	}
}

func TestFacadeListings(t *testing.T) {
	if len(Allocators()) != 9 {
		t.Fatalf("Allocators() = %v", Allocators())
	}
	if len(Curves()) < 4 {
		t.Fatalf("Curves() = %v", Curves())
	}
	if len(Patterns()) < 5 {
		t.Fatalf("Patterns() = %v", Patterns())
	}
	order, err := CurveOrder("hilbert", 4, 4)
	if err != nil || len(order) != 16 {
		t.Fatalf("CurveOrder = %v, %v", order, err)
	}
	if _, err := CurveOrder("nope", 4, 4); err == nil {
		t.Fatal("unknown curve should fail")
	}
}

func TestFacadeMetrics(t *testing.T) {
	m := NewMesh(8, 8)
	d := MeasureDispersal(m, []int{0, 1, 8, 9})
	if !d.Contiguous || d.Components != 1 {
		t.Fatalf("2x2 block dispersal = %+v", d)
	}
	f := MeasureFragmentation(m, []int{0, 1, 8, 9})
	if f.FreeProcs != 60 || f.LargestRect != 48 {
		t.Fatalf("fragmentation = %+v", f)
	}
}

func TestFacadeFigure(t *testing.T) {
	fig, err := ReproduceFigure("6", ExperimentOptions{})
	if err != nil || fig.ID != "fig6" {
		t.Fatalf("ReproduceFigure = %v, %v", fig, err)
	}
}

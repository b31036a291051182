// Allocation-regression guards for the simulator's steady-state hot
// paths. The grid experiments spend their time in shell scoring and
// message sends; these tests pin the zero-allocation refactor of those
// paths so a future change cannot silently reintroduce per-candidate or
// per-message garbage. See DESIGN.md ("Zero-allocation hot paths").
//
// The topology layer is dimension-generic, so every guard runs on both
// the paper's 2-D meshes (through the mesh facade, pinning the original
// contract) and a 3-D grid (pinning the generalized route, shell, ring
// and Send paths the ext-cube3d experiment rides on).
package meshalloc

import (
	"fmt"
	"testing"

	"meshalloc/internal/alloc"
	"meshalloc/internal/binpack"
	"meshalloc/internal/curve"
	"meshalloc/internal/mesh"
	"meshalloc/internal/netsim"
	"meshalloc/internal/occupancy"
	"meshalloc/internal/sim"
	"meshalloc/internal/topo"
	"meshalloc/internal/trace"
)

// TestShellIterationZeroAlloc pins mesh shell walking (the inner loop of
// MC's candidate scoring) at zero allocations when the caller reuses a
// scratch buffer.
func TestShellIterationZeroAlloc(t *testing.T) {
	m := mesh.New(16, 22)
	buf := make([]int, 0, m.Size())
	center := mesh.Point{X: 8, Y: 11}
	n := testing.AllocsPerRun(200, func() {
		for k := 0; k <= 8; k++ {
			buf = m.AppendShell(buf[:0], center, 4, 4, k)
		}
	})
	if n != 0 {
		t.Fatalf("AppendShell iteration allocates %.1f objects/run, want 0", n)
	}
}

// TestShellEachZeroAlloc pins the index-callback variant at zero
// allocations, including the closure itself.
func TestShellEachZeroAlloc(t *testing.T) {
	m := mesh.New(16, 22)
	center := mesh.Point{X: 3, Y: 20}
	sum := 0
	n := testing.AllocsPerRun(200, func() {
		for k := 0; k <= 8; k++ {
			m.ShellEach(center, 4, 4, k, func(id int) bool {
				sum += id
				return true
			})
		}
	})
	if n != 0 {
		t.Fatalf("ShellEach iteration allocates %.1f objects/run, want 0", n)
	}
	_ = sum
}

// TestRouteAppendZeroAlloc pins dimension-ordered route construction into
// a reused buffer at zero allocations.
func TestRouteAppendZeroAlloc(t *testing.T) {
	m := mesh.New(16, 22)
	buf := make([]mesh.Link, 0, m.Width()+m.Height())
	n := testing.AllocsPerRun(200, func() {
		buf = m.AppendRoute(buf[:0], 0, m.Size()-1)
		buf = m.AppendRouteYX(buf[:0], m.Size()-1, 3)
	})
	if n != 0 {
		t.Fatalf("AppendRoute allocates %.1f objects/run, want 0", n)
	}
}

// TestNetworkSendZeroAlloc pins steady-state netsim.Send — the
// per-message path of every simulation — at zero allocations, for each
// routing mode.
func TestNetworkSendZeroAlloc(t *testing.T) {
	for _, r := range []netsim.Routing{netsim.RouteXY, netsim.RouteYX, netsim.RouteAdaptive} {
		t.Run(r.String(), func(t *testing.T) {
			m := mesh.New(16, 22)
			cfg := netsim.DefaultConfig()
			cfg.Routing = r
			net := netsim.New(m.Grid(), cfg)
			clock := 0.0
			src := 0
			n := testing.AllocsPerRun(500, func() {
				net.Send(src%m.Size(), (src*7+13)%m.Size(), clock)
				src++
				clock++
			})
			if n != 0 {
				t.Fatalf("Send(%s) allocates %.1f objects/run, want 0", r, n)
			}
		})
	}
}

// TestAllocatorSteadyStateAllocs pins each allocator's Allocate/Release
// cycle at exactly one allocation: the returned id slice, which the
// caller owns for the lifetime of the job and which therefore cannot be
// recycled. Everything else (shell scoring, ring gathering, bin-pack
// interval scans, free-list shuffles) must run in persistent scratch.
func TestAllocatorSteadyStateAllocs(t *testing.T) {
	m := mesh.New(16, 22)
	for _, spec := range append(alloc.Specs(), "random") {
		t.Run(spec, func(t *testing.T) {
			a, err := alloc.Spec(m.Grid(), spec, 1)
			if err != nil {
				t.Fatal(err)
			}
			// Warm the scratch buffers past their high-water mark.
			for i := 0; i < 3; i++ {
				ids, err := a.Allocate(alloc.Request{Size: 16})
				if err != nil {
					t.Fatal(err)
				}
				a.Release(ids)
			}
			n := testing.AllocsPerRun(100, func() {
				ids, err := a.Allocate(alloc.Request{Size: 16})
				if err != nil {
					t.Fatal(err)
				}
				a.Release(ids)
			})
			if n > 1 {
				t.Fatalf("%s Allocate+Release allocates %.1f objects/run, want <= 1 (the returned slice)", spec, n)
			}
		})
	}
}

// TestIndexedAllocatorSteadyStateAllocs pins the count-don't-gather
// MC/MC1x1/Gen-Alg scorers at one allocation per cycle on a
// production-scale machine at mixed occupancy: the occupancy-index
// queries (box counts, ball counts, marginals) and the winner-only
// gather must all run in persistent scratch.
func TestIndexedAllocatorSteadyStateAllocs(t *testing.T) {
	for _, dims := range [][]int{{32, 32}, {16, 16, 16}} {
		g := topo.New(dims)
		for _, spec := range []string{"mc", "mc1x1", "genalg"} {
			t.Run(fmt.Sprintf("%v/%s", dims, spec), func(t *testing.T) {
				a, err := alloc.Spec(g, spec, 1)
				if err != nil {
					t.Fatal(err)
				}
				// Mixed occupancy plus scratch warm-up.
				var live [][]int
				for a.NumFree() > g.Size()/3 {
					ids, err := a.Allocate(alloc.Request{Size: 1 + len(live)%29})
					if err != nil {
						t.Fatal(err)
					}
					live = append(live, ids)
				}
				for i := 0; i < len(live); i += 4 {
					a.Release(live[i])
				}
				n := testing.AllocsPerRun(30, func() {
					ids, err := a.Allocate(alloc.Request{Size: 48})
					if err != nil {
						t.Fatal(err)
					}
					a.Release(ids)
				})
				if n > 1 {
					t.Fatalf("%s Allocate+Release allocates %.1f objects/run at mixed occupancy, want <= 1", spec, n)
				}
			})
		}
	}
}

// TestEngineDiscardPerJobAllocs pins the engine's Discard retention
// path at a small constant allocation count per job, independent of
// message quota and stream length: the pooled job-store handles, the
// recycled arrival slots and event-heap entries, zero-alloc Send, the
// counted dispersal metrics and the skipped record/node copies must
// keep per-job garbage down to the allocator's returned id slice plus a
// handful of per-job objects (pattern generator). Batch-retention
// overhead (record slice growth, node copies) or any per-message
// allocation would push this well past the bound.
func TestEngineDiscardPerJobAllocs(t *testing.T) {
	const jobs = 2000
	cfg := sim.Config{
		MeshW: 16, MeshH: 16,
		Alloc: "hilbert/bestfit", Pattern: "nbody",
		Seed:          1,
		MsgsPerSecond: 0.01, // ~100 messages per job: quota-linear garbage would dominate
		KeepRecords:   sim.Discard,
		KeepNodes:     sim.Discard,
	}
	n := testing.AllocsPerRun(1, func() {
		e, err := sim.NewEngine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		count := 0
		e.Observe(func(sim.JobRecord) { count++ })
		if err := e.RunSource(trace.Limit(trace.NewPoisson(1000, 256, 1), jobs), 0); err != nil {
			t.Fatal(err)
		}
		if count != jobs {
			t.Fatalf("finished %d jobs", count)
		}
	})
	// The counted dispersal metrics (no per-finish component slices),
	// the SoA job store and the pointer-free event heap with its arrival
	// slab took this from the original 20 to about 2.
	if perJob := n / jobs; perJob > 4 {
		t.Fatalf("Discard engine allocates %.1f objects/job, want <= 4", perJob)
	}
}

// TestBitsetScanZeroAlloc pins the word-parallel free-map primitives —
// the run-scan idiom (NextSet/NextClear) and the width-w run mask — at
// zero allocations when the caller reuses its buffers. These are the
// inner loops of every bitset-backed enumeration (see DESIGN.md,
// "Word-parallel free maps").
func TestBitsetScanZeroAlloc(t *testing.T) {
	bs := occupancy.NewBitset(1024)
	bs.SetAll()
	// Scattered mixed-size holes so the scan crosses many runs.
	for i := 0; i < 1024; i += 3 {
		bs.Clear(i)
	}
	dst := make([]uint64, len(bs.Words()))
	runs, free := 0, 0
	n := testing.AllocsPerRun(200, func() {
		for i := 0; i < bs.Len(); {
			j := bs.NextSet(i)
			if j < 0 {
				break
			}
			k := bs.NextClear(j)
			runs++
			free += k - j
			i = k
		}
		occupancy.RunMask(dst, bs.Words(), 7)
	})
	if n != 0 {
		t.Fatalf("bitset run scan allocates %.1f objects/run, want 0", n)
	}
	_, _ = runs, free
}

// TestBinpackIntervalScanZeroAlloc pins the word-parallel free-interval
// enumeration of the bin-packing substrate at zero allocations into a
// reused buffer, at mixed occupancy where the naive scan used to walk
// rank by rank.
func TestBinpackIntervalScanZeroAlloc(t *testing.T) {
	order := curve.Hilbert{}.Order(32, 32)
	p := binpack.New(order)
	var live [][]int
	for p.NumFree() > 64 {
		ids, err := p.Allocate(1+len(live)%13, binpack.FirstFit)
		if err != nil {
			t.Fatal(err)
		}
		live = append(live, ids)
	}
	for i := 0; i < len(live); i += 3 {
		p.Release(live[i])
	}
	buf := make([]binpack.Interval, 0, 1024)
	n := testing.AllocsPerRun(200, func() {
		buf = p.AppendIntervals(buf[:0])
	})
	if n != 0 {
		t.Fatalf("AppendIntervals allocates %.1f objects/run, want 0", n)
	}
	if len(buf) == 0 {
		t.Fatal("no free intervals at mixed occupancy")
	}
}

// TestIncrementalMCSteadyStateAllocs pins the indexed MC scorer at one
// allocation per Allocate/Release cycle — the returned slice: scoring
// reads the occupancy index through value-typed box bounds and the
// winner's gather reuses persistent scratch. It checks a fixed size and
// a size cycling through a mixed list, the shape churn of the closed
// SDSC replay.
func TestIncrementalMCSteadyStateAllocs(t *testing.T) {
	mixed := []int{1, 9, 4, 32, 2, 16, 7, 24, 48, 3, 12}
	for _, dims := range [][]int{{32, 32}, {16, 16, 16}} {
		t.Run(fmt.Sprint(dims), func(t *testing.T) {
			g := topo.New(dims)
			a := alloc.NewMC(g)
			var live [][]int
			for a.NumFree() > g.Size()/3 {
				ids, err := a.Allocate(alloc.Request{Size: 1 + len(live)%29})
				if err != nil {
					t.Fatal(err)
				}
				live = append(live, ids)
			}
			for i := 0; i < len(live); i += 4 {
				a.Release(live[i])
			}
			cycle := func(size int) {
				ids, err := a.Allocate(alloc.Request{Size: size})
				if err != nil {
					t.Fatal(err)
				}
				a.Release(ids)
			}
			// Warm the gather scratch up to the largest size.
			for _, size := range mixed {
				cycle(size)
			}
			if n := testing.AllocsPerRun(30, func() { cycle(48) }); n > 1 {
				t.Fatalf("MC Allocate+Release (size 48) allocates %.1f objects/run, want <= 1", n)
			}
			i := 0
			n := testing.AllocsPerRun(3*len(mixed), func() {
				cycle(mixed[i%len(mixed)])
				i++
			})
			if n > 1 {
				t.Fatalf("MC Allocate+Release (mixed sizes) allocates %.1f objects/run, want <= 1", n)
			}
		})
	}
}

// TestGridWalkersZeroAlloc pins the dimension-generic route, shell and
// ring walkers at zero allocations on 2-D and 3-D grids alike.
func TestGridWalkersZeroAlloc(t *testing.T) {
	for _, dims := range [][]int{{16, 22}, {8, 8, 8}} {
		t.Run(fmt.Sprint(dims), func(t *testing.T) {
			g := topo.New(dims)
			var c, ext topo.Point
			for i, d := range dims {
				c[i] = d / 2
				ext[i] = 2
			}
			linkBuf := make([]topo.Link, 0, 64)
			idBuf := make([]int, 0, g.Size())
			n := testing.AllocsPerRun(200, func() {
				linkBuf = g.AppendRoute(linkBuf[:0], 0, g.Size()-1)
				linkBuf = g.AppendRouteRev(linkBuf[:0], g.Size()-1, 3)
				for k := 0; k <= 6; k++ {
					idBuf = g.AppendShell(idBuf[:0], c, ext, k)
				}
				idBuf = g.AppendRing(idBuf[:0], c, 4)
				g.ShellEach(c, ext, 2, func(int) bool { return true })
			})
			if n != 0 {
				t.Fatalf("grid walkers allocate %.1f objects/run, want 0", n)
			}
		})
	}
}

// TestNetworkSend3DZeroAlloc pins steady-state Send on a native 3-D
// machine at zero allocations for every routing mode, the guarantee the
// ext-cube3d contention runs depend on.
func TestNetworkSend3DZeroAlloc(t *testing.T) {
	for _, r := range []netsim.Routing{netsim.RouteXY, netsim.RouteYX, netsim.RouteAdaptive} {
		t.Run(r.String(), func(t *testing.T) {
			g := topo.New([]int{8, 8, 8})
			cfg := netsim.DefaultConfig()
			cfg.Routing = r
			net := netsim.New(g, cfg)
			clock := 0.0
			src := 0
			n := testing.AllocsPerRun(500, func() {
				net.Send(src%g.Size(), (src*7+13)%g.Size(), clock)
				src++
				clock++
			})
			if n != 0 {
				t.Fatalf("Send(%s) allocates %.1f objects/run on 3-D, want 0", r, n)
			}
		})
	}
}

// TestAllocatorSteadyState3DAllocs pins the generic allocators on a 3-D
// machine at one allocation per cycle (the returned slice), mirroring
// the 2-D guard: the dimension-generic refactor must not cost the
// shell/ring scoring paths their persistent-scratch discipline.
func TestAllocatorSteadyState3DAllocs(t *testing.T) {
	g := topo.New([]int{8, 8, 8})
	for _, spec := range []string{"mc", "mc1x1", "genalg", "random", "hilbert", "hilbert/bestfit", "scurve", "proj2d-hilbert"} {
		t.Run(spec, func(t *testing.T) {
			a, err := alloc.Spec(g, spec, 1)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 3; i++ {
				ids, err := a.Allocate(alloc.Request{Size: 16})
				if err != nil {
					t.Fatal(err)
				}
				a.Release(ids)
			}
			n := testing.AllocsPerRun(50, func() {
				ids, err := a.Allocate(alloc.Request{Size: 16})
				if err != nil {
					t.Fatal(err)
				}
				a.Release(ids)
			})
			if n > 1 {
				t.Fatalf("%s Allocate+Release allocates %.1f objects/run on 3-D, want <= 1", spec, n)
			}
		})
	}
}

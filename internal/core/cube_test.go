package core

import (
	"testing"
	"testing/quick"

	"meshalloc/internal/alloc"
	"meshalloc/internal/curve"
	"meshalloc/internal/topo"
)

// TestExtCubeTable pins the ext-cube table to its published rows at the
// default options (seed 1, 1500 jobs → 150 study jobs), at 4000 jobs
// and at seed 7.
func TestExtCubeTable(t *testing.T) {
	for _, tc := range []struct {
		name string
		opt  Options
		want [][]string
	}{
		{"default", Options{}, [][]string{
			{"hilbert3", "4.006", "96"},
			{"snake3", "4.370", "96"},
			{"ring3", "3.420", "96"},
		}},
		{"jobs=4000", Options{Jobs: 4000}, [][]string{
			{"hilbert3", "4.529", "220"},
			{"snake3", "4.900", "220"},
			{"ring3", "3.709", "220"},
		}},
		{"seed=7", Options{Seed: 7}, [][]string{
			{"hilbert3", "3.892", "95"},
			{"snake3", "4.594", "95"},
			{"ring3", "3.505", "95"},
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fig, err := ExtCube(tc.opt)
			if err != nil {
				t.Fatal(err)
			}
			rows := fig.Tables[0].Rows
			if len(rows) != len(tc.want) {
				t.Fatalf("%d rows, want %d", len(rows), len(tc.want))
			}
			for i := range tc.want {
				for j := range tc.want[i] {
					if rows[i][j] != tc.want[i][j] {
						t.Fatalf("row %d = %v, want %v", i, rows[i], tc.want[i])
					}
				}
			}
		})
	}
}

// cubeStrategies builds the cube study's three allocators the way
// cubeStudy does.
func cubeStrategies(t *testing.T, g *topo.Grid) map[string]studyAllocator {
	t.Helper()
	out := map[string]studyAllocator{"ring3": newRingAlloc(g)}
	for name, spec := range map[string]string{"hilbert3": "hilbert", "snake3": "scurve"} {
		a, err := alloc.Spec(g, spec, 1)
		if err != nil {
			t.Fatal(err)
		}
		out[name] = a
	}
	return out
}

func TestPagedAlloc3FreeListOrder(t *testing.T) {
	dims := []int{4, 4, 4}
	g := topo.New(dims)
	ids, err := cubeStrategies(t, g)["hilbert3"].Allocate(alloc.Request{Size: 8})
	if err != nil {
		t.Fatal(err)
	}
	want := curve.Hilbert{}.OrderDims(dims)[:8]
	for i := range want {
		if ids[i] != want[i] {
			t.Fatalf("free list prefix mismatch: %v vs %v", ids, want)
		}
	}
	// A Hilbert prefix of 8 on a power-of-two cube is one octant.
	if d := g.AvgPairwiseDist(ids); d > 2 {
		t.Fatalf("hilbert3 prefix dispersed: %g", d)
	}
}

func TestAllocatorsNeverDoubleAllocate(t *testing.T) {
	g := topo.New([]int{4, 4, 4})
	for _, name := range []string{"hilbert3", "snake3", "ring3"} {
		f := func(sizes []uint8) bool {
			a := cubeStrategies(t, g)[name]
			busy := map[int]bool{}
			var live [][]int
			for _, s := range sizes {
				ids, err := a.Allocate(alloc.Request{Size: int(s)%8 + 1})
				if err != nil {
					if len(live) == 0 {
						continue
					}
					a.Release(live[0])
					for _, id := range live[0] {
						delete(busy, id)
					}
					live = live[1:]
					continue
				}
				for _, id := range ids {
					if busy[id] {
						return false
					}
					busy[id] = true
				}
				live = append(live, ids)
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}

func TestRingAllocCompactOnEmptyMesh(t *testing.T) {
	g := topo.New([]int{6, 6, 6})
	a := newRingAlloc(g)
	ids, err := a.Allocate(alloc.Request{Size: 7})
	if err != nil {
		t.Fatal(err)
	}
	// Center plus 6 face neighbours: mean pairwise distance under 2.
	if d := g.AvgPairwiseDist(ids); d > 2 {
		t.Fatalf("ring allocation too dispersed: %g", d)
	}
	a.Release(ids)
	if a.free != g.Size() {
		t.Fatal("release did not restore free count")
	}
	for id, b := range a.busy {
		if b {
			t.Fatalf("node %d still busy after release", id)
		}
	}
}

func TestRingAllocErrors(t *testing.T) {
	a := newRingAlloc(topo.New([]int{2, 2, 2}))
	if _, err := a.Allocate(alloc.Request{Size: 0}); err == nil {
		t.Fatal("size 0 should fail")
	}
	if _, err := a.Allocate(alloc.Request{Size: 9}); err == nil {
		t.Fatal("oversize should fail")
	}
}

func TestCubeStudyRanksCurves(t *testing.T) {
	// On an 8x8x8 machine under churn, the locality-aware strategies
	// (hilbert3 free list and ring growing) must allocate more compactly
	// than the 3-D snake, echoing the paper's 2-D conclusion that the
	// choice of curve dominates.
	results, err := cubeStudy(topo.New([]int{8, 8, 8}), 120, 4, 32, 1)
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]studyResult{}
	for _, r := range results {
		if r.allocations == 0 {
			t.Fatalf("%s made no allocations", r.name)
		}
		byName[r.name] = r
	}
	for _, name := range []string{"hilbert3", "ring3"} {
		if byName[name].meanAvgPairwise >= byName["snake3"].meanAvgPairwise {
			t.Errorf("%s (%.2f) should beat snake3 (%.2f)",
				name, byName[name].meanAvgPairwise, byName["snake3"].meanAvgPairwise)
		}
	}
}

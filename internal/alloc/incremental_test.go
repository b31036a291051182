package alloc

import "testing"

// Tests pinning the indexed MC scorer, which reads the incremental
// occupancy index, to the naive reference under allocate/release churn.

// churnSteady drives pairs of allocators through a same-size
// allocate/release workload, failing on any divergence.
func churnSteady(t *testing.T, name string, a, b Allocator, seed uint64, size, steps int) {
	t.Helper()
	x := xorshift(seed | 1)
	var live [][]int
	for step := 0; step < steps; step++ {
		if a.NumFree() != b.NumFree() {
			t.Fatalf("%s step %d: NumFree %d vs %d", name, step, a.NumFree(), b.NumFree())
		}
		if a.NumFree() >= size && (len(live) == 0 || x.intn(3) != 0) {
			got, err1 := a.Allocate(Request{Size: size})
			want, err2 := b.Allocate(Request{Size: size})
			if (err1 == nil) != (err2 == nil) {
				t.Fatalf("%s step %d: error mismatch %v vs %v", name, step, err1, err2)
			}
			if err1 != nil {
				continue
			}
			if !sameIDs(got, want) {
				t.Fatalf("%s step %d seed %#x: ids %v vs %v", name, step, seed, got, want)
			}
			live = append(live, got)
		} else if len(live) > 0 {
			i := x.intn(len(live))
			a.Release(live[i])
			b.Release(live[i])
			live = append(live[:i], live[i+1:]...)
		}
	}
}

// TestIncrementalMCMatchesNaiveSteady holds the request size fixed and
// requires the indexed scorer to track the naive reference exactly.
func TestIncrementalMCMatchesNaiveSteady(t *testing.T) {
	for _, oneByOne := range []bool{false, true} {
		name := "mc"
		if oneByOne {
			name = "mc1x1"
		}
		x := xorshift(31)
		for trial := 0; trial < 25; trial++ {
			g := equivGrid(x.next())
			indexed := NewMC(g)
			indexed.oneByOne = oneByOne
			naive := newMCRef(g, oneByOne)
			size := 1 + x.intn(9)
			churnSteady(t, name, indexed, naive, x.next(), size, 30)
		}
	}
}

// FuzzIncrementalMC fuzzes the indexed MC/MC1x1 scorer against the
// naive reference over arbitrary machine shapes, random preload
// densities and request sizes.
func FuzzIncrementalMC(f *testing.F) {
	f.Add(uint64(1), uint8(3), uint8(120), false)
	f.Add(uint64(77), uint8(6), uint8(40), true)
	f.Fuzz(func(t *testing.T, seed uint64, size, density uint8, oneByOne bool) {
		g := equivGrid(seed)
		indexed := NewMC(g)
		indexed.oneByOne = oneByOne
		naive := newMCRef(g, oneByOne)
		x := xorshift(seed ^ 0xabcdef | 1)
		var busy []int
		for id := 0; id < g.Size(); id++ {
			if x.intn(256) < int(density) {
				busy = append(busy, id)
			}
		}
		if len(busy) > 0 {
			indexed.take(busy)
			naive.take(busy)
		}
		sz := int(size)%12 + 1
		churnSteady(t, "fuzz", indexed, naive, seed, sz, 15)
	})
}

// TestMCOccupyMatchesNaive restores a random busy pattern through the
// Occupier interface — the path checkpoint restore takes — and requires
// the indexed scorer's occupancy index to agree with the busy bitmap and
// to keep tracking the naive reference under churn afterwards. MC has
// no Occupy of its own: tracker.Occupy must keep the box index in step.
func TestMCOccupyMatchesNaive(t *testing.T) {
	for _, oneByOne := range []bool{false, true} {
		x := xorshift(57)
		for trial := 0; trial < 20; trial++ {
			g := equivGrid(x.next())
			if trial%4 == 3 {
				g = equivGrid4(x.next())
			}
			indexed := NewMC(g)
			indexed.oneByOne = oneByOne
			naive := newMCRef(g, oneByOne)
			var occ Occupier = indexed
			var ids []int
			for id := 0; id < g.Size(); id++ {
				if x.intn(5) < 2 {
					ids = append(ids, id)
				}
			}
			occ.Occupy(ids)
			naive.Occupy(ids)
			if err := indexed.AuditIndexes(); err != nil {
				t.Fatalf("%s trial %d after Occupy: %v", indexed.Name(), trial, err)
			}
			churnSteady(t, indexed.Name(), indexed, naive, x.next(), 1+x.intn(6), 30)
		}
	}
}

// TestMCResetMatchesFresh churns an indexed MC through allocations and
// downed nodes, resets it, and requires it to behave exactly like a
// freshly built allocator: Reset must clear the box index with the
// busy bitmap and the fault marks.
func TestMCResetMatchesFresh(t *testing.T) {
	for _, oneByOne := range []bool{false, true} {
		x := xorshift(91)
		for trial := 0; trial < 20; trial++ {
			g := equivGrid(x.next())
			if trial%4 == 3 {
				g = equivGrid4(x.next())
			}
			used := NewMC(g)
			used.oneByOne = oneByOne
			for i := 0; i < 4; i++ {
				if _, err := used.Allocate(Request{Size: 1 + x.intn(4)}); err != nil {
					break
				}
			}
			for id := 0; id < g.Size(); id++ {
				if !used.busy[id] && x.intn(4) == 0 {
					used.MarkDown(id)
				}
			}
			used.Reset()
			if used.NumFree() != g.Size() {
				t.Fatalf("%s trial %d: NumFree %d after Reset, want %d", used.Name(), trial, used.NumFree(), g.Size())
			}
			if err := used.AuditIndexes(); err != nil {
				t.Fatalf("%s trial %d after Reset: %v", used.Name(), trial, err)
			}
			fresh := NewMC(g)
			fresh.oneByOne = oneByOne
			churnSteady(t, used.Name(), used, fresh, x.next(), 1+x.intn(6), 30)
		}
	}
}

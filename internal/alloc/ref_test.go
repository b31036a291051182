package alloc

import (
	"meshalloc/internal/mesh"
	"meshalloc/internal/topo"
)

// Reference implementations the production fast paths are tested
// against. They read the same package state as the code under test but
// take the direct route: gather every candidate, probe every cell.

// mcRef is the reference MC/MC1x1 scorer: it gathers the shells of
// every free candidate and keeps the first strictly cheaper one. It
// shares the busy set, shell walk and Name of a plain MC without an
// occupancy index, so it differs from the indexed scorer only in how
// candidates are scored.
type mcRef struct {
	*MC
	best []int
}

func newMCRef(g *topo.Grid, oneByOne bool) *mcRef {
	return &mcRef{MC: &MC{tracker: newTracker(g), oneByOne: oneByOne}}
}

// Allocate implements Allocator.
func (r *mcRef) Allocate(req Request) ([]int, error) {
	if err := r.check(req.Size); err != nil {
		return nil, err
	}
	ext := r.extent(req)
	bestCost := -1
	for center := 0; center < r.g.Size(); center++ {
		if r.busy[center] {
			continue
		}
		cost, ok := r.gather(r.g.Coord(center), ext, req.Size)
		if ok && (bestCost == -1 || cost < bestCost) {
			bestCost = cost
			r.best = append(r.best[:0], r.gatherBuf...)
		}
	}
	if bestCost == -1 {
		return nil, ErrInsufficient
	}
	best := append([]int(nil), r.best...)
	r.take(best)
	return best, nil
}

// findFreeRef is the cell-by-cell reference of SubmeshFirstFit.findFree:
// the first size processors of the first fully-free w x h submesh in
// row-major anchor order, or nil.
func findFreeRef(a *SubmeshFirstFit, w, h, size int) []int {
	for y := 0; y+h <= a.m.Height(); y++ {
	anchors:
		for x := 0; x+w <= a.m.Width(); x++ {
			ids := a.m.Nodes(mesh.Submesh{Origin: mesh.Point{X: x, Y: y}, W: w, H: h})
			for _, id := range ids {
				if a.busy[id] {
					continue anchors
				}
			}
			return ids[:size]
		}
	}
	return nil
}

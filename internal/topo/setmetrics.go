package topo

// This file holds the count-only node-set metrics behind the simulator's
// per-finish record fields. Profiling the million-job open-system run
// (see DESIGN.md, "Event core") showed the engine spending ~70% of wall
// clock in the O(k²) pairwise-distance walk and another ~20% gathering
// component slices it only counted — so both metrics get count-don't-
// gather forms here, exact to the bit against the reference walks:
//
//   - TotalPairwiseDistCounted sums per-axis coordinate histograms in
//     O(k·nd + Σ extents) instead of decoding coordinates for every one
//     of the k(k-1)/2 pairs. Manhattan (and per-axis torus) distance
//     decomposes axis by axis, and each axis' pair sum is an integer
//     prefix-sum identity over the histogram, so the total is the same
//     int the double loop produces — not an approximation.
//   - CountComponents runs the same flood fill as Components but stamps
//     epochs into reusable scratch instead of building sorted [][]int
//     slices, and steps to neighbors by stride arithmetic guarded by the
//     grid's coordinate table instead of Coord/ID round trips. The
//     component count is traversal-order independent, so it equals
//     len(Components(ids)) exactly.
//
// Both take a *SetScratch the caller owns, keeping steady-state use
// allocation-free; the reference walks remain in topo.go for callers
// that need the materialized components and for equivalence testing.

// SetScratch is reusable state for CountComponents and
// TotalPairwiseDistCounted. The zero value is ready to use; one scratch
// may be shared across any grids but not across goroutines.
type SetScratch struct {
	in    []int64 // membership epoch stamps, indexed by node id
	seen  []int64 // visited epoch stamps, indexed by node id
	epoch int64
	stack []int
	hist  []int // per-axis coordinate histogram, sized to the widest extent
}

// ensure sizes the scratch for g. Epoch stamping makes clearing free:
// bumping the epoch invalidates every stale entry at once.
func (sc *SetScratch) ensure(g *Grid) {
	if len(sc.in) < g.size {
		sc.in = make([]int64, g.size)
		sc.seen = make([]int64, g.size)
		sc.epoch = 0
	}
	maxDim := 0
	for i := 0; i < g.nd; i++ {
		if g.dim[i] > maxDim {
			maxDim = g.dim[i]
		}
	}
	if len(sc.hist) < maxDim {
		sc.hist = make([]int, maxDim)
	}
	sc.epoch++
}

// TotalPairwiseDistCounted returns TotalPairwiseDist(ids) via per-axis
// histograms keyed by the coordinate table: O(k·nd + Σ extents) on a
// mesh, plus an O(extent²) occupied-bucket pass per wrapped axis on a
// torus (extents are small, so the quadratic term is over buckets,
// never over nodes). The result is integer-exact, so AvgPairwiseDist
// derived from it is bit-identical to the reference.
func (g *Grid) TotalPairwiseDistCounted(ids []int, sc *SetScratch) int {
	if len(ids) < 2 {
		return 0
	}
	sc.ensure(g)
	total := 0
	for axis := 0; axis < g.nd; axis++ {
		ext := g.dim[axis]
		if ext == 1 {
			continue
		}
		hist := sc.hist[:ext]
		for i := range hist {
			hist[i] = 0
		}
		for _, id := range ids {
			hist[g.coords[id][axis]]++
		}
		if g.torus {
			// Wrapped axis: pair buckets directly. O(ext²) over occupied
			// buckets, cheap because extents are machine side lengths.
			for a := 0; a < ext; a++ {
				ha := hist[a]
				if ha == 0 {
					continue
				}
				for b := a + 1; b < ext; b++ {
					hb := hist[b]
					if hb == 0 {
						continue
					}
					d := b - a
					if ext-d < d {
						d = ext - d
					}
					total += ha * hb * d
				}
			}
			continue
		}
		// Plain axis: sum of |a-b| over all pairs by ascending prefix
		// sums — each bucket contributes (count below)*v - (sum below).
		cnt, sum := 0, 0
		for v := 0; v < ext; v++ {
			h := hist[v]
			if h == 0 {
				continue
			}
			total += h * (cnt*v - sum)
			cnt += h
			sum += h * v
		}
	}
	return total
}

// AvgPairwiseDistCounted returns AvgPairwiseDist(ids) using the counted
// total — the same division over the same integer, hence bit-identical.
func (g *Grid) AvgPairwiseDistCounted(ids []int, sc *SetScratch) float64 {
	if len(ids) < 2 {
		return 0
	}
	pairs := len(ids) * (len(ids) - 1) / 2
	return float64(g.TotalPairwiseDistCounted(ids, sc)) / float64(pairs)
}

// CountComponents returns len(Components(ids)) without materializing the
// components: an epoch-stamped flood fill whose neighbor steps are
// stride additions guarded by the node's coordinates from the table.
func (g *Grid) CountComponents(ids []int, sc *SetScratch) int {
	if len(ids) == 0 {
		return 0
	}
	sc.ensure(g)
	for _, id := range ids {
		sc.in[id] = sc.epoch
	}
	comps := 0
	stack := sc.stack[:0]
	for _, start := range ids {
		if sc.seen[start] == sc.epoch {
			continue
		}
		comps++
		sc.seen[start] = sc.epoch
		stack = append(stack, start)
		for len(stack) > 0 {
			u := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			pu := &g.coords[u]
			for axis := 0; axis < g.nd; axis++ {
				ext := g.dim[axis]
				if ext == 1 {
					continue
				}
				stride := g.stride[axis]
				c := pu[axis]
				// Toward increasing coordinates, wrapping on a torus.
				v := -1
				if c+1 < ext {
					v = u + stride
				} else if g.torus {
					v = u - stride*(ext-1)
				}
				if v >= 0 && sc.in[v] == sc.epoch && sc.seen[v] != sc.epoch {
					sc.seen[v] = sc.epoch
					stack = append(stack, v)
				}
				// Toward decreasing coordinates.
				v = -1
				if c > 0 {
					v = u - stride
				} else if g.torus {
					v = u + stride*(ext-1)
				}
				if v >= 0 && sc.in[v] == sc.epoch && sc.seen[v] != sc.epoch {
					sc.seen[v] = sc.epoch
					stack = append(stack, v)
				}
			}
		}
	}
	sc.stack = stack[:0]
	return comps
}

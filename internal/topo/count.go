package topo

// Clipped-box bound helpers: the counting primitives behind the
// occupancy index. MC-style scoring asks "how many free processors lie
// in shell k around this candidate" without walking the shell; for the
// answer to be bit-identical to the walk, the box bounds used for
// counting must clip exactly the way shellWalk clips — and they do,
// because shellWalk derives its bounds from these same two helpers.
//
// The arithmetic is split so a scorer probing many shells around one
// candidate pays the centering once (ShellBase) and one clip per axis
// per shell (ShellBounds).

// ShellBase returns the unclipped half-open bounds [lo, hi) of the box
// of active extents ext centered on c in the MC sense (origin
// c - ext/2 per axis, rounding down) — shell 0 before clipping. Axes at
// or above the grid's dimensionality are [0, 1), so BoxVolume works
// over all MaxDims axes.
func (g *Grid) ShellBase(c, ext Point) (lo, hi Point) {
	for i := 0; i < g.nd; i++ {
		lo[i] = c[i] - ext[i]/2
		hi[i] = lo[i] + ext[i]
	}
	for i := g.nd; i < MaxDims; i++ {
		hi[i] = 1
	}
	return lo, hi
}

// ShellBounds grows the ShellBase bounds [lo, hi) by k on every active
// side and clips them to the grid: the on-grid outer boundary of shell
// k. The clipped box is empty (lo >= hi on some axis) only for k < 0 or
// a zero extent; a box grown from an on-grid center is never empty.
func (g *Grid) ShellBounds(lo, hi Point, k int) (Point, Point) {
	for i := 0; i < g.nd; i++ {
		lo[i] = max(lo[i]-k, 0)
		hi[i] = min(hi[i]+k, g.dim[i])
	}
	return lo, hi
}

// BoxVolume returns the number of cells in the half-open box [lo, hi)
// as produced by ShellBounds. It assumes lo <= hi on every axis.
func BoxVolume(lo, hi Point) int {
	v := 1
	for i := 0; i < MaxDims; i++ {
		v *= hi[i] - lo[i]
	}
	return v
}

// ClipInterval returns the intersection of [lo, hi] (inclusive) with
// axis a's extent as a half-open interval [clo, chi); chi <= clo when
// the intersection is empty.
func (g *Grid) ClipInterval(a, lo, hi int) (clo, chi int) {
	return max(lo, 0), min(hi+1, g.dim[a])
}

// Package occupancy maintains incremental indexes over an allocator's
// busy bitmap so that MC-style shell scoring and Gen-Alg's nearest-free
// search can *count* candidate allocations instead of gathering them.
//
// Two structures are provided:
//
//   - Boxes answers "free processors inside this clipped axis-aligned
//     box". The general layout is an n-dimensional Fenwick
//     (binary-indexed) tree over the busy cells: O(log^d n) point
//     updates, O(2^d log^d n) box counts by inclusion–exclusion over
//     the box corners. On the 2-D and 3-D machines the experiments
//     actually run, profiling showed the Fenwick's scattered
//     log-structured reads cost almost as much as walking the shells
//     outright, so those dimensionalities keep dense slab prefixes
//     instead — per-row prefix sums in 2-D (O(n) updates, two
//     sequential reads per row of the box), per-plane summed-area
//     tables in 3-D (O(n^2) updates, four reads per plane). Queries
//     outnumber updates by the candidate count times the shell count,
//     which makes trading update cost for query cost a large net win;
//     see DESIGN.md ("The occupancy index") for the measurements.
//
//   - Balls (balls.go) answers "free processors at Manhattan distance
//     at most r", the geometry of Gen-Alg's nearest-free gather, plus
//     the per-slice cross-section counts Gen-Alg needs to reconstruct
//     exact pairwise-distance scores without touching the member
//     processors.
//
// Both indexes are pure counters: they never own the busy state, they
// mirror it. The alloc package's tracker feeds every take/release into
// them, and equivalence tests in internal/alloc pin the counted scores
// to the walked ones bit for bit.
package occupancy

import "meshalloc/internal/topo"

// Boxes is an incremental free-count index over axis-aligned boxes of
// one machine. The zero value is not usable; construct with NewBoxes.
type Boxes struct {
	g  *topo.Grid
	nd int
	n  [topo.MaxDims]int // per-axis extents
	// nd <= 2: per-row prefix sums over axis 0. rows[y*prow+x] counts
	// busy cells in row y with coordinate < x.
	rows []int
	prow int // ints per row: n[0]+1
	// nd == 3: per-plane summed-area tables. planes[z*pplane+y*prow+x]
	// counts busy cells in plane z with coordinates < (x, y).
	planes []int
	pplane int // ints per plane: (n[0]+1)*(n[1]+1)
	// nd == 4: the n-D Fenwick tree, 1-based per axis.
	tree []int
	fs   [topo.MaxDims]int // Fenwick layout strides over (n_i+1)-sized axes
}

// NewBoxes returns an empty box index over g (every processor free).
func NewBoxes(g *topo.Grid) *Boxes {
	b := &Boxes{g: g, nd: g.ND()}
	for i := 0; i < b.nd; i++ {
		b.n[i] = g.Dim(i)
	}
	for i := b.nd; i < topo.MaxDims; i++ {
		b.n[i] = 1
	}
	b.prow = b.n[0] + 1
	switch {
	case b.nd <= 2:
		b.rows = make([]int, b.n[1]*b.prow)
	case b.nd == 3:
		b.pplane = b.prow * (b.n[1] + 1)
		b.planes = make([]int, b.n[2]*b.pplane)
	default:
		sz := 1
		for i := 0; i < b.nd; i++ {
			b.fs[i] = sz
			sz *= b.n[i] + 1
		}
		b.tree = make([]int, sz)
	}
	return b
}

// Take marks one processor busy.
func (b *Boxes) Take(id int) { b.add(b.g.Coord(id), 1) }

// Release marks one processor free.
func (b *Boxes) Release(id int) { b.add(b.g.Coord(id), -1) }

// Reset marks every processor free.
func (b *Boxes) Reset() {
	clear(b.rows)
	clear(b.planes)
	clear(b.tree)
}

// add applies a +-1 point update at p.
func (b *Boxes) add(p topo.Point, d int) {
	switch {
	case b.nd <= 2:
		row := b.rows[p[1]*b.prow:]
		for i := p[0] + 1; i < b.prow; i++ {
			row[i] += d
		}
	case b.nd == 3:
		plane := b.planes[p[2]*b.pplane:]
		for j := p[1] + 1; j <= b.n[1]; j++ {
			row := plane[j*b.prow:]
			for i := p[0] + 1; i < b.prow; i++ {
				row[i] += d
			}
		}
	default:
		b.addFenwick(p, d)
	}
}

// BusyIn returns the number of busy processors in the half-open box
// [lo, hi), which must already be clipped to the grid (topo.ShellBounds
// produces exactly this form).
func (b *Boxes) BusyIn(lo, hi topo.Point) int {
	s := 0
	switch {
	case b.nd <= 2:
		x0, x1 := lo[0], hi[0]
		for base := lo[1] * b.prow; base < hi[1]*b.prow; base += b.prow {
			s += b.rows[base+x1] - b.rows[base+x0]
		}
	case b.nd == 3:
		a := hi[1]*b.prow + hi[0]
		c := lo[1]*b.prow + hi[0]
		d := hi[1]*b.prow + lo[0]
		e := lo[1]*b.prow + lo[0]
		for base := lo[2] * b.pplane; base < hi[2]*b.pplane; base += b.pplane {
			s += b.planes[base+a] - b.planes[base+c] - b.planes[base+d] + b.planes[base+e]
		}
	default:
		// Inclusion–exclusion over the 2^d box corners.
		for mask := 0; mask < 1<<b.nd; mask++ {
			var q topo.Point
			sign := 1
			for i := 0; i < b.nd; i++ {
				if mask&(1<<i) != 0 {
					q[i] = lo[i]
					sign = -sign
				} else {
					q[i] = hi[i]
				}
			}
			s += sign * b.prefixFenwick(q)
		}
	}
	return s
}

// FreeIn returns the number of free processors in the half-open clipped
// box [lo, hi): the clipped volume minus the busy count.
func (b *Boxes) FreeIn(lo, hi topo.Point) int {
	return topo.BoxVolume(lo, hi) - b.BusyIn(lo, hi)
}

// addFenwick is the general-dimensional point update: O(log^d n).
func (b *Boxes) addFenwick(p topo.Point, d int) {
	t, f1, f2, f3 := b.tree, b.fs[1], b.fs[2], b.fs[3]
	for i := p[0] + 1; i <= b.n[0]; i += i & -i {
		for j := p[1] + 1; j <= b.n[1]; j += j & -j {
			for k := p[2] + 1; k <= b.n[2]; k += k & -k {
				row := i + j*f1 + k*f2
				for l := p[3] + 1; l <= b.n[3]; l += l & -l {
					t[row+l*f3] += d
				}
			}
		}
	}
}

// prefixFenwick returns the busy count below q per axis: O(log^d n).
func (b *Boxes) prefixFenwick(q topo.Point) int {
	t, f1, f2, f3, s := b.tree, b.fs[1], b.fs[2], b.fs[3], 0
	q3 := q[3]
	for i := q[0]; i > 0; i -= i & -i {
		for j := q[1]; j > 0; j -= j & -j {
			for k := q[2]; k > 0; k -= k & -k {
				row := i + j*f1 + k*f2
				for l := q3; l > 0; l -= l & -l {
					s += t[row+l*f3]
				}
			}
		}
	}
	return s
}

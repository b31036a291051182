package curve

import (
	"testing"

	"meshalloc/internal/topo"
)

// Literal transcriptions of the original self-contained 3-D snake and
// Hilbert constructions the 3-D allocation study was first built on.
// They pin the dimension-generic OrderDims of SCurve and Hilbert on
// three-dimensional grids bit for bit. Node ids are x-fastest:
// (z*h+y)*w+x.

func legacySnake3(w, h, d int) []int {
	ascending := func(n int) []int {
		v := make([]int, n)
		for i := range v {
			v[i] = i
		}
		return v
	}
	descending := func(n int) []int {
		v := make([]int, n)
		for i := range v {
			v[i] = n - 1 - i
		}
		return v
	}
	order := make([]int, 0, w*h*d)
	for z := 0; z < d; z++ {
		ys := ascending(h)
		if z%2 == 1 {
			ys = descending(h)
		}
		for yi, y := range ys {
			xs := ascending(w)
			if (yi+z*h)%2 == 1 {
				xs = descending(w)
			}
			for _, x := range xs {
				order = append(order, (z*h+y)*w+x)
			}
		}
	}
	return order
}

func legacyHilbert3(w, h, d int) []int {
	hilbert3D2XYZ := func(n, idx int) [3]int {
		const dims = 3
		b := 0
		for 1<<uint(b) < n {
			b++
		}
		var x [dims]uint32
		for lvl := 0; lvl < b; lvl++ {
			for i := 0; i < dims; i++ {
				if idx>>(uint(dims*lvl+(dims-1-i)))&1 == 1 {
					x[i] |= 1 << uint(lvl)
				}
			}
		}
		t := x[dims-1] >> 1
		for i := dims - 1; i > 0; i-- {
			x[i] ^= x[i-1]
		}
		x[0] ^= t
		for q := uint32(2); q != uint32(n); q <<= 1 {
			p := q - 1
			for i := dims - 1; i >= 0; i-- {
				if x[i]&q != 0 {
					x[0] ^= p
				} else {
					t := (x[0] ^ x[i]) & p
					x[0] ^= t
					x[i] ^= t
				}
			}
		}
		return [3]int{int(x[0]), int(x[1]), int(x[2])}
	}
	n := 2
	for n < w || n < h || n < d {
		n *= 2
	}
	order := make([]int, 0, w*h*d)
	for idx := 0; idx < n*n*n; idx++ {
		p := hilbert3D2XYZ(n, idx)
		if p[0] < w && p[1] < h && p[2] < d {
			order = append(order, (p[2]*h+p[1])*w+p[0])
		}
	}
	return order
}

func TestOrderDims3DMatchesLegacyConstructions(t *testing.T) {
	for _, dims := range [][3]int{{2, 2, 2}, {4, 4, 4}, {8, 8, 8}, {3, 5, 2}, {4, 3, 6}, {5, 7, 3}} {
		w, h, d := dims[0], dims[1], dims[2]
		for _, c := range []struct {
			name string
			got  []int
			want []int
		}{
			{"snake", SCurve{}.OrderDims([]int{w, h, d}), legacySnake3(w, h, d)},
			{"hilbert", Hilbert{}.OrderDims([]int{w, h, d}), legacyHilbert3(w, h, d)},
		} {
			if len(c.got) != len(c.want) {
				t.Fatalf("%v %s length %d vs legacy %d", dims, c.name, len(c.got), len(c.want))
			}
			for i := range c.want {
				if c.got[i] != c.want[i] {
					t.Fatalf("%v %s diverges from legacy at rank %d: %d vs %d", dims, c.name, i, c.got[i], c.want[i])
				}
			}
		}
	}
}

func TestHilbert3DClustersBetterThanSnake(t *testing.T) {
	// Windows of consecutive curve ranks should be more compact under
	// the 3-D Hilbert curve than under the 3-D snake.
	dims := []int{8, 8, 8}
	g := topo.New(dims)
	spread := func(order []int) float64 {
		const window = 16
		total, count := 0.0, 0
		for s := 0; s+window <= len(order); s += window {
			total += g.AvgPairwiseDist(order[s : s+window])
			count++
		}
		return total / float64(count)
	}
	if h, s := spread(Hilbert{}.OrderDims(dims)), spread(SCurve{}.OrderDims(dims)); h >= s {
		t.Fatalf("3-D hilbert window spread %.2f should beat snake %.2f", h, s)
	}
}

func TestSnake3IsHamiltonianPath(t *testing.T) {
	for _, dims := range [][]int{{2, 2, 2}, {4, 4, 4}, {3, 5, 2}, {4, 3, 6}} {
		g := topo.New(dims)
		order := SCurve{}.OrderDims(dims)
		isPermutationOfSize(t, order, g.Size())
		for i := 1; i < len(order); i++ {
			if g.Dist(order[i-1], order[i]) != 1 {
				t.Fatalf("%v snake: non-adjacent step at %d (%v -> %v)",
					dims, i, g.Coord(order[i-1]), g.Coord(order[i]))
			}
		}
	}
}

func TestHilbert3CubeIsHamiltonianPath(t *testing.T) {
	for _, n := range []int{2, 4, 8, 16} {
		dims := []int{n, n, n}
		g := topo.New(dims)
		order := Hilbert{}.OrderDims(dims)
		isPermutationOfSize(t, order, g.Size())
		for i := 1; i < len(order); i++ {
			if g.Dist(order[i-1], order[i]) != 1 {
				t.Fatalf("%d^3 hilbert: non-adjacent step at %d (%v -> %v)",
					n, i, g.Coord(order[i-1]), g.Coord(order[i]))
			}
		}
	}
}

func TestHilbert3TruncatedIsPermutation(t *testing.T) {
	isPermutationOfSize(t, Hilbert{}.OrderDims([]int{3, 5, 4}), 3*5*4)
}

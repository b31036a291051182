package mesh

import (
	"testing"
	"testing/quick"

	"meshalloc/internal/topo"
)

// shell returns shell k around the w x h submesh centered on c, walked on
// the grid the mesh wraps.
func shell(m *Mesh, c Point, w, h, k int) []int {
	return m.Grid().Shell(topo.XY(c.X, c.Y), topo.Point{w, h}, k)
}

func TestIDCoordRoundTrip(t *testing.T) {
	m := New(16, 22)
	for id := 0; id < m.Size(); id++ {
		if got := m.ID(m.Coord(id)); got != id {
			t.Fatalf("ID(Coord(%d)) = %d", id, got)
		}
	}
}

func TestNewPanicsOnBadDims(t *testing.T) {
	for _, dims := range [][2]int{{0, 5}, {5, 0}, {-1, 3}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%d,%d) should panic", dims[0], dims[1])
				}
			}()
			New(dims[0], dims[1])
		}()
	}
}

func TestManhattan(t *testing.T) {
	tests := []struct {
		a, b Point
		want int
	}{
		{Point{0, 0}, Point{0, 0}, 0},
		{Point{0, 0}, Point{3, 4}, 7},
		{Point{3, 4}, Point{0, 0}, 7},
		{Point{5, 1}, Point{1, 5}, 8},
	}
	for _, tc := range tests {
		if got := tc.a.Manhattan(tc.b); got != tc.want {
			t.Errorf("%v.Manhattan(%v) = %d, want %d", tc.a, tc.b, got, tc.want)
		}
	}
}

func TestRouteIsXYOrdered(t *testing.T) {
	m := New(8, 8)
	links := m.Grid().Route(m.ID(Point{1, 1}), m.ID(Point{5, 3}))
	if len(links) != 6 {
		t.Fatalf("route length %d, want 6", len(links))
	}
	// First all x hops, then all y hops.
	sawY := false
	for _, l := range links {
		isY := l.Dir == YPos || l.Dir == YNeg
		if sawY && !isY {
			t.Fatalf("x hop after y hop in %v", links)
		}
		if isY {
			sawY = true
		}
	}
}

func TestRouteEndsAtDestination(t *testing.T) {
	m := New(7, 5)
	f := func(a, b uint8) bool {
		src := int(a) % m.Size()
		dst := int(b) % m.Size()
		links := m.Grid().Route(src, dst)
		if len(links) != m.Dist(src, dst) {
			return false
		}
		cur := src
		for _, l := range links {
			if l.From != cur {
				return false
			}
			next, ok := m.Neighbor(cur, l.Dir)
			if !ok {
				return false
			}
			cur = next
		}
		return cur == dst
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestRouteYXIsYOrdered(t *testing.T) {
	m := New(8, 8)
	links := m.Grid().AppendRouteRev(nil, m.ID(Point{1, 1}), m.ID(Point{5, 3}))
	if len(links) != 6 {
		t.Fatalf("route length %d, want 6", len(links))
	}
	// All y hops first, then x hops.
	sawX := false
	cur := m.ID(Point{1, 1})
	for _, l := range links {
		if l.From != cur {
			t.Fatalf("route not connected at %v", l)
		}
		isX := l.Dir == XPos || l.Dir == XNeg
		if sawX && !isX {
			t.Fatalf("y hop after x hop in %v", links)
		}
		if isX {
			sawX = true
		}
		next, ok := m.Neighbor(cur, l.Dir)
		if !ok {
			t.Fatal("route leaves mesh")
		}
		cur = next
	}
	if cur != m.ID(Point{5, 3}) {
		t.Fatal("route does not reach destination")
	}
}

func TestRouteSelfIsEmpty(t *testing.T) {
	m := New(4, 4)
	if links := m.Grid().Route(5, 5); len(links) != 0 {
		t.Fatalf("self route has %d links, want 0", len(links))
	}
}

func TestLinkIndexRoundTrip(t *testing.T) {
	m := New(6, 9)
	for idx := 0; idx < m.Grid().NumLinks(); idx++ {
		if got := m.Grid().LinkIndex(m.Grid().LinkAt(idx)); got != idx {
			t.Fatalf("LinkIndex(LinkAt(%d)) = %d", idx, got)
		}
	}
}

func TestNeighborEdges(t *testing.T) {
	m := New(3, 3)
	// Corner node 0 = (0,0) has only +x and +y neighbours.
	if _, ok := m.Neighbor(0, XNeg); ok {
		t.Error("corner should have no -x neighbour")
	}
	if _, ok := m.Neighbor(0, YNeg); ok {
		t.Error("corner should have no -y neighbour")
	}
	if nb, ok := m.Neighbor(0, XPos); !ok || nb != 1 {
		t.Errorf("+x neighbour of 0 = %d,%v, want 1,true", nb, ok)
	}
	if nb, ok := m.Neighbor(0, YPos); !ok || nb != 3 {
		t.Errorf("+y neighbour of 0 = %d,%v, want 3,true", nb, ok)
	}
}

func TestAvgPairwiseDist(t *testing.T) {
	m := New(4, 4)
	// 2x2 block at origin: pairs (01)(02)(03)... ids 0,1,4,5.
	got := m.AvgPairwiseDist([]int{0, 1, 4, 5})
	// Distances: 0-1:1 0-4:1 0-5:2 1-4:2 1-5:1 4-5:1 => total 8 / 6 pairs.
	want := 8.0 / 6.0
	if got != want {
		t.Fatalf("AvgPairwiseDist = %g, want %g", got, want)
	}
	if m.AvgPairwiseDist([]int{3}) != 0 {
		t.Fatal("singleton should have zero avg distance")
	}
	if m.Grid().TotalPairwiseDist([]int{0, 1, 4, 5}) != 8 {
		t.Fatal("TotalPairwiseDist mismatch")
	}
}

func TestCenteredSubmeshAndShells(t *testing.T) {
	m := New(9, 9)
	c := Point{4, 4}
	// Shell 0 of a 3x1 request is the 3x1 submesh centered on c.
	s0 := shell(m, c, 3, 1, 0)
	if len(s0) != 3 {
		t.Fatalf("shell 0 size %d, want 3", len(s0))
	}
	// Shell 1 is the ring around the 3x1: a 5x3 minus the 3x1 = 12 nodes.
	s1 := shell(m, c, 3, 1, 1)
	if len(s1) != 12 {
		t.Fatalf("shell 1 size %d, want 12", len(s1))
	}
	// Shells partition: no overlap between shells 0..3.
	seen := map[int]bool{}
	for k := 0; k <= 3; k++ {
		for _, id := range shell(m, c, 3, 1, k) {
			if seen[id] {
				t.Fatalf("node %d in two shells", id)
			}
			seen[id] = true
		}
	}
}

func TestShellsCoverMesh(t *testing.T) {
	m := New(5, 7)
	c := Point{0, 0} // worst-case corner center
	seen := map[int]bool{}
	for k := 0; k <= m.Grid().MaxShells(); k++ {
		for _, id := range shell(m, c, 1, 1, k) {
			seen[id] = true
		}
	}
	if len(seen) != m.Size() {
		t.Fatalf("shells cover %d nodes, want %d", len(seen), m.Size())
	}
}

func TestShellClippedAtEdge(t *testing.T) {
	m := New(4, 4)
	s1 := shell(m, Point{0, 0}, 1, 1, 1)
	// Ring around (0,0) clipped to the mesh: (1,0),(0,1),(1,1).
	if len(s1) != 3 {
		t.Fatalf("clipped shell has %d nodes, want 3", len(s1))
	}
}

func TestComponents(t *testing.T) {
	m := New(4, 4)
	tests := []struct {
		name string
		ids  []int
		want int
	}{
		{"empty", nil, 0},
		{"single", []int{5}, 1},
		{"row", []int{0, 1, 2, 3}, 1},
		{"block", []int{0, 1, 4, 5}, 1},
		{"two corners", []int{0, 15}, 2},
		{"diagonal only", []int{0, 5, 10, 15}, 4},
		{"L-shape", []int{0, 4, 8, 9, 10}, 1},
		{"split", []int{0, 1, 3, 7}, 2},
	}
	for _, tc := range tests {
		comps := m.Components(tc.ids)
		if len(comps) != tc.want {
			t.Errorf("%s: %d components, want %d", tc.name, len(comps), tc.want)
		}
		total := 0
		for _, c := range comps {
			total += len(c)
		}
		if total != len(tc.ids) {
			t.Errorf("%s: components cover %d ids, want %d", tc.name, total, len(tc.ids))
		}
		if (len(comps) <= 1) != m.Grid().Contiguous(tc.ids) {
			t.Errorf("%s: Contiguous disagrees with Components", tc.name)
		}
	}
}

func TestComponentsPartitionProperty(t *testing.T) {
	m := New(6, 6)
	f := func(mask uint64) bool {
		var ids []int
		for i := 0; i < 36; i++ {
			if mask&(1<<uint(i)) != 0 {
				ids = append(ids, i)
			}
		}
		comps := m.Components(ids)
		seen := map[int]bool{}
		for _, c := range comps {
			for _, id := range c {
				if seen[id] {
					return false
				}
				seen[id] = true
			}
		}
		return len(seen) == len(ids)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestTorusDist(t *testing.T) {
	m := NewTorus(8, 6)
	if !m.Torus() {
		t.Fatal("Torus() false")
	}
	// (0,0) to (7,0): 1 hop the short way around.
	if d := m.Dist(m.ID(Point{0, 0}), m.ID(Point{7, 0})); d != 1 {
		t.Fatalf("wrap x distance = %d, want 1", d)
	}
	// (0,0) to (0,5): 1 hop around y.
	if d := m.Dist(m.ID(Point{0, 0}), m.ID(Point{0, 5})); d != 1 {
		t.Fatalf("wrap y distance = %d, want 1", d)
	}
	// (0,0) to (4,3): 4 + 3 either way.
	if d := m.Dist(m.ID(Point{0, 0}), m.ID(Point{4, 3})); d != 7 {
		t.Fatalf("half-way distance = %d, want 7", d)
	}
	// A plain mesh disagrees.
	p := New(8, 6)
	if d := p.Dist(p.ID(Point{0, 0}), p.ID(Point{7, 0})); d != 7 {
		t.Fatalf("plain mesh distance = %d, want 7", d)
	}
}

func TestTorusNeighborWraps(t *testing.T) {
	m := NewTorus(4, 4)
	nb, ok := m.Neighbor(m.ID(Point{0, 0}), XNeg)
	if !ok || nb != m.ID(Point{3, 0}) {
		t.Fatalf("XNeg wrap = %d, %v", nb, ok)
	}
	nb, ok = m.Neighbor(m.ID(Point{2, 3}), YPos)
	if !ok || nb != m.ID(Point{2, 0}) {
		t.Fatalf("YPos wrap = %d, %v", nb, ok)
	}
}

func TestTorusRouteTakesShortWay(t *testing.T) {
	m := NewTorus(8, 8)
	src, dst := m.ID(Point{0, 0}), m.ID(Point{7, 7})
	links := m.Grid().Route(src, dst)
	if len(links) != 2 {
		t.Fatalf("torus route length %d, want 2 (one wrap per axis)", len(links))
	}
	// Route is connected and ends at dst.
	cur := src
	for _, l := range links {
		if l.From != cur {
			t.Fatalf("disconnected route %v", links)
		}
		next, ok := m.Neighbor(cur, l.Dir)
		if !ok {
			t.Fatal("route left mesh")
		}
		cur = next
	}
	if cur != dst {
		t.Fatalf("route ends at %d, want %d", cur, dst)
	}
}

func TestTorusRoutePropertyMatchesDist(t *testing.T) {
	m := NewTorus(7, 5)
	for src := 0; src < m.Size(); src += 3 {
		for dst := 0; dst < m.Size(); dst += 2 {
			if got := len(m.Grid().Route(src, dst)); got != m.Dist(src, dst) {
				t.Fatalf("route %d->%d has %d links, dist %d", src, dst, got, m.Dist(src, dst))
			}
		}
	}
}

func TestDirectionString(t *testing.T) {
	if XPos.String() != "+x" || YNeg.String() != "-y" {
		t.Fatal("Direction.String mismatch")
	}
}

func TestSubmeshNodesClipped(t *testing.T) {
	m := New(4, 4)
	s := Submesh{Origin: Point{3, 3}, W: 2, H: 2}
	nodes := m.Nodes(s)
	if len(nodes) != 1 || nodes[0] != 15 {
		t.Fatalf("clipped submesh nodes = %v, want [15]", nodes)
	}
}

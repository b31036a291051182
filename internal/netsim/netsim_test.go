package netsim

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"meshalloc/internal/mesh"
	"meshalloc/internal/topo"
)

func testConfig() Config {
	return Config{MessageFlits: 10, FlitCycle: 0.01, HopLatency: 0.005, LocalDelay: 0.001}
}

func TestNewRejectsBadConfig(t *testing.T) {
	m := mesh.New(4, 4)
	if err := testConfig().Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	for _, cfg := range []Config{
		{MessageFlits: 0, FlitCycle: 0.01},
		{MessageFlits: 4, FlitCycle: -1},
		{MessageFlits: 4, FlitCycle: 0.01, HopLatency: -0.1},
		{MessageFlits: 4, FlitCycle: 0.01, LocalDelay: -0.1},
		{MessageFlits: 4, FlitCycle: math.NaN()},
		{MessageFlits: 4, FlitCycle: math.Inf(1)},
		{MessageFlits: 4, FlitCycle: 0.01, HopLatency: math.NaN()},
		{MessageFlits: 4, FlitCycle: 0.01, HopLatency: math.Inf(-1)},
		{MessageFlits: 4, FlitCycle: 0.01, LocalDelay: math.NaN()},
		{MessageFlits: 4, FlitCycle: 0.01, LocalDelay: math.Inf(1)},
	} {
		if cfg.Validate() == nil {
			t.Errorf("Validate(%+v) should fail", cfg)
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%+v) should panic", cfg)
				}
			}()
			New(m.Grid(), cfg)
		}()
	}
}

func TestUncontendedLatency(t *testing.T) {
	m := mesh.New(8, 8)
	n := New(m.Grid(), testConfig())
	// 3 hops: 3*0.005 + 10*0.01 = 0.115.
	r := n.Send(m.ID(mesh.Point{X: 0, Y: 0}), m.ID(mesh.Point{X: 3, Y: 0}), 0)
	if r.Hops != 3 {
		t.Fatalf("hops = %d, want 3", r.Hops)
	}
	want := 0.115
	if math.Abs(r.Arrival-want) > 1e-12 {
		t.Fatalf("arrival = %g, want %g", r.Arrival, want)
	}
	if r.Queued != 0 {
		t.Fatalf("queued = %g on idle network", r.Queued)
	}
	if got := n.UncontendedLatency(3); math.Abs(got-want) > 1e-12 {
		t.Fatalf("UncontendedLatency(3) = %g, want %g", got, want)
	}
}

func TestSelfMessageUsesLocalDelay(t *testing.T) {
	m := mesh.New(4, 4)
	n := New(m.Grid(), testConfig())
	r := n.Send(5, 5, 2.0)
	if r.Hops != 0 || r.Arrival != 2.001 {
		t.Fatalf("self message result = %+v", r)
	}
}

func TestContentionSerializesSharedLink(t *testing.T) {
	m := mesh.New(8, 1)
	n := New(m.Grid(), testConfig())
	// Two messages crossing the same link 0->1 at the same time: the
	// second queues for one service time (0.1).
	r1 := n.Send(0, 2, 0)
	r2 := n.Send(0, 2, 0)
	if r1.Queued != 0 {
		t.Fatalf("first message queued %g", r1.Queued)
	}
	if math.Abs(r2.Queued-0.1) > 1e-12 {
		t.Fatalf("second message queued %g, want 0.1", r2.Queued)
	}
	if r2.Arrival <= r1.Arrival {
		t.Fatal("second message should arrive after the first")
	}
}

func TestOppositeDirectionsDoNotContend(t *testing.T) {
	m := mesh.New(8, 1)
	n := New(m.Grid(), testConfig())
	r1 := n.Send(0, 3, 0)
	r2 := n.Send(3, 0, 0) // full duplex: reverse links are distinct
	if r1.Queued != 0 || r2.Queued != 0 {
		t.Fatalf("duplex messages queued %g and %g", r1.Queued, r2.Queued)
	}
}

func TestDisjointPathsDoNotContend(t *testing.T) {
	m := mesh.New(8, 8)
	n := New(m.Grid(), testConfig())
	r1 := n.Send(m.ID(mesh.Point{X: 0, Y: 0}), m.ID(mesh.Point{X: 3, Y: 0}), 0)
	r2 := n.Send(m.ID(mesh.Point{X: 0, Y: 4}), m.ID(mesh.Point{X: 3, Y: 4}), 0)
	if r1.Queued != 0 || r2.Queued != 0 {
		t.Fatal("disjoint rows should not contend")
	}
}

func TestXYRoutingContention(t *testing.T) {
	// Under x-y routing, a message (0,0)->(2,2) uses link (2,0)->(2,1);
	// a message (2,0)->(2,2) uses the same link. They contend even
	// though their sources differ.
	m := mesh.New(4, 4)
	n := New(m.Grid(), testConfig())
	n.Send(m.ID(mesh.Point{X: 0, Y: 0}), m.ID(mesh.Point{X: 2, Y: 2}), 0)
	r2 := n.Send(m.ID(mesh.Point{X: 2, Y: 0}), m.ID(mesh.Point{X: 2, Y: 2}), 0)
	if r2.Queued <= 0 {
		t.Fatal("column-sharing messages should contend under x-y routing")
	}
}

func TestSendPanicsOnTimeTravel(t *testing.T) {
	m := mesh.New(4, 4)
	n := New(m.Grid(), testConfig())
	n.Send(0, 1, 5)
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-order Send should panic")
		}
	}()
	n.Send(0, 1, 4)
}

func TestStatsAccumulate(t *testing.T) {
	m := mesh.New(8, 8)
	n := New(m.Grid(), testConfig())
	n.Send(0, 1, 0)
	n.Send(0, 2, 0)
	n.Send(3, 3, 1)
	s := n.Stats()
	if s.Messages != 3 {
		t.Fatalf("messages = %d", s.Messages)
	}
	if s.TotalHops != 3 {
		t.Fatalf("total hops = %d, want 3", s.TotalHops)
	}
	if got := s.AvgHops(); math.Abs(got-1.0) > 1e-12 {
		t.Fatalf("avg hops = %g, want 1", got)
	}
	if s.AvgLatency() <= 0 {
		t.Fatal("avg latency should be positive")
	}
}

func TestReset(t *testing.T) {
	m := mesh.New(4, 4)
	n := New(m.Grid(), testConfig())
	n.Send(0, 5, 10)
	n.Reset()
	if n.Stats().Messages != 0 {
		t.Fatal("stats survive reset")
	}
	r := n.Send(0, 5, 0) // clock must also reset
	if r.Queued != 0 {
		t.Fatal("link state survives reset")
	}
}

func TestEmptyStatsAverages(t *testing.T) {
	var s Stats
	if s.AvgHops() != 0 || s.AvgLatency() != 0 {
		t.Fatal("empty stats should average to 0")
	}
}

// TestArrivalMonotoneInLoad checks the queueing property the whole
// simulation rests on: adding background traffic never speeds up a
// message.
func TestArrivalMonotoneInLoad(t *testing.T) {
	m := mesh.New(8, 8)
	f := func(srcRaw, dstRaw uint8, bg []uint16) bool {
		src := int(srcRaw) % m.Size()
		dst := int(dstRaw) % m.Size()

		quiet := New(m.Grid(), testConfig())
		probeQuiet := quiet.Send(src, dst, 1.0)

		busy := New(m.Grid(), testConfig())
		for _, b := range bg {
			s := int(b>>8) % m.Size()
			d := int(b&0xff) % m.Size()
			busy.Send(s, d, 0.5)
		}
		probeBusy := busy.Send(src, dst, 1.0)

		return probeBusy.Arrival >= probeQuiet.Arrival-1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestCloserDestinationsArriveSooner checks, on an idle network, the
// locality property allocation exploits: fewer hops means earlier
// delivery.
func TestCloserDestinationsArriveSooner(t *testing.T) {
	m := mesh.New(16, 16)
	n := New(m.Grid(), testConfig())
	prev := -1.0
	for d := 1; d < 16; d++ {
		nn := New(m.Grid(), testConfig())
		r := nn.Send(0, d, 0) // along the bottom row: d hops
		if r.Hops != d {
			t.Fatalf("hops to column %d = %d", d, r.Hops)
		}
		if r.Arrival <= prev {
			t.Fatalf("arrival not increasing with distance at %d hops", d)
		}
		prev = r.Arrival
	}
	_ = n
}

// TestQueueingConservation checks that the aggregate queueing statistic
// equals the sum of per-message queueing over an arbitrary workload.
func TestQueueingConservation(t *testing.T) {
	m := mesh.New(6, 6)
	n := New(m.Grid(), testConfig())
	total := 0.0
	hops := int64(0)
	for i := 0; i < 500; i++ {
		src := (i * 7) % m.Size()
		dst := (i*13 + 5) % m.Size()
		r := n.Send(src, dst, float64(i)*0.01)
		total += r.Queued
		hops += int64(r.Hops)
	}
	s := n.Stats()
	if math.Abs(s.TotalQueueSec-total) > 1e-9 {
		t.Fatalf("TotalQueueSec %g != sum of per-message queueing %g", s.TotalQueueSec, total)
	}
	if s.TotalHops != hops {
		t.Fatalf("TotalHops %d != %d", s.TotalHops, hops)
	}
	if s.Messages != 500 {
		t.Fatalf("Messages = %d", s.Messages)
	}
}

// TestLatencyDecomposition checks that per-message latency equals the
// uncontended baseline plus the queueing delay.
func TestLatencyDecomposition(t *testing.T) {
	m := mesh.New(8, 8)
	n := New(m.Grid(), testConfig())
	for i := 0; i < 200; i++ {
		src := (i * 11) % m.Size()
		dst := (i*17 + 3) % m.Size()
		if src == dst {
			continue
		}
		t0 := float64(i) * 0.02
		r := n.Send(src, dst, t0)
		want := n.UncontendedLatency(r.Hops) + r.Queued
		if math.Abs((r.Arrival-t0)-want) > 1e-9 {
			t.Fatalf("message %d: latency %g != baseline+queued %g", i, r.Arrival-t0, want)
		}
	}
}

func TestRoutingByName(t *testing.T) {
	for _, tc := range []struct {
		name string
		want Routing
	}{{"", RouteXY}, {"xy", RouteXY}, {"yx", RouteYX}, {"adaptive", RouteAdaptive}} {
		got, err := RoutingByName(tc.name)
		if err != nil || got != tc.want {
			t.Errorf("RoutingByName(%q) = %v, %v", tc.name, got, err)
		}
	}
	if _, err := RoutingByName("west-first"); err == nil {
		t.Error("unknown routing should fail")
	}
	if RouteXY.String() != "xy" || RouteYX.String() != "yx" || RouteAdaptive.String() != "adaptive" {
		t.Error("Routing.String mismatch")
	}
}

func TestYXRoutingUsesColumnFirst(t *testing.T) {
	m := mesh.New(4, 4)
	cfg := testConfig()
	cfg.Routing = RouteYX
	n := New(m.Grid(), cfg)
	// Under y-x routing, (0,0)->(2,2) and (0,2)->(2,2) share the row-2
	// links, unlike under x-y routing.
	n.Send(m.ID(mesh.Point{X: 0, Y: 0}), m.ID(mesh.Point{X: 2, Y: 2}), 0)
	r2 := n.Send(m.ID(mesh.Point{X: 0, Y: 2}), m.ID(mesh.Point{X: 2, Y: 2}), 0)
	if r2.Queued <= 0 {
		t.Fatal("row-sharing messages should contend under y-x routing")
	}
}

func TestAdaptiveRoutingAvoidsCongestion(t *testing.T) {
	m := mesh.New(4, 4)
	cfg := testConfig()
	cfg.Routing = RouteAdaptive
	n := New(m.Grid(), cfg)
	src := m.ID(mesh.Point{X: 0, Y: 0})
	dst := m.ID(mesh.Point{X: 2, Y: 2})
	// Congest the x-y route's first link (0,0)->(1,0) with row traffic.
	for i := 0; i < 5; i++ {
		n.Send(src, m.ID(mesh.Point{X: 3, Y: 0}), 0)
	}
	r := n.Send(src, dst, 0)
	// The adaptive router should take the y-first route and dodge the
	// queue entirely.
	if r.Queued != 0 {
		t.Fatalf("adaptive route queued %g, want 0", r.Queued)
	}

	// A plain x-y network must queue in the same situation.
	nxy := New(m.Grid(), testConfig())
	for i := 0; i < 5; i++ {
		nxy.Send(src, m.ID(mesh.Point{X: 3, Y: 0}), 0)
	}
	if r := nxy.Send(src, dst, 0); r.Queued <= 0 {
		t.Fatal("x-y control should have queued")
	}
}

func TestLinkUtilization(t *testing.T) {
	m := mesh.New(8, 1)
	n := New(m.Grid(), testConfig())
	if u := n.LinkUtilization(); len(u) != m.Grid().NumLinks() {
		t.Fatalf("utilization length %d", len(u))
	}
	// Before traffic: zeros.
	for _, u := range n.LinkUtilization() {
		if u != 0 {
			t.Fatal("idle network should have zero utilization")
		}
	}
	// One message 0->1 at t=1: link (0,+x) busy 0.1 over clock 1.
	n.Send(0, 1, 1.0)
	util := n.LinkUtilization()
	li := m.Grid().LinkIndex(mesh.Link{From: 0, Dir: mesh.XPos})
	if math.Abs(util[li]-0.1) > 1e-12 {
		t.Fatalf("link utilization %g, want 0.1", util[li])
	}
	// Unused links remain zero.
	other := m.Grid().LinkIndex(mesh.Link{From: 3, Dir: mesh.XPos})
	if util[other] != 0 {
		t.Fatal("unused link shows utilization")
	}
}

func TestNodeUtilizationAggregates(t *testing.T) {
	m := mesh.New(4, 4)
	n := New(m.Grid(), testConfig())
	n.Send(0, 3, 1.0) // bottom row eastward
	nu := n.NodeUtilization()
	if len(nu) != 16 {
		t.Fatalf("node utilization length %d", len(nu))
	}
	if nu[0] <= 0 || nu[1] <= 0 || nu[2] <= 0 {
		t.Fatal("sending nodes should show utilization")
	}
	if nu[15] != 0 {
		t.Fatal("far corner should be idle")
	}
}

func TestUtilizationResets(t *testing.T) {
	m := mesh.New(4, 4)
	n := New(m.Grid(), testConfig())
	n.Send(0, 3, 1.0)
	n.Reset()
	for _, u := range n.LinkUtilization() {
		if u != 0 {
			t.Fatal("utilization survives reset")
		}
	}
}

func TestDefaultConfigSane(t *testing.T) {
	// The default is calibrated to the paper's second-scale per-message
	// times (Figure 9: ~0.5-4.5 s per message): one link service time
	// must land in the low single-digit seconds.
	cfg := DefaultConfig()
	if cfg.serviceTime() < 0.5 || cfg.serviceTime() > 10 {
		t.Fatalf("default service time %g s out of the calibrated range", cfg.serviceTime())
	}
	if cfg.HopLatency <= 0 || cfg.HopLatency >= cfg.serviceTime() {
		t.Fatalf("hop latency %g should be positive and below service time", cfg.HopLatency)
	}
}

// refNetwork is the route-materializing reference for Network.Send: it
// builds each message's dimension-ordered route as a []topo.Link with
// topo's AppendRoute/AppendRouteRev and charges the links one by one.
// Send's index walk must reproduce it bit for bit.
type refNetwork struct {
	g        *topo.Grid
	cfg      Config
	freeAt   []float64
	busyTime []float64
	stats    Stats
	route    []topo.Link
	alt      []topo.Link
}

func newRefNetwork(g *topo.Grid, cfg Config) *refNetwork {
	return &refNetwork{
		g:        g,
		cfg:      cfg,
		freeAt:   make([]float64, g.NumLinks()),
		busyTime: make([]float64, g.NumLinks()),
	}
}

func (r *refNetwork) wait(route []topo.Link, t float64) float64 {
	wait := 0.0
	for _, l := range route {
		if f := r.freeAt[r.g.LinkIndex(l)]; f > t {
			wait += f - t
		}
	}
	return wait
}

func (r *refNetwork) Send(src, dst int, t float64) Result {
	if src == dst {
		r.stats.Messages++
		r.stats.TotalDistSec += r.cfg.LocalDelay
		return Result{Arrival: t + r.cfg.LocalDelay}
	}
	var route []topo.Link
	switch r.cfg.Routing {
	case RouteYX:
		r.route = r.g.AppendRouteRev(r.route[:0], src, dst)
		route = r.route
	case RouteAdaptive:
		r.route = r.g.AppendRoute(r.route[:0], src, dst)
		r.alt = r.g.AppendRouteRev(r.alt[:0], src, dst)
		route = r.route
		if r.wait(r.alt, t) < r.wait(r.route, t) {
			route = r.alt
		}
	default:
		r.route = r.g.AppendRoute(r.route[:0], src, dst)
		route = r.route
	}
	service := r.cfg.serviceTime()
	cur := t
	queued := 0.0
	for _, l := range route {
		li := r.g.LinkIndex(l)
		depart := cur
		if r.freeAt[li] > depart {
			queued += r.freeAt[li] - depart
			depart = r.freeAt[li]
		}
		r.freeAt[li] = depart + service
		r.busyTime[li] += service
		cur = depart + r.cfg.HopLatency
	}
	arrival := cur + service
	r.stats.Messages++
	r.stats.TotalHops += int64(len(route))
	r.stats.TotalDistSec += arrival - t
	r.stats.TotalQueueSec += queued
	return Result{Arrival: arrival, Hops: len(route), Queued: queued}
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// TestSendMatchesRouteReference drives Send and the route-materializing
// reference with the same random (src, dst, t) streams on meshes and
// tori of one to four dimensions under every routing function, and
// requires every Result and the final link state to agree bit for bit.
// The golden digests only pin x-y routing on a mesh; this covers the
// torus wraparound and the y-x and adaptive walks.
func TestSendMatchesRouteReference(t *testing.T) {
	grids := []struct {
		name string
		g    *topo.Grid
	}{
		{"mesh-1d-37", topo.New([]int{37})},
		{"mesh-16x22", topo.New([]int{16, 22})},
		{"mesh-8x8x8", topo.New([]int{8, 8, 8})},
		{"mesh-3x4x2x5", topo.New([]int{3, 4, 2, 5})},
		{"torus-7x6", topo.NewTorus([]int{7, 6})},
		{"torus-4x5x3", topo.NewTorus([]int{4, 5, 3})},
	}
	for _, gc := range grids {
		for _, routing := range []Routing{RouteXY, RouteYX, RouteAdaptive} {
			t.Run(gc.name+"/"+routing.String(), func(t *testing.T) {
				cfg := testConfig()
				cfg.Routing = routing
				net, ref := New(gc.g, cfg), newRefNetwork(gc.g, cfg)
				rng := rand.New(rand.NewSource(int64(gc.g.Size())*7 + int64(routing)))
				now := 0.0
				for i := 0; i < 4000; i++ {
					// Bursts of same-time sends build queues; the
					// occasional gap lets links drain.
					if rng.Intn(4) == 0 {
						now += rng.ExpFloat64() * 0.05
					}
					src, dst := rng.Intn(gc.g.Size()), rng.Intn(gc.g.Size())
					sendBoth(t, net, ref, src, dst, now)
				}
				requireSameState(t, gc.g, net, ref)
			})
		}
	}
}

// sendBoth sends one message through Send and the reference and fails
// unless the two Results are bit-equal.
func sendBoth(t *testing.T, net *Network, ref *refNetwork, src, dst int, now float64) {
	t.Helper()
	got, want := net.Send(src, dst, now), ref.Send(src, dst, now)
	if got.Hops != want.Hops || !sameBits(got.Arrival, want.Arrival) || !sameBits(got.Queued, want.Queued) {
		t.Fatalf("send %d->%d at %g: got %+v, reference %+v", src, dst, now, got, want)
	}
}

// requireSameState fails unless the network's final statistics and
// per-link state are bit-equal to the reference's.
func requireSameState(t *testing.T, g *topo.Grid, net *Network, ref *refNetwork) {
	t.Helper()
	st := net.State()
	if st.Stats.Messages != ref.stats.Messages || st.Stats.TotalHops != ref.stats.TotalHops ||
		!sameBits(st.Stats.TotalDistSec, ref.stats.TotalDistSec) || !sameBits(st.Stats.TotalQueueSec, ref.stats.TotalQueueSec) {
		t.Fatalf("stats %+v, reference %+v", st.Stats, ref.stats)
	}
	for li := range ref.freeAt {
		if !sameBits(st.FreeAt[li], ref.freeAt[li]) || !sameBits(st.BusyTime[li], ref.busyTime[li]) {
			t.Fatalf("link %v: freeAt/busy %g/%g, reference %g/%g",
				g.LinkAt(li), st.FreeAt[li], st.BusyTime[li], ref.freeAt[li], ref.busyTime[li])
		}
	}
}

// FuzzSendMatchesRouteReference extends TestSendMatchesRouteReference
// to fuzzed machines and traffic: a 1- to 4-D mesh or torus with
// extents 1..6 (one byte of shape per axis), any routing function, and
// a message stream of 5-byte records (little-endian 16-bit src and dst,
// taken modulo the machine size, then Δt). Every Result and the final
// link state must be bit-equal to the route-materializing reference.
func FuzzSendMatchesRouteReference(f *testing.F) {
	f.Add(uint8(0), uint32(0x00000006), false, uint8(RouteXY), []byte{0, 0, 5, 0, 0, 3, 0, 1, 0, 0})
	f.Add(uint8(1), uint32(0x00000504), true, uint8(RouteYX), []byte{0, 0, 29, 0, 0, 3, 0, 17, 0, 0, 29, 0, 0, 0, 8})
	f.Add(uint8(2), uint32(0x00050506), true, uint8(RouteAdaptive), []byte{0, 0, 124, 0, 0, 7, 0, 80, 0, 1, 124, 0, 0, 0, 0})
	f.Add(uint8(3), uint32(0x05040302), false, uint8(RouteAdaptive), []byte{1, 0, 70, 0, 0, 70, 0, 1, 0, 0, 200, 1, 9, 0, 33})
	f.Fuzz(func(t *testing.T, ndSel uint8, shape uint32, torus bool, routing uint8, msgs []byte) {
		dims := make([]int, 1+int(ndSel)%topo.MaxDims)
		for a := range dims {
			dims[a] = 1 + int(shape>>(8*a)&0xff)%6
		}
		g := topo.New(dims)
		if torus {
			g = topo.NewTorus(dims)
		}
		cfg := testConfig()
		cfg.Routing = Routing(routing % 3)
		net, ref := New(g, cfg), newRefNetwork(g, cfg)
		now := 0.0
		for i := 0; i+4 < len(msgs) && i < 5*512; i += 5 {
			src := (int(msgs[i]) | int(msgs[i+1])<<8) % g.Size()
			dst := (int(msgs[i+2]) | int(msgs[i+3])<<8) % g.Size()
			// Δt of zero (a quarter of the byte values) builds queues;
			// the rest let links drain by up to ~6 service times.
			now += float64(msgs[i+4]/4) * 0.01
			sendBoth(t, net, ref, src, dst, now)
		}
		requireSameState(t, g, net, ref)
	})
}

// BenchmarkSend measures Send alone over a fixed pseudo-random stream
// of 4,096 (src, dst) pairs per op, on the paper's 16x22 mesh under x-y
// routing and on the 8x8x8 cube. Sends come in same-time bursts of
// eight, so links queue as they do under a job's communication phase.
func BenchmarkSend(b *testing.B) {
	const msgs = 4096
	for _, bc := range []struct {
		name string
		g    *topo.Grid
	}{
		{"16x22-xy", topo.New([]int{16, 22})},
		{"8x8x8-xy", topo.New([]int{8, 8, 8})},
	} {
		b.Run(bc.name, func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			src, dst := make([]int, msgs), make([]int, msgs)
			for i := range src {
				src[i], dst[i] = rng.Intn(bc.g.Size()), rng.Intn(bc.g.Size())
			}
			cfg := DefaultConfig()
			net := New(bc.g, cfg)
			gap := cfg.serviceTime() / 4
			now := 0.0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for j := range src {
					if j%8 == 0 {
						now += gap
					}
					net.Send(src[j], dst[j], now)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*msgs), "ns/msg")
		})
	}
}

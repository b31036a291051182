// Package netsim is the interconnect model of the microsimulator: an
// event-driven, cycle-accurate link-pipeline approximation of the
// flit-level wormhole simulation performed by ProcSimity. It is
// dimension-generic: the same link pipeline serves the paper's 2-D
// meshes and the native 3-D machines of the ext-cube3d experiment,
// parameterized only by a topo.Grid.
//
// Every directed grid link is a FIFO resource that serializes one flit per
// flit cycle. A message of F flits sent along its dimension-ordered
// route occupies each link on the path for F flit cycles; the header
// advances one hop per hop latency and the body pipelines behind it. When
// a link is still busy with earlier traffic the message queues, which is
// where interjob contention — the phenomenon the allocation algorithms
// fight over — appears. Relative to true wormhole switching the model
// buffers blocked messages at links (virtual cut-through) instead of
// stalling them in place across multiple links; DESIGN.md discusses why
// this preserves the contention structure the paper measures.
//
// Callers must issue Send calls in nondecreasing time order, which the
// simulator's event loop guarantees.
package netsim

import (
	"fmt"
	"math"

	"meshalloc/internal/topo"
)

// Routing selects the deterministic routing function.
type Routing int

const (
	// RouteXY is ascending dimension-ordered routing — x then y (then
	// z), the paper's (and the Paragon's) algorithm. Default.
	RouteXY Routing = iota
	// RouteYX routes axes in descending order (y then x in 2-D), for
	// routing-sensitivity ablations.
	RouteYX
	// RouteAdaptive picks whichever of the two dimension-ordered routes
	// currently has the lower total queueing delay — a minimal adaptive
	// router in the spirit of ProcSimity's selectable routing.
	RouteAdaptive
)

// String implements fmt.Stringer.
func (r Routing) String() string {
	switch r {
	case RouteYX:
		return "yx"
	case RouteAdaptive:
		return "adaptive"
	default:
		return "xy"
	}
}

// RoutingByName parses a routing name ("xy", "yx", "adaptive").
func RoutingByName(name string) (Routing, error) {
	switch name {
	case "", "xy":
		return RouteXY, nil
	case "yx":
		return RouteYX, nil
	case "adaptive":
		return RouteAdaptive, nil
	default:
		return 0, fmt.Errorf("netsim: unknown routing %q", name)
	}
}

// Config sets the network timing parameters. Times are in simulated
// seconds so they compose directly with trace timestamps.
type Config struct {
	// MessageFlits is the number of flits per message.
	MessageFlits int
	// FlitCycle is the time to move one flit across one link.
	FlitCycle float64
	// HopLatency is the per-hop header/routing latency.
	HopLatency float64
	// LocalDelay is the delivery time of a self-addressed message, which
	// never enters the network.
	LocalDelay float64
	// Routing selects the route function (default RouteXY, as in the
	// paper: "messages use x-y routing").
	Routing Routing
}

// DefaultConfig returns the timing used by the paper-reproduction
// experiments: 64-flit messages with a per-link service time of 3.84 s.
// The paper never states ProcSimity's flit time, but its Figure 9 shows
// ~40,000-message jobs running 20,000-180,000 seconds — second-scale
// per-message times. This default is calibrated so that a mean trace job
// running the all-to-all pattern communicates for roughly its traced
// runtime, which reproduces the machine occupancy (and hence the FCFS
// queueing regime) the paper's response-time figures show.
func DefaultConfig() Config {
	return Config{
		MessageFlits: 64,
		FlitCycle:    0.06,
		HopLatency:   0.05,
		LocalDelay:   0.01,
	}
}

// serviceTime returns how long a message occupies one link.
func (c Config) serviceTime() float64 {
	return float64(c.MessageFlits) * c.FlitCycle
}

// Stats aggregates network activity over a run.
type Stats struct {
	// Messages is the number of messages delivered.
	Messages int64
	// TotalHops is the sum of route lengths.
	TotalHops int64
	// TotalDistSec is the total in-network latency (arrival minus send).
	TotalDistSec float64
	// TotalQueueSec is the total time messages spent waiting for busy
	// links, the direct measure of contention.
	TotalQueueSec float64
}

// AvgHops returns the mean hops per message — the paper's "average
// message distance" metric of Figure 10.
func (s Stats) AvgHops() float64 {
	if s.Messages == 0 {
		return 0
	}
	return float64(s.TotalHops) / float64(s.Messages)
}

// AvgLatency returns the mean per-message delivery latency.
func (s Stats) AvgLatency() float64 {
	if s.Messages == 0 {
		return 0
	}
	return s.TotalDistSec / float64(s.Messages)
}

// Network is the link-state simulator for one grid machine.
type Network struct {
	m        *topo.Grid
	cfg      Config
	freeAt   []float64 // per directed link: earliest time it is idle
	busyTime []float64 // per directed link: accumulated service time
	stats    Stats
	clock    float64 // latest Send time, for the monotonicity check
	// The grid's shape, copied out for the route decode: nd axes of
	// extent dim[a], node-id stride stride[a], 2*nd directed links per
	// node, wraparound when torus. Send reads endpoint coordinates
	// from the grid's table through the inlined m.Coord.
	nd     int
	nd2    int
	dim    [topo.MaxDims]int
	stride [topo.MaxDims]int
	torus  bool
	// route and alt hold the decoded spans of the message being sent
	// (alt: the y-x candidate under adaptive routing). They live here
	// rather than on Send's stack only so Send does not zero them per
	// call.
	route, alt [2 * topo.MaxDims]span
}

// Validate returns an error unless the configuration has a positive
// flit count and finite, non-negative timings. NaN and ±Inf are
// rejected explicitly: NaN fails every comparison, so a plain negativity
// check lets it through to turn every arrival time into garbage.
func (c Config) Validate() error {
	if c.MessageFlits <= 0 || !finiteNonNeg(c.FlitCycle) || !finiteNonNeg(c.HopLatency) || !finiteNonNeg(c.LocalDelay) {
		return fmt.Errorf("netsim: invalid config %+v", c)
	}
	return nil
}

func finiteNonNeg(x float64) bool { return x >= 0 && x <= math.MaxFloat64 }

// New returns a network over the grid g with the given configuration. It
// panics on a configuration Validate rejects: network timing is static
// configuration.
func New(g *topo.Grid, cfg Config) *Network {
	if err := cfg.Validate(); err != nil {
		panic(err.Error())
	}
	n := &Network{
		m:        g,
		cfg:      cfg,
		freeAt:   make([]float64, g.NumLinks()),
		busyTime: make([]float64, g.NumLinks()),
		nd:       g.ND(),
		nd2:      g.NumDirs(),
		torus:    g.Torus(),
	}
	stride := 1
	for a := 0; a < n.nd; a++ {
		n.dim[a] = g.Dim(a)
		n.stride[a] = stride
		stride *= n.dim[a]
	}
	return n
}

// Result describes one delivered message.
type Result struct {
	// Arrival is the absolute time the last flit reaches the destination.
	Arrival float64
	// Hops is the route length in links (0 for self-addressed messages).
	Hops int
	// Queued is the total time spent waiting for busy links.
	Queued float64
}

// Send injects a message from node src to node dst at time t and returns
// its delivery result. Send must be called with nondecreasing t; it
// panics otherwise, since out-of-order sends would corrupt link state
// silently.
func (n *Network) Send(src, dst int, t float64) Result {
	if t < n.clock {
		panic(fmt.Sprintf("netsim: Send at %g before clock %g", t, n.clock))
	}
	n.clock = t

	if src == dst {
		n.stats.Messages++
		n.stats.TotalDistSec += n.cfg.LocalDelay
		return Result{Arrival: t + n.cfg.LocalDelay}
	}

	cs, cd := n.m.Coord(src), n.m.Coord(dst)
	sp := n.route[:n.spans(&n.route, src, &cs, &cd, n.cfg.Routing == RouteYX)]
	if n.cfg.Routing == RouteAdaptive {
		alt := n.alt[:n.spans(&n.alt, src, &cs, &cd, true)]
		if n.routeWait(alt, t) < n.routeWait(sp, t) {
			sp = alt
		}
	}

	service := n.cfg.serviceTime()
	cur := t
	queued := 0.0
	hops := 0
	for _, s := range sp {
		li := s.li
		for h := 0; h < s.n; h++ {
			depart := cur
			if f := n.freeAt[li]; f > depart {
				queued += f - depart
				depart = f
			}
			n.freeAt[li] = depart + service
			n.busyTime[li] += service
			// The header reaches the next router one hop latency after
			// it starts on this link; the body pipelines behind.
			cur = depart + n.cfg.HopLatency
			li += s.step
		}
		hops += s.n
	}
	// After the header arrives, the remaining flits stream in over one
	// link service time.
	arrival := cur + service

	n.stats.Messages++
	n.stats.TotalHops += int64(hops)
	n.stats.TotalDistSec += arrival - t
	n.stats.TotalQueueSec += queued
	return Result{Arrival: arrival, Hops: hops, Queued: queued}
}

// span is one straight stretch of a dimension-ordered route: n hops
// along one axis whose directed-link indices start at li and advance by
// step. An axis contributes one span, or two when a torus route wraps
// around the axis.
type span struct{ li, n, step int }

// spans decodes the dimension-ordered route from src (coordinates cs)
// to dst (cd) into sp and returns the span count. Axes resolve in
// ascending order (x-y), or descending (y-x) when rev. The walk matches
// topo's AppendRoute/AppendRouteRev link for link: a link's index is
// id*2*nd + dir, and on a torus each axis takes the shorter way around
// (positive on ties), which keeps one direction for the whole axis.
func (n *Network) spans(sp *[2 * topo.MaxDims]span, src int, cs, cd *topo.Point, rev bool) int {
	k := 0
	id := src
	for i := 0; i < n.nd; i++ {
		a := i
		if rev {
			a = n.nd - 1 - i
		}
		c, d := cs[a], cd[a]
		if c == d {
			continue
		}
		stride := n.stride[a]
		dir, step, hops := 2*a, stride*n.nd2, d-c
		if hops < 0 {
			dir, step, hops = 2*a+1, -step, -hops
		}
		// first counts the hops before the walk crosses the axis end,
		// which only a torus route ever does; wrap is the node it
		// re-enters at, coordinate 0 going up or ext-1 going down.
		first, wrap := hops, 0
		if n.torus {
			ext := n.dim[a]
			fwd := d - c
			if fwd < 0 {
				fwd += ext
			}
			if fwd <= ext-fwd {
				dir, step, hops = 2*a, stride*n.nd2, fwd
				first, wrap = ext-c, id-c*stride
			} else {
				dir, step, hops = 2*a+1, -stride*n.nd2, ext-fwd
				first, wrap = c+1, id+(ext-1-c)*stride
			}
		}
		if first >= hops {
			sp[k] = span{li: id*n.nd2 + dir, n: hops, step: step}
			k++
		} else {
			sp[k] = span{li: id*n.nd2 + dir, n: first, step: step}
			sp[k+1] = span{li: wrap*n.nd2 + dir, n: hops - first, step: step}
			k += 2
		}
		id += (d - c) * stride
	}
	return k
}

// routeWait estimates the queueing a message would see on a route if its
// header could teleport: the sum of positive (freeAt - t) over links. It
// is a heuristic for adaptive route selection, not an exact simulation.
func (n *Network) routeWait(sp []span, t float64) float64 {
	wait := 0.0
	for _, s := range sp {
		li := s.li
		for h := 0; h < s.n; h++ {
			if f := n.freeAt[li]; f > t {
				wait += f - t
			}
			li += s.step
		}
	}
	return wait
}

// Stats returns the accumulated network statistics.
func (n *Network) Stats() Stats { return n.stats }

// State is the serializable dynamic state of a Network: per-link idle
// times and busy accumulators, the aggregate statistics, and the send
// clock (which must restore so the monotonicity check keeps holding).
type State struct {
	FreeAt   []float64
	BusyTime []float64
	Stats    Stats
	Clock    float64
}

// State captures the network for a snapshot.
func (n *Network) State() State {
	return State{
		FreeAt:   append([]float64(nil), n.freeAt...),
		BusyTime: append([]float64(nil), n.busyTime...),
		Stats:    n.stats,
		Clock:    n.clock,
	}
}

// SetState restores a state previously captured from a network over the
// same grid. It errors on a link-count mismatch.
func (n *Network) SetState(s State) error {
	if len(s.FreeAt) != len(n.freeAt) || len(s.BusyTime) != len(n.busyTime) {
		return fmt.Errorf("netsim: state has %d/%d links, network has %d",
			len(s.FreeAt), len(s.BusyTime), len(n.freeAt))
	}
	copy(n.freeAt, s.FreeAt)
	copy(n.busyTime, s.BusyTime)
	n.stats = s.Stats
	n.clock = s.Clock
	return nil
}

// Config returns the network's timing configuration.
func (n *Network) Config() Config { return n.cfg }

// Reset clears all link state and statistics.
func (n *Network) Reset() {
	for i := range n.freeAt {
		n.freeAt[i] = 0
		n.busyTime[i] = 0
	}
	n.stats = Stats{}
	n.clock = 0
}

// LinkUtilization returns each directed link's busy fraction over the
// elapsed simulated time (the latest Send time). Before any traffic it
// returns all zeros. A heavily backlogged link can report slightly more
// than 1 because its queued service extends beyond the last send time.
// Index with the grid's LinkIndex.
func (n *Network) LinkUtilization() []float64 {
	util := make([]float64, len(n.busyTime))
	if n.clock <= 0 {
		return util
	}
	for i, b := range n.busyTime {
		util[i] = b / n.clock
	}
	return util
}

// NodeUtilization aggregates link utilization per node: the mean busy
// fraction of each node's outgoing links, a heatmap of where contention
// concentrates.
func (n *Network) NodeUtilization() []float64 {
	util := n.LinkUtilization()
	out := make([]float64, n.m.Size())
	for id := 0; id < n.m.Size(); id++ {
		count := 0
		total := 0.0
		for d := topo.Dir(0); int(d) < n.m.NumDirs(); d++ {
			if _, ok := n.m.Neighbor(id, d); !ok {
				continue
			}
			total += util[n.m.LinkIndex(topo.Link{From: id, Dir: d})]
			count++
		}
		if count > 0 {
			out[id] = total / float64(count)
		}
	}
	return out
}

// UncontendedLatency returns the delivery latency of a message over the
// given hop count on an idle network — the baseline the queueing delay
// adds to.
func (n *Network) UncontendedLatency(hops int) float64 {
	if hops == 0 {
		return n.cfg.LocalDelay
	}
	return float64(hops)*n.cfg.HopLatency + n.cfg.serviceTime()
}

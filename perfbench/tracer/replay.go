package main

import (
	"fmt"
	"slices"
	"time"

	"meshalloc/internal/alloc"
	"meshalloc/internal/comm"
	"meshalloc/internal/netsim"
	"meshalloc/internal/sim"
	"meshalloc/internal/stats"
	"meshalloc/internal/topo"
)

// Occupancy operations behind the engine's deltas.
const (
	opAlloc = iota
	opRelease
	opMask   // a failed free node taken out of service
	opUnmask // a repaired node returned to service
)

type delta struct {
	off, n int32
	op     uint8
}

// capture records every occupancy delta of a run in event order.
type capture struct {
	ids    []int32
	deltas []delta
	masked []bool // nodes out of service after the deltas so far
}

func newCapture(size int) *capture {
	return &capture{masked: make([]bool, size)}
}

func (c *capture) observe(_ float64, ids []int, allocated bool) {
	op := uint8(opRelease)
	if allocated {
		op = opAlloc
	}
	c.deltas = append(c.deltas, delta{off: int32(len(c.ids)), n: int32(len(ids)), op: op})
	for _, id := range ids {
		c.ids = append(c.ids, int32(id))
	}
}

func (c *capture) nodes(d delta) []int32 { return c.ids[d.off : d.off+d.n] }

// relabel marks the fault transitions among the deltas of one fault
// Step, from index from on. The delta observer cannot tell a mask from
// an allocation, but a fault Step emits a fixed sequence: a failed free
// node's mask; or a killed job's release followed by its failed node's
// mask; or a repaired node's unmask. Allocations the change admits come
// after. A release of a masked node can only be an unmask.
func (c *capture) relabel(from int) {
	ds := c.deltas[from:]
	if len(ds) == 0 {
		return
	}
	first := &ds[0]
	id := c.nodes(*first)[0]
	switch {
	case first.op == opAlloc:
		first.op = opMask
		c.masked[id] = true
	case first.n == 1 && c.masked[id]:
		first.op = opUnmask
		c.masked[id] = false
	case len(ds) > 1:
		ds[1].op = opMask
		c.masked[c.nodes(ds[1])[0]] = true
	}
}

// allocReplay is the outcome of replaying a run's deltas.
type allocReplay struct {
	calls, releases    int
	allocNS, releaseNS int64
	match              bool
}

// replayAlloc replays captured deltas on a fresh allocator of the same
// spec and seed, timing Allocate and Release. It matches when every
// Allocate returns exactly the ids the engine's allocator returned; it
// stops at the first divergence, after which the replayed occupancy no
// longer fits the captured releases.
func replayAlloc(g *topo.Grid, spec string, seed int64, c *capture) (allocReplay, error) {
	r := allocReplay{match: true}
	a, err := alloc.Spec(g, spec, seed)
	if err != nil {
		return r, err
	}
	fa, _ := a.(alloc.FaultAware)
	buf := make([]int, g.Size())
	for _, d := range c.deltas {
		ids := c.nodes(d)
		switch d.op {
		case opAlloc:
			t0 := time.Now()
			got, err := a.Allocate(alloc.Request{Size: int(d.n)})
			r.allocNS += time.Since(t0).Nanoseconds()
			r.calls++
			if err != nil || !slices.EqualFunc(got, ids, func(x int, y int32) bool { return x == int(y) }) {
				r.match = false
				return r, nil
			}
		case opRelease:
			rel := buf[:d.n]
			for i, id := range ids {
				rel[i] = int(id)
			}
			t0 := time.Now()
			a.Release(rel)
			r.releaseNS += time.Since(t0).Nanoseconds()
			r.releases++
		case opMask, opUnmask:
			if fa == nil {
				return r, fmt.Errorf("allocator %s cannot mask nodes", a.Name())
			}
			if d.op == opMask {
				fa.MarkDown(int(ids[0]))
			} else {
				fa.MarkUp(int(ids[0]))
			}
		}
	}
	return r, nil
}

// Send replay size: enough messages to time Send to a few percent,
// few enough to take well under a second.
const (
	sendJobs       = 2000
	sendMsgsPerJob = 256
)

// replaySend times Network.Send alone. It samples captured allocations
// evenly, draws each one's message stream from the workload's pattern,
// and sends the messages on a fresh network of the same grid and
// routing, one job at a time, phase by phase: a phase starts when the
// previous phase's last message has arrived, as in the engine.
func replaySend(g *topo.Grid, cfg sim.Config, c *capture) (float64, error) {
	pat, err := comm.ByName(cfg.Pattern)
	if err != nil {
		return 0, err
	}
	var sets []delta
	for _, d := range c.deltas {
		if d.op == opAlloc {
			sets = append(sets, d)
		}
	}
	stride := max(len(sets)/sendJobs, 1)
	type msg struct {
		src, dst int32
		barrier  bool
	}
	var msgs []msg
	rng := stats.NewRNG(cfg.Seed)
	for i := 0; i < len(sets); i += stride {
		nodes := c.nodes(sets[i])
		gen := pat.Generator(len(nodes), rng)
		for k := 0; k < sendMsgsPerJob; k++ {
			m, newPhase := gen.Next()
			msgs = append(msgs, msg{src: nodes[m.Src], dst: nodes[m.Dst], barrier: k == 0 || newPhase})
		}
	}
	if len(msgs) == 0 {
		return 0, nil
	}
	net := netsim.New(g, cfg.Net)
	var now, last float64
	t0 := time.Now()
	for _, m := range msgs {
		if m.barrier {
			now = last
		}
		if r := net.Send(int(m.src), int(m.dst), now); r.Arrival > last {
			last = r.Arrival
		}
	}
	return float64(time.Since(t0).Nanoseconds()) / float64(len(msgs)), nil
}

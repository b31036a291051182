package sim

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"unsafe"

	"meshalloc/internal/fault"
	"meshalloc/internal/trace"
)

// TestEventSize pins the compact event layout: 24 bytes, so a sift
// moves three words per level and the heap carries no pointers.
func TestEventSize(t *testing.T) {
	if got := unsafe.Sizeof(event{}); got != 24 {
		t.Fatalf("event is %d bytes, want 24", got)
	}
}

// streamGen produces one timestamp per call; each models a timestamp
// distribution the heap must order exactly.
type streamGen func(rng *rand.Rand, i int) float64

var eventStreams = map[string]streamGen{
	"uniform": func(rng *rand.Rand, _ int) float64 {
		return rng.Float64() * 1000
	},
	"clustered": func(rng *rand.Rand, i int) float64 {
		// Tight bursts around a slowly advancing center — the shape a
		// bursty arrival process feeds the engine.
		center := float64(i/64) * 10
		return center + rng.Float64()*0.01
	},
	"heavy-tail": func(rng *rand.Rand, _ int) float64 {
		// Pareto-ish: most events near zero, rare ones far out.
		u := rng.Float64()
		if u < 1e-9 {
			u = 1e-9
		}
		return math.Pow(u, -2) - 1
	},
	"same-t-burst": func(rng *rand.Rand, i int) float64 {
		// Long runs of exactly equal timestamps: the FIFO seq tie rule
		// carries the whole ordering.
		return float64(i / 37)
	},
	"des-clock": func(rng *rand.Rand, i int) float64 {
		// Monotone-ish clock advance with short lookahead, the engine's
		// actual usage pattern.
		return float64(i)*0.5 + rng.Float64()*20
	},
}

// streamNames lists eventStreams in a fixed order, so a fuzz input
// selects the same shape on every run.
func streamNames() []string {
	names := make([]string, 0, len(eventStreams))
	for name := range eventStreams {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// FuzzEventHeap applies a random sequence of push, pop and replaceTop
// over one of the eventStreams shapes and checks every popped event and
// the heap order after every operation against a sorted-slice
// reference, then drains both.
func FuzzEventHeap(f *testing.F) {
	names := streamNames()
	for i := range names {
		f.Add(int64(i+1), uint16(2000), uint8(i))
	}
	f.Add(int64(42), uint16(5000), uint8(3)) // long same-t bursts
	f.Add(int64(7), uint16(64), uint8(0))
	f.Fuzz(func(t *testing.T, seed int64, n uint16, shape uint8) {
		name := names[int(shape)%len(names)]
		gen := eventStreams[name]
		rng := rand.New(rand.NewSource(seed))
		var h eventHeap
		var ref []event // ascending (t, seq)
		insert := func(ev event) {
			i := sort.Search(len(ref), func(i int) bool { return ev.before(ref[i]) })
			ref = append(ref, event{})
			copy(ref[i+1:], ref[i:])
			ref[i] = ev
		}
		check := func(op string, got event) {
			t.Helper()
			want := ref[0]
			ref = ref[1:]
			if got != want {
				t.Fatalf("%s %s: got %+v, want %+v", name, op, got, want)
			}
		}
		seq := int64(0)
		next := func(i int) event {
			ev := event{t: gen(rng, i), seq: seq, kind: int32(rng.Intn(3)), h: int32(rng.Intn(100))}
			seq++
			return ev
		}
		for i := 0; i < int(n); i++ {
			switch op := rng.Intn(4); {
			case len(h) > 0 && op == 0:
				check("pop", h.pop())
			case len(h) > 0 && op == 1:
				ev := next(i)
				check("replaceTop", h[0])
				h.replaceTop(ev)
				insert(ev)
			default:
				ev := next(i)
				h.push(ev)
				insert(ev)
			}
			if len(h) != len(ref) {
				t.Fatalf("%s: heap holds %d events, reference %d", name, len(h), len(ref))
			}
			if j := h.disorder(); j >= 0 {
				t.Fatalf("%s: heap order broken at index %d", name, j)
			}
		}
		for len(h) > 0 {
			check("drain", h.pop())
		}
		if len(ref) != 0 {
			t.Fatalf("%s: heap empty with %d reference events left", name, len(ref))
		}
	})
}

// TestFaultFirstTieRule pins the engine's fault-versus-event tie rule
// on both sides of the comparison. On the heap, same-instant events pop
// in seq order and the root is what Step compares the pending fault
// against. In the engine, a node failure scripted at exactly the
// instant a job's finish event is due kills the job instead of
// completing it.
func TestFaultFirstTieRule(t *testing.T) {
	t.Run("heap", func(t *testing.T) {
		var h eventHeap
		// Three events at t=5 (seq order 1,2,3) and one at t=7.
		h.push(event{t: 5, seq: 2, kind: kindStep})
		h.push(event{t: 7, seq: 4, kind: kindFinish})
		h.push(event{t: 5, seq: 1, kind: kindArrival})
		h.push(event{t: 5, seq: 3, kind: kindFinish})
		if faultT := 5.0; !(faultT <= h[0].t) {
			t.Fatalf("fault at %v must apply before head at %v", faultT, h[0].t)
		}
		for want := int64(1); want <= 3; want++ {
			if ev := h.pop(); ev.t != 5 || ev.seq != want {
				t.Fatalf("tie pop got (t=%v seq=%d), want (5, %d)", ev.t, ev.seq, want)
			}
		}
		if ev := h.pop(); ev.t != 7 || ev.seq != 4 {
			t.Fatalf("final pop got (t=%v seq=%d), want (7, 4)", ev.t, ev.seq)
		}
	})
	t.Run("engine", func(t *testing.T) {
		job := trace.Job{ID: 1, Size: 16, Arrival: 0, Runtime: 50}
		cfg := Config{Dims: []int{8, 8}, Alloc: "hilbert/bestfit", Pattern: "nbody", Seed: 1}
		calm, err := Run(cfg, &trace.Trace{Jobs: []trace.Job{job}})
		if err != nil {
			t.Fatal(err)
		}
		rec := calm.Records[0]
		cfg.Faults = fault.Config{Script: []fault.Event{{T: rec.Finish, Node: rec.Nodes[0], Kind: fault.NodeDown}}}
		cfg.Retry = fault.Retry{Kind: fault.RetryNone}
		e, err := NewEngine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := e.Submit(job); err != nil {
			t.Fatal(err)
		}
		e.Drain()
		if res := e.Result(); res.Killed != 1 || res.Jobs != 0 {
			t.Fatalf("failure at the finish instant %v: %d killed, %d finished; want the kill to win",
				rec.Finish, res.Killed, res.Jobs)
		}
	})
}

// TestFusedStepZeroAlloc pins the fused reschedule at zero allocations:
// a steady-state live step is processed at the heap root and its next
// step replaces the root in place.
func TestFusedStepZeroAlloc(t *testing.T) {
	e, err := NewEngine(Config{Dims: []int{8, 8}, Alloc: "hilbert/bestfit", Pattern: "nbody", Seed: 1,
		KeepRecords: Discard, KeepNodes: Discard})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Submit(trace.Job{ID: 1, Size: 16, Runtime: 1e6}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		e.Step() // the arrival, then warm-up steps
	}
	steps := e.core.Steps
	n := testing.AllocsPerRun(200, func() {
		if len(e.events) != 1 || e.events[0].kind != kindStep || e.store.dead[e.events[0].h] {
			t.Fatalf("heap root %+v is not the running job's live step", e.events)
		}
		e.Step()
	})
	if n != 0 {
		t.Fatalf("fused step allocates %.1f objects, want 0", n)
	}
	if e.core.Steps-steps != 201 || len(e.events) != 1 {
		t.Fatalf("%d steps processed, %d events queued; want 201 and 1", e.core.Steps-steps, len(e.events))
	}
}

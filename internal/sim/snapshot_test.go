package sim

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"meshalloc/internal/snap"
	"meshalloc/internal/trace"
)

// resumeCases are the configurations the crash-resume equivalence suite
// runs: each exercises a different slice of snapshot state — the
// schedule-driven patterns, the engine RNG (random pattern), allocator
// aux state (NextFit cursor, the random allocator's RNG position), the
// EASY scheduler's running index, and active fault injection with
// retry/backoff bookkeeping and per-node failure clocks.
var resumeCases = []struct {
	name string
	cfg  Config
	tr   func() *trace.Trace
}{
	{
		name: "hilbert-alltoall",
		cfg: Config{MeshW: 16, MeshH: 22, Alloc: "hilbert/bestfit", Pattern: "alltoall",
			Load: 0.2, TimeScale: 0.01, Seed: 1},
		tr: func() *trace.Trace {
			return trace.NewSDSC(trace.SDSCConfig{Jobs: 120, MaxSize: 352, Seed: 1}).FilterMaxSize(352)
		},
	},
	{
		name: "random-pattern-random-alloc",
		cfg: Config{MeshW: 16, MeshH: 16, Alloc: "random", Pattern: "random",
			Load: 0.4, TimeScale: 0.01, Seed: 7},
		tr: func() *trace.Trace {
			return trace.NewSDSC(trace.SDSCConfig{Jobs: 120, MaxSize: 256, Seed: 2}).FilterMaxSize(256)
		},
	},
	{
		name: "easy-nextfit",
		cfg: Config{MeshW: 16, MeshH: 16, Alloc: "hilbert/nextfit", Pattern: "nbody",
			Load: 0.4, TimeScale: 0.01, Seed: 1, Scheduler: "easy"},
		tr: func() *trace.Trace {
			return trace.NewSDSC(trace.SDSCConfig{Jobs: 120, MaxSize: 256, Seed: 3}).FilterMaxSize(256)
		},
	},
	{
		name: "faulty-mc1x1",
		cfg:  faultyCfg("mc1x1", 0),
		tr:   func() *trace.Trace { return faultTrace(150, 32) },
	},
}

// snapshotAt submits the whole trace, steps exactly n events, and
// returns the engine's snapshot.
func snapshotAt(t *testing.T, cfg Config, tr *trace.Trace, n int) []byte {
	t.Helper()
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range tr.Jobs {
		if err := e.Submit(j); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		if !e.Step() {
			t.Fatalf("engine exhausted after %d of %d events", i, n)
		}
	}
	var buf bytes.Buffer
	if err := e.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// countEvents runs cfg over tr to completion and returns the total
// number of Step calls that processed an event.
func countEvents(t *testing.T, cfg Config, tr *trace.Trace) int {
	t.Helper()
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range tr.Jobs {
		if err := e.Submit(j); err != nil {
			t.Fatal(err)
		}
	}
	n := 0
	for e.Step() {
		n++
	}
	return n
}

// TestSnapshotResumeGoldenEquivalence is the crash-safety contract:
// snapshot at an interior event count, throw the engine away, restore
// from the bytes, run to completion — and require the bit-identical
// golden digest of the run that never stopped. Three interior points ×
// {off, every auditStride events} invariant audit × every resume case,
// including active fault injection.
func TestSnapshotResumeGoldenEquivalence(t *testing.T) {
	for _, tc := range resumeCases {
		for _, audit := range []int{0, auditStride} {
			cfg := tc.cfg
			cfg.AuditEvery = audit
			tr := tc.tr()
			res, err := Run(cfg, tr)
			if err != nil {
				t.Fatal(err)
			}
			want := goldenDigest(res)
			total := countEvents(t, cfg, tr)
			for _, n := range []int{total / 4, total / 2, 3 * total / 4} {
				name := fmt.Sprintf("%s/audit=%d/at=%d", tc.name, audit, n)
				t.Run(name, func(t *testing.T) {
					blob := snapshotAt(t, cfg, tr, n)
					e, err := RestoreEngine(bytes.NewReader(blob), cfg)
					if err != nil {
						t.Fatal(err)
					}
					e.Drain()
					if e.Deadlocked() {
						t.Fatal("restored run deadlocked")
					}
					if err := e.Audit(); err != nil {
						t.Fatalf("post-drain audit: %v", err)
					}
					if got := goldenDigest(e.Result()); got != want {
						t.Fatalf("resumed digest %s, want %s (resume is not bit-identical)", got, want)
					}
				})
			}
		}
	}
}

// TestSnapshotRestoresPermutedEventBlock: the snapshot's event block is
// order-free. A snapshot whose events were written in reversed or
// shuffled order — as an older engine's queue-internal walk could
// write them — restores to a heap that pops the identical (t, seq)
// sequence and reproduces the uninterrupted digest. The faulty case
// snapshots with a retry arrival queued.
func TestSnapshotRestoresPermutedEventBlock(t *testing.T) {
	permute := map[string]func([]event){
		"reversed": func(evs []event) {
			for i, j := 0, len(evs)-1; i < j; i, j = i+1, j-1 {
				evs[i], evs[j] = evs[j], evs[i]
			}
		},
		"shuffled": func(evs []event) {
			rng := rand.New(rand.NewSource(3))
			rng.Shuffle(len(evs), func(i, j int) { evs[i], evs[j] = evs[j], evs[i] })
		},
	}
	for _, k := range []int{0, 3} {
		tc := resumeCases[k]
		tr := tc.tr()
		res, err := Run(tc.cfg, tr)
		if err != nil {
			t.Fatal(err)
		}
		want := goldenDigest(res)
		total := countEvents(t, tc.cfg, tr)
		for _, how := range []string{"reversed", "shuffled"} {
			t.Run(tc.name+"/"+how, func(t *testing.T) {
				e, err := NewEngine(tc.cfg)
				if err != nil {
					t.Fatal(err)
				}
				for _, j := range tr.Jobs {
					if err := e.Submit(j); err != nil {
						t.Fatal(err)
					}
				}
				// Stop past the midpoint, and under faults only once a
				// retry arrival is queued.
				for i := 0; i < total/2 || (tc.cfg.Faults.Enabled() && queuedRetries(e) == 0); i++ {
					if !e.Step() {
						t.Fatal("run ended before a retry arrival was queued")
					}
				}
				if len(e.events) < 3 {
					t.Fatalf("only %d events queued mid-run; nothing to permute", len(e.events))
				}
				var canonical, permuted bytes.Buffer
				if err := e.Snapshot(&canonical); err != nil {
					t.Fatal(err)
				}
				permute[how](e.events)
				if err := e.Snapshot(&permuted); err != nil {
					t.Fatal(err)
				}
				if bytes.Equal(canonical.Bytes(), permuted.Bytes()) {
					t.Fatal("permuting the heap array left the event block unchanged")
				}
				r, err := RestoreEngine(bytes.NewReader(permuted.Bytes()), tc.cfg)
				if err != nil {
					t.Fatal(err)
				}
				r.Drain()
				if err := r.Audit(); err != nil {
					t.Fatalf("post-drain audit: %v", err)
				}
				if got := goldenDigest(r.Result()); got != want {
					t.Fatalf("permuted-block resume digest %s, want %s", got, want)
				}
			})
		}
	}
}

// TestSnapshotResumeOpenSystem covers the RunSource path: checkpoint
// mid-stream via the SetCheckpoint hook (including the held-job window
// while the clock advances toward a pulled arrival), restore engine and
// source, and require the streamed records to match the uninterrupted
// run record for record.
func TestSnapshotResumeOpenSystem(t *testing.T) {
	cfg := Config{MeshW: 8, MeshH: 8, Alloc: "hilbert/bestfit", Pattern: "nbody",
		TimeScale: 0.01, Seed: 5, KeepRecords: Discard, KeepNodes: Discard}
	const jobs = 200
	mkSource := func() trace.Source {
		return trace.Limit(trace.NewPoisson(40, 32, 5), jobs)
	}
	collect := func(e *Engine) *[]JobRecord {
		out := &[]JobRecord{}
		e.Observe(func(r JobRecord) { *out = append(*out, r) })
		return out
	}

	// Uninterrupted reference.
	ref, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	refRecs := collect(ref)
	if err := ref.RunSource(mkSource(), 0); err != nil {
		t.Fatal(err)
	}

	// Checkpointed run: snapshot engine + source every 512 events, stop
	// the run by abandoning it after enough checkpoints have fired.
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	collect(e)
	src := mkSource()
	var blob bytes.Buffer
	var srcState trace.SourceState
	ckpts := 0
	e.SetCheckpoint(512, func() {
		st, err := trace.CaptureSource(src)
		if err != nil {
			t.Fatal(err)
		}
		blob.Reset()
		if err := e.Snapshot(&blob); err != nil {
			t.Fatal(err)
		}
		srcState, ckpts = st, ckpts+1
	})
	if err := e.RunSource(src, 0); err != nil {
		t.Fatal(err)
	}
	if ckpts == 0 {
		t.Fatal("no checkpoint fired; lower the interval")
	}

	// Resume from the last checkpoint and finish.
	e2, err := RestoreEngine(bytes.NewReader(blob.Bytes()), cfg)
	if err != nil {
		t.Fatal(err)
	}
	recs := collect(e2)
	src2 := mkSource()
	if err := trace.RestoreSource(src2, srcState); err != nil {
		t.Fatal(err)
	}
	if err := e2.RunSource(src2, 0); err != nil {
		t.Fatal(err)
	}

	// The resumed run must emit exactly the reference records it had not
	// yet emitted at checkpoint time.
	all := *refRecs
	got := *recs
	if len(got) > len(all) {
		t.Fatalf("resumed run emitted %d records, reference %d", len(got), len(all))
	}
	tail := all[len(all)-len(got):]
	for i := range got {
		if fmt.Sprintf("%+v", got[i]) != fmt.Sprintf("%+v", tail[i]) {
			t.Fatalf("record %d diverged:\n  resumed %+v\n  reference %+v", i, got[i], tail[i])
		}
	}
	if got, want := goldenDigest(e2.Result()), goldenDigest(ref.Result()); got != want {
		t.Fatalf("resumed aggregate digest %s, want %s", got, want)
	}
}

// TestRestoreConfigMismatch: restoring under a semantically different
// config is refused with ErrConfigMismatch, while outcome-neutral
// fields may differ freely.
func TestRestoreConfigMismatch(t *testing.T) {
	tc := resumeCases[0]
	tr := tc.tr()
	blob := snapshotAt(t, tc.cfg, tr, 50)

	bad := tc.cfg
	bad.Seed = 99
	if _, err := RestoreEngine(bytes.NewReader(blob), bad); !errors.Is(err, ErrConfigMismatch) {
		t.Fatalf("seed change: got %v, want ErrConfigMismatch", err)
	}
	bad = tc.cfg
	bad.Alloc = "mc1x1"
	if _, err := RestoreEngine(bytes.NewReader(blob), bad); !errors.Is(err, ErrConfigMismatch) {
		t.Fatalf("alloc change: got %v, want ErrConfigMismatch", err)
	}
	ok := tc.cfg
	ok.AllocWorkers = 4
	ok.RebuildSched = true
	ok.AuditEvery = 10
	if _, err := RestoreEngine(bytes.NewReader(blob), ok); err != nil {
		t.Fatalf("outcome-neutral changes rejected: %v", err)
	}
}

// TestRestoreRejectsDamage: truncations and bit flips anywhere in the
// blob are rejected with a typed snap error — never a panic, never a
// silently-wrong engine.
func TestRestoreRejectsDamage(t *testing.T) {
	tc := resumeCases[3] // faulty case: every snapshot section populated
	tr := tc.tr()
	blob := snapshotAt(t, tc.cfg, tr, 200)

	if _, err := RestoreEngine(bytes.NewReader(blob), tc.cfg); err != nil {
		t.Fatalf("pristine blob rejected: %v", err)
	}
	for _, cut := range []int{0, 1, 7, 16, len(blob) / 2, len(blob) - 1} {
		if _, err := RestoreEngine(bytes.NewReader(blob[:cut]), tc.cfg); err == nil {
			t.Fatalf("truncation to %d bytes accepted", cut)
		}
	}
	for _, pos := range []int{0, 4, 8, 20, len(blob) / 3, len(blob) - 5} {
		dam := append([]byte(nil), blob...)
		dam[pos] ^= 0x10
		if _, err := RestoreEngine(bytes.NewReader(dam), tc.cfg); err == nil {
			t.Fatalf("bit flip at %d accepted", pos)
		}
	}
}

// FuzzRestoreEngine feeds arbitrary bytes — seeded with a valid
// snapshot (one of them holding queued retry arrivals) plus truncated
// and bit-flipped variants — to RestoreEngine.
// The contract under fuzzing: corrupt input yields a typed error, never
// a panic, and any input accepted as valid yields an engine whose
// invariants audit clean and that can step without crashing.
func FuzzRestoreEngine(f *testing.F) {
	cfg := Config{MeshW: 8, MeshH: 8, Alloc: "mc1x1", Pattern: "nbody",
		Load: 0.4, TimeScale: 0.01, Seed: 1}
	cfgF := faultyCfg("mc1x1", 0)
	tr := faultTrace(60, 32)
	// seed snapshots after n events, then steps on until done(e) holds.
	seed := func(c Config, n int, done func(*Engine) bool) []byte {
		e, err := NewEngine(c)
		if err != nil {
			f.Fatal(err)
		}
		for _, j := range tr.Jobs {
			if err := e.Submit(j); err != nil {
				f.Fatal(err)
			}
		}
		for i := 0; i < n || !done(e); i++ {
			if !e.Step() {
				f.Fatal("seed run ended early")
			}
		}
		var buf bytes.Buffer
		if err := e.Snapshot(&buf); err != nil {
			f.Fatal(err)
		}
		return buf.Bytes()
	}
	always := func(*Engine) bool { return true }
	valid := seed(cfg, 100, always)
	validF := seed(cfgF, 200, always)
	f.Add(valid)
	f.Add(validF)
	f.Add(seed(cfgF, 0, func(e *Engine) bool { return queuedRetries(e) > 0 }))
	f.Add(valid[:len(valid)/2])
	f.Add(validF[:17])
	for _, pos := range []int{0, 5, 9, 16, 40, len(valid) / 2} {
		dam := append([]byte(nil), valid...)
		dam[pos] ^= 0x08
		f.Add(dam)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, c := range []Config{cfg, cfgF} {
			e, err := RestoreEngine(bytes.NewReader(data), c)
			if err != nil {
				if e != nil {
					t.Fatal("error with non-nil engine")
				}
				continue
			}
			// Accepted input: the engine must be fully usable.
			if err := e.Audit(); err != nil {
				t.Fatalf("restored engine fails audit: %v", err)
			}
			for i := 0; i < 50 && e.Step(); i++ {
			}
		}
	})
}

// TestRestoreContainerErrorsAreTyped pins the error taxonomy the CLI
// relies on: damaged container → snap.ErrBadMagic / snap.ErrVersion /
// snap.ErrChecksum; valid container with impossible payload →
// snap.ErrCorrupt.
func TestRestoreContainerErrorsAreTyped(t *testing.T) {
	tc := resumeCases[0]
	blob := snapshotAt(t, tc.cfg, tc.tr(), 50)

	bad := append([]byte(nil), blob...)
	bad[0] = 'X'
	if _, err := RestoreEngine(bytes.NewReader(bad), tc.cfg); !errors.Is(err, snap.ErrBadMagic) {
		t.Fatalf("got %v, want ErrBadMagic", err)
	}
	bad = append([]byte(nil), blob...)
	bad[4] = 0xEE
	if _, err := RestoreEngine(bytes.NewReader(bad), tc.cfg); !errors.Is(err, snap.ErrVersion) {
		t.Fatalf("got %v, want ErrVersion", err)
	}
	bad = append([]byte(nil), blob...)
	bad[20] ^= 0x01
	if _, err := RestoreEngine(bytes.NewReader(bad), tc.cfg); !errors.Is(err, snap.ErrChecksum) {
		t.Fatalf("got %v, want ErrChecksum", err)
	}
}

// TestPeriodicAudit: Config.AuditEvery runs the invariant auditor
// between events without disturbing outputs, and a deliberately
// corrupted engine fails the audit with the named invariant.
func TestPeriodicAudit(t *testing.T) {
	tc := resumeCases[3]
	cfg := tc.cfg
	cfg.AuditEvery = 16
	res, err := Run(cfg, tc.tr())
	if err != nil {
		t.Fatal(err)
	}
	base, err := Run(tc.cfg, tc.tr())
	if err != nil {
		t.Fatal(err)
	}
	if g, w := goldenDigest(res), goldenDigest(base); g != w {
		t.Fatalf("AuditEvery changed outputs: %s vs %s", g, w)
	}

	if _, err := NewEngine(Config{MeshW: 8, MeshH: 8, Alloc: "mc1x1", Pattern: "nbody", AuditEvery: -1}); err == nil {
		t.Fatal("negative AuditEvery accepted")
	}
}

// TestAuditDetectsCorruption corrupts engine bookkeeping directly and
// requires Audit to name the broken invariant as a typed *Violation.
func TestAuditDetectsCorruption(t *testing.T) {
	mk := func() *Engine {
		e, err := NewEngine(resumeCases[0].cfg)
		if err != nil {
			t.Fatal(err)
		}
		tr := resumeCases[0].tr()
		for _, j := range tr.Jobs {
			if err := e.Submit(j); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 100; i++ {
			e.Step()
		}
		if err := e.Audit(); err != nil {
			t.Fatalf("healthy engine failed audit: %v", err)
		}
		return e
	}

	check := func(name, invariant string, corrupt func(*Engine)) {
		t.Run(name, func(t *testing.T) {
			e := mk()
			corrupt(e)
			err := e.Audit()
			if err == nil {
				t.Fatal("corruption not detected")
			}
			var v *Violation
			if !errors.As(err, &v) {
				t.Fatalf("audit error %v carries no *Violation", err)
			}
			if !strings.Contains(err.Error(), fmt.Sprintf("%q", invariant)) {
				t.Fatalf("audit reported %v, want invariant %q", err, invariant)
			}
		})
	}

	check("busy-procs", "busy-procs", func(e *Engine) { e.busyProcs++ })
	check("store-live", "store-live", func(e *Engine) { e.store.live++ })
	check("job-conservation", "job-conservation", func(e *Engine) { e.submitted++ })
	check("event-seq", "event-seq", func(e *Engine) { e.seq = 0 })
	check("event-heap", "event-heap", func(e *Engine) {
		last := len(e.events) - 1
		e.events[0], e.events[last] = e.events[last], e.events[0]
	})
	// arrivalAt returns the heap index of the k-th queued arrival event.
	arrivalAt := func(e *Engine, k int) int {
		for i, ev := range e.events {
			if ev.kind == kindArrival {
				if k == 0 {
					return i
				}
				k--
			}
		}
		t.Fatal("too few arrival events queued")
		return -1
	}
	check("arrival-slot-freed", "arrival-slot", func(e *Engine) {
		e.arrFree = append(e.arrFree, e.events[arrivalAt(e, 0)].h)
	})
	check("arrival-slot-shared", "arrival-slot", func(e *Engine) {
		e.events[arrivalAt(e, 1)].h = e.events[arrivalAt(e, 0)].h
	})
	check("arrival-slot-leaked", "arrival-slot", func(e *Engine) {
		e.arrivals = append(e.arrivals, trace.Job{})
	})
}

// TestSnapshotResumeWithQueueHeadOffset checkpoints while the pending
// queue's head offset is nonzero — dispatched entries still occupy the
// front of its backing slice — and requires the snapshot to carry only
// the live entries: the same engine with its queue compacted to offset
// zero writes the same bytes, and the resumed run reproduces the
// uninterrupted digest.
func TestSnapshotResumeWithQueueHeadOffset(t *testing.T) {
	tc := resumeCases[0]
	cfg := tc.cfg
	cfg.Load = 0.05 // contracted arrivals overload the machine, so the queue stays deep
	tr := tc.tr()
	res, err := Run(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	want := goldenDigest(res)

	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range tr.Jobs {
		if err := e.Submit(j); err != nil {
			t.Fatal(err)
		}
	}
	for e.qhead == 0 || e.Pending() < 2 {
		if !e.Step() {
			t.Fatal("run ended before the queue head offset became nonzero")
		}
	}
	var blob bytes.Buffer
	if err := e.Snapshot(&blob); err != nil {
		t.Fatal(err)
	}
	e.queue, e.qhead = append([]trace.Job(nil), e.pending()...), 0
	var compacted bytes.Buffer
	if err := e.Snapshot(&compacted); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(compacted.Bytes(), blob.Bytes()) {
		t.Fatal("snapshot depends on the queue's head offset")
	}
	r, err := RestoreEngine(bytes.NewReader(blob.Bytes()), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.Pending() != e.Pending() {
		t.Fatalf("restored %d pending jobs, want %d", r.Pending(), e.Pending())
	}
	r.Drain()
	if err := r.Audit(); err != nil {
		t.Fatalf("post-drain audit: %v", err)
	}
	if got := goldenDigest(r.Result()); got != want {
		t.Fatalf("resumed digest %s, want %s", got, want)
	}
}

// queuedRetries counts the queued arrival events that resubmit a killed
// job: a retry keeps the job's original arrival time, so it is queued
// later than that arrival.
func queuedRetries(e *Engine) int {
	n := 0
	for _, ev := range e.events {
		if ev.kind == kindArrival && e.arrivals[ev.h].Arrival < ev.t {
			n++
		}
	}
	return n
}

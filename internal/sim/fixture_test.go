package sim

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"

	"meshalloc/internal/fault"
	"meshalloc/internal/snap"
	"meshalloc/internal/trace"
)

var updateFixture = flag.Bool("update-fixture", false,
	"rewrite testdata/"+fixtureFile+" from the current engine (only after a deliberate format change)")

const (
	fixtureFile = "faulty-16x16.snap"
	// fixtureNDJSON is the sha256 of the NDJSON records (encoding/json,
	// one per line, in finish order) of the run restored from the
	// fixture and drained.
	fixtureNDJSON = "88d322b93781ef87d0f0b691d6e64d857641dd51c5e99a639d6abc2558c30059"
)

// fixtureRun is the run the committed snapshot fixture was taken from:
// a 16x16 machine under hilbert/bestfit with n-body traffic, node
// failures (exponential MTBF 300,000 s, MTTR 10,000 s) and backoff
// retry (60 s doubling to 3,600 s, four attempts) — simrun's
// -mtbf exp:300000 -mttr exp:10000 -retry backoff:60,3600,4.
func fixtureRun() (Config, *trace.Trace) {
	cfg := Config{
		Dims:  []int{16, 16},
		Alloc: "hilbert/bestfit", Pattern: "nbody",
		Load: 0.4, TimeScale: 0.01, Seed: 1,
		KeepRecords: Discard,
		Faults: fault.Config{
			MTBF: fault.Dist{Kind: fault.DistExponential, Mean: 300000},
			MTTR: fault.Dist{Kind: fault.DistExponential, Mean: 10000},
		},
		Retry: fault.Retry{Kind: fault.RetryBackoff, Base: 60, Cap: 3600, MaxAttempts: 4},
	}
	return cfg, trace.NewSDSC(trace.SDSCConfig{Jobs: 200, MaxSize: 256, Seed: 1}).FilterMaxSize(256)
}

// TestSnapshotFixture restores a snapshot committed in testdata — a
// container of the current snap.Version (1) taken mid-run from
// fixtureRun — drains it, and requires the pinned NDJSON digest. A
// change to the container layout or to the engine's snapshot payload
// therefore fails here instead of silently breaking users'
// checkpoints; such a change must bump snap.Version. The same bytes
// with the version field set to the next version (and the CRC
// recomputed, so only the version is wrong) must fail with
// snap.ErrVersion.
func TestSnapshotFixture(t *testing.T) {
	cfg, tr := fixtureRun()
	path := filepath.Join("testdata", fixtureFile)
	if *updateFixture {
		blob := snapshotAt(t, cfg, tr, countEvents(t, cfg, tr)/2)
		if err := os.WriteFile(path, blob, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if v := binary.LittleEndian.Uint32(blob[4:8]); v != snap.Version {
		t.Fatalf("fixture has container version %d, this build writes %d: regenerate it with -update-fixture", v, snap.Version)
	}

	e, err := RestoreEngine(bytes.NewReader(blob), cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Hash each record as one encoding/json line, the byte format
	// simrun -stream writes.
	h, records := sha256.New(), 0
	e.Observe(func(r JobRecord) {
		b, err := json.Marshal(r)
		if err != nil {
			t.Error(err)
		}
		h.Write(append(b, '\n'))
		records++
	})
	e.Drain()
	if err := e.Audit(); err != nil {
		t.Fatalf("post-drain audit: %v", err)
	}
	if res := e.Result(); records == 0 || res.Killed == 0 {
		t.Fatalf("restored fixture finished %d jobs after %d kills; want both nonzero", records, res.Killed)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != fixtureNDJSON {
		t.Fatalf("restored fixture NDJSON sha256 %s, want %s", got, fixtureNDJSON)
	}

	bad := append([]byte(nil), blob...)
	binary.LittleEndian.PutUint32(bad[4:8], snap.Version+1)
	binary.LittleEndian.PutUint32(bad[len(bad)-4:], crc32.ChecksumIEEE(bad[:len(bad)-4]))
	if _, err := RestoreEngine(bytes.NewReader(bad), cfg); !errors.Is(err, snap.ErrVersion) {
		t.Fatalf("version-2 container: got %v, want snap.ErrVersion", err)
	}
}

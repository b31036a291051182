package main

import (
	"encoding/json"
	"math"
	"testing"

	"meshalloc/internal/sim"
)

// checkRecord requires appendRecord to reproduce encoding/json's bytes
// for r, or to fail exactly when encoding/json does.
func checkRecord(t *testing.T, r sim.JobRecord) {
	t.Helper()
	want, werr := json.Marshal(r)
	got, gerr := appendRecord([]byte("prefix"), &r)
	if (werr != nil) != (gerr != nil) {
		t.Fatalf("record %+v: appendRecord error %v, encoding/json error %v", r, gerr, werr)
	}
	if werr != nil {
		return
	}
	if string(got) != "prefix"+string(want)+"\n" {
		t.Fatalf("record %+v:\n got %s\nwant %s", r, got[len("prefix"):], want)
	}
}

func TestAppendRecordMatchesEncodingJSON(t *testing.T) {
	full := sim.JobRecord{
		ID: 41, Size: 12, Quota: 1 << 40,
		Arrival: 1234.5, Start: 1300.25, Finish: 98765.4321,
		Response: 97530.9321, RunTime: 97465.1821, Wait: 65.75,
		AvgPairwise: 2.6666666666666665, AvgMsgDist: 3.14159, QueuedSec: 0.1 + 0.2,
		Components: 2, Contiguous: false,
		Nodes: []int{0, 7, 15, 351},
	}
	cases := map[string]func(r *sim.JobRecord){
		"full":          func(r *sim.JobRecord) {},
		"nodes nil":     func(r *sim.JobRecord) { r.Nodes = nil },
		"nodes empty":   func(r *sim.JobRecord) { r.Nodes = []int{} },
		"contiguous":    func(r *sim.JobRecord) { r.Contiguous, r.Components = true, 1 },
		"zero":          func(r *sim.JobRecord) { *r = sim.JobRecord{} },
		"negative zero": func(r *sim.JobRecord) { r.Wait, r.QueuedSec = math.Copysign(0, -1), math.Copysign(0, -1) },
		"negative ints": func(r *sim.JobRecord) { r.ID, r.Size, r.Quota, r.Components = -1, -2, -3, -4 },
		"tiny":          func(r *sim.JobRecord) { r.QueuedSec, r.Wait, r.AvgMsgDist = 1e-7, -1e-7, 1e-6 },
		"tiny precise":  func(r *sim.JobRecord) { r.QueuedSec, r.Wait = 1.2345e-9, 5e-324 },
		"huge":          func(r *sim.JobRecord) { r.Finish, r.Response, r.RunTime = 1e21, -1e21, 9.999999999999999e20 },
		"huge exponent": func(r *sim.JobRecord) { r.Finish, r.Response = 1.7976931348623157e308, 1.5e100 },
		"integral":      func(r *sim.JobRecord) { r.Arrival, r.Start = 3, 1e20 },
		"extreme ints":  func(r *sim.JobRecord) { r.ID, r.Quota = math.MaxInt, math.MinInt64 },
		"nan":           func(r *sim.JobRecord) { r.AvgPairwise = math.NaN() },
		"+inf":          func(r *sim.JobRecord) { r.Response = math.Inf(1) },
		"-inf":          func(r *sim.JobRecord) { r.Start = math.Inf(-1) },
	}
	for name, edit := range cases {
		t.Run(name, func(t *testing.T) {
			r := full
			r.Nodes = append([]int(nil), full.Nodes...)
			edit(&r)
			checkRecord(t, r)
		})
	}
}

func TestAppendRecordRejectsNonFinite(t *testing.T) {
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := appendRecord(nil, &sim.JobRecord{RunTime: f}); err == nil {
			t.Errorf("appendRecord accepted %v", f)
		}
	}
}

// FuzzAppendRecord checks byte equality with encoding/json over
// arbitrary field values; raw supplies the node list (nil when empty,
// otherwise one node per byte after the first).
func FuzzAppendRecord(f *testing.F) {
	f.Add(int64(1), int64(4), int64(100), 0.5, 1.0, 2.0, 1.5, 1.0, 0.5, 1.25, 2.5, 0.0, int64(1), true, []byte{0, 1, 2, 3, 4})
	f.Add(int64(0), int64(0), int64(0), 0.0, math.Copysign(0, -1), 1e-7, 1e21, -1e-7, 1e-6, 5e-324, 1e300, 0.1, int64(0), false, []byte(nil))
	f.Add(int64(-5), int64(9), int64(-1), 1e20, 123456789.125, 0.000123, 3e-10, 7.0, 8.5, 9.25, 10.125, 11.0625, int64(3), false, []byte{9})
	f.Fuzz(func(t *testing.T, id, size, quota int64, arr, start, fin, resp, run, wait, pair, msg, queued float64,
		comps int64, contig bool, raw []byte) {
		r := sim.JobRecord{
			ID: int(id), Size: int(size), Quota: quota,
			Arrival: arr, Start: start, Finish: fin, Response: resp, RunTime: run, Wait: wait,
			AvgPairwise: pair, AvgMsgDist: msg, QueuedSec: queued,
			Components: int(comps), Contiguous: contig,
		}
		if len(raw) > 0 {
			r.Nodes = make([]int, 0, len(raw)-1)
			for _, v := range raw[1:] {
				r.Nodes = append(r.Nodes, int(v)*int(raw[0])-100)
			}
		}
		checkRecord(t, r)
	})
}

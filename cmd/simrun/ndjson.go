package main

import (
	"fmt"
	"math"
	"strconv"

	"meshalloc/internal/sim"
)

// appendRecord appends r to b as one NDJSON line, byte-identical to
// encoding/json's output for the record (json.Marshal plus a newline)
// without reflection: fields in declaration order, floats in
// encoding/json's shortest form, and "Nodes":null for a nil slice. It
// fails, as encoding/json does, on a NaN or infinite float, which JSON
// cannot represent.
func appendRecord(b []byte, r *sim.JobRecord) ([]byte, error) {
	for _, f := range [...]float64{r.Arrival, r.Start, r.Finish, r.Response, r.RunTime,
		r.Wait, r.AvgPairwise, r.AvgMsgDist, r.QueuedSec} {
		if math.IsNaN(f) || math.IsInf(f, 0) {
			return b, fmt.Errorf("json: unsupported value: %s", strconv.FormatFloat(f, 'g', -1, 64))
		}
	}
	b = append(b, `{"ID":`...)
	b = strconv.AppendInt(b, int64(r.ID), 10)
	b = append(b, `,"Size":`...)
	b = strconv.AppendInt(b, int64(r.Size), 10)
	b = append(b, `,"Quota":`...)
	b = strconv.AppendInt(b, r.Quota, 10)
	b = append(b, `,"Arrival":`...)
	b = appendFloat(b, r.Arrival)
	b = append(b, `,"Start":`...)
	b = appendFloat(b, r.Start)
	b = append(b, `,"Finish":`...)
	b = appendFloat(b, r.Finish)
	b = append(b, `,"Response":`...)
	b = appendFloat(b, r.Response)
	b = append(b, `,"RunTime":`...)
	b = appendFloat(b, r.RunTime)
	b = append(b, `,"Wait":`...)
	b = appendFloat(b, r.Wait)
	b = append(b, `,"AvgPairwise":`...)
	b = appendFloat(b, r.AvgPairwise)
	b = append(b, `,"AvgMsgDist":`...)
	b = appendFloat(b, r.AvgMsgDist)
	b = append(b, `,"QueuedSec":`...)
	b = appendFloat(b, r.QueuedSec)
	b = append(b, `,"Components":`...)
	b = strconv.AppendInt(b, int64(r.Components), 10)
	b = append(b, `,"Contiguous":`...)
	b = strconv.AppendBool(b, r.Contiguous)
	b = append(b, `,"Nodes":`...)
	if r.Nodes == nil {
		b = append(b, "null"...)
	} else {
		b = append(b, '[')
		for i, id := range r.Nodes {
			if i > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendInt(b, int64(id), 10)
		}
		b = append(b, ']')
	}
	return append(b, "}\n"...), nil
}

// appendFloat formats a finite f as encoding/json does: the shortest
// decimal that round-trips, in 'f' form unless the magnitude is below
// 1e-6 or at least 1e21, where it switches to 'e' form with a
// two-digit negative exponent trimmed to one digit (1e-07 -> 1e-7).
func appendFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}

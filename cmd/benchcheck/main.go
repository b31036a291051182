// Command benchcheck compares a freshly produced BENCH_*.json artifact
// against a committed baseline and fails when a watched metric has
// regressed beyond tolerance. It is the CI tripwire of the event core:
// the committed BENCH_9.json records the events/sec the engine reached,
// and a change that silently halves it fails the bench-smoke job instead
// of surfacing in the next paper figure.
//
// Perf comparisons are host-metadata-gated: BENCH_*.json artifacts are
// self-describing (go version, GOOS/GOARCH, GOMAXPROCS, NumCPU — see
// BENCH.md), and comparing a 16-core workstation baseline against a
// single-core CI container would only measure the container. When the
// host blocks differ, benchcheck checks shape only — every watched
// (benchmark, metric) pair in the baseline must still exist in the
// fresh artifact with a sane value — and skips the ratio test.
//
// Example:
//
//	benchcheck -baseline BENCH_9.json -fresh BENCH_9.fresh.json
//	benchcheck -baseline BENCH_9.json -fresh f.json -metric events_per_sec -max-regress 15
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"strings"
)

// benchDoc mirrors the BENCH_*.json schema written by the root-package
// TestMain collector (see bench_test.go and BENCH.md).
type benchDoc struct {
	Host struct {
		GoVersion  string `json:"go_version"`
		GOOS       string `json:"goos"`
		GOARCH     string `json:"goarch"`
		GOMAXPROCS int    `json:"gomaxprocs"`
		NumCPU     int    `json:"num_cpu"`
	} `json:"host"`
	Entries []struct {
		Benchmark string  `json:"benchmark"`
		Metric    string  `json:"metric"`
		Value     float64 `json:"value"`
	} `json:"entries"`
}

func main() {
	var (
		baseline = flag.String("baseline", "BENCH_9.json", "committed baseline artifact")
		fresh    = flag.String("fresh", "", "freshly produced artifact to check (required)")
		metric   = flag.String("metric", "events_per_sec", "comma-separated higher-is-better metrics to watch")
		maxReg   = flag.Float64("max-regress", 15, "maximum tolerated regression in percent")
	)
	flag.Parse()
	if *fresh == "" {
		fatal(fmt.Errorf("-fresh is required"))
	}
	if *maxReg < 0 || *maxReg >= 100 || math.IsNaN(*maxReg) {
		fatal(fmt.Errorf("-max-regress wants a percentage in [0, 100), got %v", *maxReg))
	}
	watched := map[string]bool{}
	for _, m := range strings.Split(*metric, ",") {
		if m = strings.TrimSpace(m); m != "" {
			watched[m] = true
		}
	}
	if len(watched) == 0 {
		fatal(fmt.Errorf("-metric names no metrics"))
	}

	base, err := readDoc(*baseline)
	if err != nil {
		fatal(err)
	}
	got, err := readDoc(*fresh)
	if err != nil {
		fatal(err)
	}

	freshVals := map[string]float64{}
	for _, e := range got.Entries {
		freshVals[e.Benchmark+"\x00"+e.Metric] = e.Value
	}

	// The perf gate: ratio tests are meaningful only between like hosts.
	// GOMAXPROCS and NumCPU decide whether parallel machinery has cores
	// to use; GOOS/GOARCH decide whether the numbers are comparable at
	// all. The Go patch version is allowed to drift — flagging every
	// toolchain bump would train people to ignore the check.
	sameHost := base.Host.GOOS == got.Host.GOOS &&
		base.Host.GOARCH == got.Host.GOARCH &&
		base.Host.GOMAXPROCS == got.Host.GOMAXPROCS &&
		base.Host.NumCPU == got.Host.NumCPU
	if !sameHost {
		fmt.Printf("benchcheck: hosts differ (baseline %s/%s %d cpu / gomaxprocs %d, fresh %s/%s %d cpu / gomaxprocs %d); shape check only\n",
			base.Host.GOOS, base.Host.GOARCH, base.Host.NumCPU, base.Host.GOMAXPROCS,
			got.Host.GOOS, got.Host.GOARCH, got.Host.NumCPU, got.Host.GOMAXPROCS)
	}

	checked, failed := 0, 0
	for _, e := range base.Entries {
		if !watched[e.Metric] {
			continue
		}
		checked++
		v, ok := freshVals[e.Benchmark+"\x00"+e.Metric]
		if !ok {
			fmt.Printf("FAIL %s %s: present in baseline, missing from fresh artifact\n", e.Benchmark, e.Metric)
			failed++
			continue
		}
		if math.IsNaN(v) || math.IsInf(v, 0) || v <= 0 {
			fmt.Printf("FAIL %s %s: degenerate fresh value %v\n", e.Benchmark, e.Metric, v)
			failed++
			continue
		}
		if !sameHost {
			fmt.Printf("ok   %s %s: present (%.4g; perf not compared across hosts)\n", e.Benchmark, e.Metric, v)
			continue
		}
		floor := e.Value * (1 - *maxReg/100)
		if v < floor {
			fmt.Printf("FAIL %s %s: %.4g is %.1f%% below baseline %.4g (tolerance %.0f%%)\n",
				e.Benchmark, e.Metric, v, (1-v/e.Value)*100, e.Value, *maxReg)
			failed++
			continue
		}
		fmt.Printf("ok   %s %s: %.4g vs baseline %.4g (%+.1f%%)\n",
			e.Benchmark, e.Metric, v, e.Value, (v/e.Value-1)*100)
	}
	if checked == 0 {
		fatal(fmt.Errorf("baseline %s has no entries for watched metrics %s", *baseline, *metric))
	}
	if failed > 0 {
		fatal(fmt.Errorf("%d of %d watched metrics failed", failed, checked))
	}
}

func readDoc(path string) (*benchDoc, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc benchDoc
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("%s: %v", path, err)
	}
	if len(doc.Entries) == 0 {
		return nil, fmt.Errorf("%s: no bench entries", path)
	}
	return &doc, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchcheck:", err)
	os.Exit(1)
}

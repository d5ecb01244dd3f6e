package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
)

// benchmarkFile is the part of ../BENCHMARK.json this test checks
// against: the metric names and units every run must print.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// tinySizes shrink every input so each workload runs in seconds.
var tinySizes = sizes{
	mixScale: 1, synthRounds: 20,
	setups: 1, probeReps: 1, handlerReqs: 60, minOverheadN: 1,
}

// TestEveryWorkloadReportsEveryMetric runs each workload of
// BENCHMARK.json untraced and traced at a tiny size and checks that the
// run is correct, fails no operation, and prints exactly the declared
// metrics, finite and with their declared units.
func TestEveryWorkloadReportsEveryMetric(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json has %d workloads, the runner %d", len(bf.Workloads), len(workloads))
	}
	for _, wl := range bf.Workloads {
		for _, traced := range []bool{false, true} {
			want := map[string]string{}
			for _, m := range bf.EndToEnd {
				want[m.Name] = m.Unit
			}
			if traced {
				want = map[string]string{}
				for _, m := range bf.PerLayer {
					want[m.Name] = m.Unit
				}
			}
			cfg := config{workload: wl.Name, seed: 7, seconds: 1, traced: traced, outdir: t.TempDir(), sizes: tinySizes}
			res, err := run(cfg)
			if err != nil {
				t.Errorf("%s traced=%v: %v", wl.Name, traced, err)
				continue
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v failed=%d attempted=%d", wl.Name, traced, res.Correct, res.Failed, res.Attempted)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, want %d", wl.Name, traced, len(res.Metrics), len(want))
			}
			for name, unit := range want {
				m, ok := res.Metrics[name]
				switch {
				case !ok:
					t.Errorf("%s traced=%v: metric %s missing", wl.Name, traced, name)
				case m.Unit == "" || m.Unit != unit:
					t.Errorf("%s traced=%v: metric %s has unit %q, want %q", wl.Name, traced, name, m.Unit, unit)
				case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
					t.Errorf("%s traced=%v: metric %s = %v", wl.Name, traced, name, m.Value)
				}
			}
		}
	}
}

package main

import (
	"testing"
	"time"

	"condorg/bench/report"
)

// TestSmoke runs every workload for a one-second window and checks that
// each finishes with no failed operation and that the metric names the
// benchmark reports are exactly the ones BENCHMARK.json declares — so the
// contract and the code cannot drift apart in either direction. The last
// workload runs traced (with the generator check and the layer probes) to
// cover the per-layer names.
func TestSmoke(t *testing.T) {
	root, err := findRoot("")
	if err != nil {
		t.Fatal(err)
	}
	spec, err := report.LoadSpec(root + "/BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloadOrder) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the benchmark has %d", len(spec.Workloads), len(workloadOrder))
	}
	names := workloadOrder
	if testing.Short() {
		names = []string{"interactive", "recovery"}
	}
	for i, wl := range spec.Workloads {
		if wl.Name != workloadOrder[i] {
			t.Errorf("BENCHMARK.json workload %d is %q, the benchmark's is %q", i, wl.Name, workloadOrder[i])
		}
	}
	for i, name := range names {
		traced := i == len(names)-1
		opt := runOptions{root: root, seed: 1, seconds: 1, trace: traced, delay: 5 * time.Millisecond, setups: 1}
		res, err := runWorkload(name, opt)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		declared := spec.EndToEnd
		if traced {
			declared = spec.PerLayer
			if err := tracedExtras(res, opt); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		}
		if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
			t.Errorf("%s: %d of %d operations failed: %v", name, res.Failed, res.Attempted, res.Problems)
		}
		want := map[string]string{}
		for _, m := range declared {
			want[m.Name] = m.Unit
		}
		for got, m := range res.Metrics {
			if unit, ok := want[got]; !ok {
				t.Errorf("%s reports %q, which BENCHMARK.json does not declare", name, got)
			} else if unit != m.Unit {
				t.Errorf("%s reports %q in %q, BENCHMARK.json says %q", name, got, m.Unit, unit)
			}
			delete(want, got)
		}
		for missing := range want {
			t.Errorf("%s does not report %q, which BENCHMARK.json declares", name, missing)
		}
		if !traced {
			for metric, m := range res.Metrics {
				if m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, must never be 0", name, metric, m.Value)
				}
			}
		}
	}
}

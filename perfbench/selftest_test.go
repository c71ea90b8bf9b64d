package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"testing"
)

// benchmarkJSON is the part of the repository's BENCHMARK.json the
// self-test checks the program against.
type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
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

// TestSelfTest runs every workload, untraced and traced, at tiny scale
// and checks that all checks pass and that every metric BENCHMARK.json
// names is reported with its unit, and no other.
func TestSelfTest(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkJSON
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloadDefs) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program %d", len(spec.Workloads), len(workloadDefs))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloadDefs[i].name || w.Why != workloadDefs[i].why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the program %q (%q)", i, w.Name, w.Why, workloadDefs[i].name, workloadDefs[i].why)
		}
	}
	e2e := map[string]string{}
	for _, m := range spec.EndToEnd {
		e2e[m.Name] = m.Unit
	}
	layer := map[string]string{}
	for _, m := range spec.PerLayer {
		layer[m.Name] = m.Unit
	}

	seed := int64(3)
	for _, def := range workloadDefs {
		for _, traced := range []bool{false, true} {
			b := &bench{sc: tinyScale(), workers: 2, seed: &seed}
			var out bytes.Buffer
			res, err := execute(context.Background(), b, def, 0.3, traced, t.TempDir(), &out)
			if err != nil {
				t.Fatalf("%s traced=%v: %v\n%s", def.name, traced, err, out.String())
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d\n%s", def.name, traced, res.Correct, res.Attempted, res.Failed, out.String())
			}
			want := e2e
			if traced {
				want = layer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, BENCHMARK.json names %d", def.name, traced, len(res.Metrics), len(want))
			}
			for name, unit := range want {
				m, ok := res.Metrics[name]
				switch {
				case !ok:
					t.Errorf("%s traced=%v: metric %s missing", def.name, traced, name)
				case m.Unit != unit:
					t.Errorf("%s traced=%v: metric %s in %s, BENCHMARK.json says %s", def.name, traced, name, m.Unit, unit)
				case !traced && m.Value <= 0:
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", def.name, name, m.Value)
				}
			}
		}
	}
}

package main

import (
	"encoding/json"
	"os"
	"sort"
	"testing"
)

// benchmarkSpec is the part of BENCHMARK.json the smoke test checks
// against: the workload names and the metric names each mode prints.
type benchmarkSpec struct {
	Workloads []struct{ Name, Why string } `json:"workloads"`
	EndToEnd  []struct{ Name string }      `json:"end_to_end"`
	PerLayer  []struct{ Name string }      `json:"per_layer"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s benchmarkSpec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

func sameNames(t *testing.T, what string, got map[string]metric, want []struct{ Name string }) {
	t.Helper()
	var g, w []string
	for k := range got {
		g = append(g, k)
	}
	for _, m := range want {
		w = append(w, m.Name)
	}
	sort.Strings(g)
	sort.Strings(w)
	if len(g) != len(w) {
		t.Fatalf("%s: printed %d metrics %v, BENCHMARK.json lists %d %v", what, len(g), g, len(w), w)
	}
	for i := range g {
		if g[i] != w[i] {
			t.Fatalf("%s: printed %v, BENCHMARK.json lists %v", what, g, w)
		}
	}
}

func TestSpecNamesWorkloads(t *testing.T) {
	for _, w := range loadSpec(t).Workloads {
		if d := lookup(w.Name); d == nil {
			t.Errorf("BENCHMARK.json workload %q is not defined", w.Name)
		} else if d.why != w.Why {
			t.Errorf("%s: BENCHMARK.json says why %q, the workload says %q", w.Name, w.Why, d.why)
		}
	}
}

// TestSmoke runs every workload briefly in both modes: every check must
// pass and every metric BENCHMARK.json lists must be printed; a faulted
// workload prints the fail-over metrics instead of the otrace match.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("smoke runs simulate whole workloads")
	}
	spec := loadSpec(t)
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			window := w.perSecond * 2 / 3
			res, err := measuredRun(w, 7, window, newSpans())
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Attempted < 10000 {
				t.Fatalf("measured run: correct=%v attempted=%d", res.Correct, res.Attempted)
			}
			wantE2E := spec.EndToEnd
			if w.faults {
				wantE2E = append(wantE2E, struct{ Name string }{"unavailable_ns"})
			}
			sameNames(t, "end-to-end", res.Metrics, wantE2E)
			for k, m := range res.Metrics {
				if m.Value <= 0 {
					t.Errorf("%s = %v, want > 0", k, m.Value)
				}
			}
			traced, err := tracedRun(w, 7, window, newSpans())
			if err != nil {
				t.Fatal(err)
			}
			want := spec.PerLayer
			if w.faults {
				want = nil
				for _, m := range spec.PerLayer {
					if !unfaultedOnly[m.Name] {
						want = append(want, m)
					}
				}
				for k := range faultOnly {
					want = append(want, struct{ Name string }{k})
				}
			}
			sameNames(t, "per-layer", traced.Metrics, want)
		})
	}
}

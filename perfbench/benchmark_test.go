package main

import (
	"encoding/json"
	"os"
	"sort"
	"testing"
)

// TestBenchmarkFileMatchesRuns keeps BENCHMARK.json in step with the
// workloads the benchmark runs and the metrics they report: same names,
// same units. The per-layer names follow the experiment and data-set
// registries of internal/core, so an experiment added there shows here.
func TestBenchmarkFileMatchesRuns(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark: %v", err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	var wls []string
	for _, w := range b.Workloads {
		wls = append(wls, w.Name)
	}
	sameNames(t, "workloads", wls, workloads)
	var e2e []string
	for _, m := range b.EndToEnd {
		e2e = append(e2e, m.Name)
	}
	sameNames(t, "end_to_end", e2e, endToEndNames)
	var layers []string
	for _, m := range b.PerLayer {
		layers = append(layers, m.Name)
		if got := layerUnit(m.Name); got != m.Unit {
			t.Errorf("%s: reported in %s, declared in %s", m.Name, got, m.Unit)
		}
	}
	sameNames(t, "per_layer", layers, perLayerNames())
}

func sameNames(t *testing.T, what string, declared, reported []string) {
	t.Helper()
	d := append([]string(nil), declared...)
	r := append([]string(nil), reported...)
	sort.Strings(d)
	sort.Strings(r)
	if len(d) != len(r) {
		t.Fatalf("%s: %d declared, %d reported\ndeclared %v\nreported %v", what, len(d), len(r), d, r)
	}
	for i := range d {
		if d[i] != r[i] {
			t.Fatalf("%s: declared %q, reported %q", what, d[i], r[i])
		}
	}
}

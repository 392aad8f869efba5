package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// benchmarkFile mirrors BENCHMARK.json at the repository root.
type benchmarkFile struct {
	Workloads []workloadSpec `json:"workloads"`
	EndToEnd  []benchMetric  `json:"end_to_end"`
	PerLayer  []benchMetric  `json:"per_layer"`
}

type benchMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"`
}

// TestCatalogueMatchesBenchmarkJSON fails when a workload or metric name,
// unit, direction or bound in BENCHMARK.json drifts from the catalogue
// the program prints from.
func TestCatalogueMatchesBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloadSpecs) {
		t.Fatalf("BENCHMARK.json has %d workloads, the catalogue %d", len(b.Workloads), len(workloadSpecs))
	}
	for i, w := range workloadSpecs {
		if b.Workloads[i] != w {
			t.Errorf("workload %d: BENCHMARK.json %+v, catalogue %+v", i, b.Workloads[i], w)
		}
	}
	compare := func(kind string, got []benchMetric, want []metricSpec, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the catalogue %d", kind, len(got), len(want))
		}
		for i, w := range want {
			g := got[i]
			if g.Name != w.Name || g.Unit != w.Unit || g.Better != w.Better {
				t.Errorf("%s %d: BENCHMARK.json %s/%s/%s, catalogue %s/%s/%s", kind, i, g.Name, g.Unit, g.Better, w.Name, w.Unit, w.Better)
			}
			if bounded != (g.Bound != nil) || (bounded && *g.Bound != w.Bound) {
				t.Errorf("%s %s: bound in BENCHMARK.json %v, catalogue %v", kind, w.Name, g.Bound, w.Bound)
			}
		}
	}
	compare("end_to_end", b.EndToEnd, endToEndSpecs, true)
	compare("per_layer", b.PerLayer, perLayerSpecs, false)
}

// TestReportRefusesDrift pins that the printed metric set is exactly the
// catalogue: a missing or an extra metric is an error, not a result.
func TestReportRefusesDrift(t *testing.T) {
	values := map[string]float64{}
	for i, s := range endToEndSpecs {
		values[s.Name] = float64(i + 1)
	}
	res, err := report(endToEndSpecs, values)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range endToEndSpecs {
		if res.Metrics[s.Name].Unit != s.Unit {
			t.Errorf("%s printed with unit %q, want %q", s.Name, res.Metrics[s.Name].Unit, s.Unit)
		}
	}
	values["extra"] = 1
	if _, err := report(endToEndSpecs, values); err == nil {
		t.Error("an extra metric was accepted")
	}
	delete(values, "extra")
	delete(values, endToEndSpecs[0].Name)
	if _, err := report(endToEndSpecs, values); err == nil {
		t.Error("a missing metric was accepted")
	}
}

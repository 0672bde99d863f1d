package main

// The metric catalog is BENCHMARK.json's end_to_end and per_layer lists:
// every name the last output line may carry, with its unit. Every run
// reports every metric of its kind; a layer that does no work on a
// workload reports 0.

import (
	"encoding/json"
	"fmt"
	"os"
)

type metricSpec struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"` // "higher" or "lower"
}

// endToEnd metrics are reported with --trace 0. On the simulator
// workloads a unit of work is a guest-second of simulated time and a
// step is one 50 ms epoch of the whole testbed; on
// store-control a unit of work is a completed store operation and a
// step is its round trip. perLayer metrics are reported with --trace 1.
var endToEnd, perLayer []metricSpec

// loadCatalog reads the metric lists from a BENCHMARK.json file.
func loadCatalog(path string) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var b struct {
		EndToEnd []metricSpec `json:"end_to_end"`
		PerLayer []metricSpec `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	if len(b.EndToEnd) == 0 || len(b.PerLayer) == 0 {
		return fmt.Errorf("%s: no end_to_end or per_layer metrics", path)
	}
	endToEnd, perLayer = b.EndToEnd, b.PerLayer
	return nil
}

// unitOf is the catalog unit of a metric name.
func unitOf(name string) string {
	for _, list := range [][]metricSpec{endToEnd, perLayer} {
		for _, m := range list {
			if m.Name == name {
				return m.Unit
			}
		}
	}
	panic(fmt.Sprintf("orchbench: metric %q is not in the catalog", name))
}

// complete fills the metrics a run did not measure with 0 and reports
// any name outside the catalog or with the wrong unit.
func complete(o *outcome, list []metricSpec) {
	known := map[string]string{}
	for _, m := range list {
		known[m.Name] = m.Unit
		if _, ok := o.metrics[m.Name]; !ok {
			o.set(m.Name, 0, m.Unit)
		}
	}
	for name, m := range o.metrics {
		unit, ok := known[name]
		o.check(ok, "metric %q is not in this run's catalog", name)
		o.check(!ok || unit == m.Unit, "metric %q has unit %q, catalog says %q", name, m.Unit, unit)
	}
}

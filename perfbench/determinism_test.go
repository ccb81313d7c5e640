package main

import (
	"encoding/json"
	"os"
	"slices"
	"testing"

	"domino/internal/netsim"
)

// smallScenarios are the three workloads at reduced size.
func smallScenarios() map[string]func() scenario {
	return map[string]func() scenario{
		"catalog_pipeline": func() scenario {
			c := defaultCatalogConfig()
			c.packets, c.minBatch, c.maxBatch, c.checkPrefix, c.warmRounds, c.fixedRounds = 512, 16, 128, 128, 4, 40
			return newCatalog(c)
		},
		"fattree_fct": func() scenario {
			c := defaultFatTreeConfig()
			c.exp.K, c.exp.Flows = 4, 256
			return newFatTree(c)
		},
		"leafspine_gray": func() scenario {
			c := defaultLeafSpineConfig()
			c.exp.FlowsPerHost, c.exp.PktsPerFlow = 2, 256
			return newLeafSpine(c)
		},
	}
}

// tracedEpoch runs one traced epoch and returns its per-layer metrics and
// input digest.
func tracedEpoch(t *testing.T, name string, w scenario, seed int64) (map[string]float64, uint64) {
	t.Helper()
	r := &report{}
	tr, err := runEpoch(name, w, seed, quota{}, true, r)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.failures) > 0 {
		t.Fatalf("%d failed checks: %v", len(r.failures), r.failures)
	}
	return layerMetrics(r, tr), r.digest
}

// TestDeterminism runs each workload twice at one seed and requires every
// count-type per-layer metric — simulated statistics, pipeline depths,
// compile verdicts — to repeat exactly; a second seed must change the
// generated inputs.
func TestDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles every workload's programs three times")
	}
	for name, mk := range smallScenarios() {
		t.Run(name, func(t *testing.T) {
			a, da := tracedEpoch(t, name, mk(), 7)
			b, db := tracedEpoch(t, name, mk(), 7)
			if da != db {
				t.Errorf("seed 7 generated different inputs: %016x vs %016x", da, db)
			}
			counted := 0
			for _, d := range perLayer {
				if !countMetric(d) {
					continue
				}
				if a[d.name] != 0 {
					counted++
				}
				if a[d.name] != b[d.name] {
					t.Errorf("%s: %v then %v at the same seed", d.name, a[d.name], b[d.name])
				}
			}
			if counted == 0 {
				t.Error("no count-type metric was nonzero")
			}
			if _, dc := tracedEpoch(t, name, mk(), 8); dc == da {
				t.Errorf("seeds 7 and 8 generated identical inputs (%016x)", da)
			}
		})
	}
}

// TestGrayFaultsRecover checks the fault schedule names every gray kind
// and that whatever goes down comes back.
func TestGrayFaultsRecover(t *testing.T) {
	c := defaultLeafSpineConfig().exp
	c.FlowsPerHost, c.PktsPerFlow, c.Seed = 2, 64, 3
	ls, _, err := c.Build()
	if err != nil {
		t.Fatal(err)
	}
	f := grayFaults(3, ls, c.Trace())
	kinds := map[netsim.FaultKind]int{}
	for _, ev := range f.Events {
		kinds[ev.Kind]++
	}
	for _, k := range []netsim.FaultKind{netsim.FaultLinkCorrupt, netsim.FaultLinkReorder, netsim.FaultLinkDuplicate,
		netsim.FaultLinkDown, netsim.FaultLinkUp, netsim.FaultSwitchRestart} {
		if kinds[k] == 0 {
			t.Errorf("schedule has no %v event", k)
		}
	}
	if kinds[netsim.FaultLinkDown] != kinds[netsim.FaultLinkUp] {
		t.Errorf("%d links go down but %d come up", kinds[netsim.FaultLinkDown], kinds[netsim.FaultLinkUp])
	}
}

// TestBenchmarkFileMatches keeps BENCHMARK.json's metric lists in step
// with what the driver prints.
func TestBenchmarkFileMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark:", err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string }         `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	slices.Sort(names)
	if !slices.Equal(names, workloadNames()) {
		t.Errorf("BENCHMARK.json workloads %v, driver runs %v", names, workloadNames())
	}
	e2e := endToEnd(&report{})
	if len(spec.EndToEnd) != len(e2e) {
		t.Errorf("BENCHMARK.json lists %d end-to-end metrics, driver prints %d", len(spec.EndToEnd), len(e2e))
	}
	for _, m := range spec.EndToEnd {
		if got, ok := e2e[m.Name]; !ok || got.Unit != m.Unit {
			t.Errorf("end-to-end %s (%s): driver prints %+v", m.Name, m.Unit, got)
		}
	}
	if len(spec.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, driver prints %d", len(spec.PerLayer), len(perLayer))
	}
	for i, m := range spec.PerLayer {
		if d := perLayer[i]; d.name != m.Name || d.unit != m.Unit || d.better != m.Better {
			t.Errorf("per-layer %d: BENCHMARK.json %+v, driver %+v", i, m, d)
		}
	}
}

package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"
)

// benchFile mirrors the parts of BENCHMARK.json the printer must agree with.
type benchFile struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit string
	} `json:"per_layer"`
}

func readBenchFile(t *testing.T) benchFile {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchFile
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatal(err)
	}
	return f
}

// TestBenchmarkFileMatchesPrinter pins BENCHMARK.json's workloads and metric
// names and units to what the benchmark prints.
func TestBenchmarkFileMatchesPrinter(t *testing.T) {
	f := readBenchFile(t)
	if len(f.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(f.Workloads), len(workloads))
	}
	for _, w := range f.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q is not run by the benchmark", w.Name)
		}
	}
	if len(f.EndToEnd) != len(endToEnd) {
		t.Fatalf("end_to_end: %d in BENCHMARK.json, %d printed", len(f.EndToEnd), len(endToEnd))
	}
	for i, m := range f.EndToEnd {
		if m.Name != endToEnd[i].name || m.Unit != endToEnd[i].unit {
			t.Errorf("end_to_end[%d] = %s %s, printer has %s %s", i, m.Name, m.Unit, endToEnd[i].name, endToEnd[i].unit)
		}
	}
	if len(f.PerLayer) != len(perLayer) {
		t.Fatalf("per_layer: %d in BENCHMARK.json, %d printed", len(f.PerLayer), len(perLayer))
	}
	for i, m := range f.PerLayer {
		if m.Name != perLayer[i].name || m.Unit != perLayer[i].unit {
			t.Errorf("per_layer[%d] = %s %s, printer has %s %s", i, m.Name, m.Unit, perLayer[i].name, perLayer[i].unit)
		}
	}
}

// TestProvenanceCoversEveryLayerMetric requires provenance.json to map every
// per-layer metric to an end-to-end metric and a workload that exist.
func TestProvenanceCoversEveryLayerMetric(t *testing.T) {
	b, err := os.ReadFile("provenance.json")
	if err != nil {
		t.Fatal(err)
	}
	var p struct {
		Workloads map[string]struct {
			Why        string   `json:"why"`
			Loads      []string `json:"loads"`
			Bypasses   []string `json:"bypasses"`
			Supersedes []string `json:"supersedes"`
		} `json:"workloads"`
		LayerToEndToEnd map[string][]string `json:"layer_to_end_to_end"`
	}
	if err := json.Unmarshal(b, &p); err != nil {
		t.Fatal(err)
	}
	e2e := map[string]bool{}
	for _, m := range endToEnd {
		e2e[m.name] = true
	}
	for name := range workloads {
		w, ok := p.Workloads[name]
		if !ok || w.Why == "" || len(w.Loads) == 0 {
			t.Errorf("provenance.json: workload %s lacks why/loads", name)
		}
	}
	for _, m := range perLayer {
		targets, ok := p.LayerToEndToEnd[m.name]
		if !ok {
			t.Errorf("provenance.json: no end-to-end target for %s", m.name)
		}
		for _, tg := range targets {
			metric, wl, ok := strings.Cut(tg, "@")
			if _, known := workloads[wl]; !ok || !e2e[metric] || !known {
				t.Errorf("provenance.json: %s -> %q is not metric@workload", m.name, tg)
			}
		}
	}
}

// TestWorkloadsSelfTest runs every workload with tiny budgets, untraced and
// traced, through the metric printer and the output checks.
func TestWorkloadsSelfTest(t *testing.T) {
	for name := range workloads {
		for _, trace := range []bool{false, true} {
			cfg := runConfig{workload: name, seed: 1, window: time.Millisecond, trace: trace,
				maxOps: 4, tiny: true, workDir: t.TempDir()}
			var buf bytes.Buffer
			if err := run(&buf, cfg); err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s trace=%v: last line: %v", name, trace, err)
			}
			if res.Attempted < 1 || res.Failed != 0 || !res.Correct {
				t.Errorf("%s trace=%v: attempted %d failed %d correct %v\n%s", name, trace, res.Attempted, res.Failed, res.Correct, buf.String())
			}
			want := endToEnd
			if trace {
				want = perLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, want %d", name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				if got, ok := res.Metrics[m.name]; !ok || got.Unit != m.unit {
					t.Errorf("%s trace=%v: metric %s = %+v", name, trace, m.name, got)
				}
			}
		}
	}
}

// TestDesignCheckCatchesWrongAnswer hands the design check a result that
// differs from what the exact engine computes, as a bad cache would.
func TestDesignCheckCatchesWrongAnswer(t *testing.T) {
	cfg := runConfig{seed: 1, tiny: true}
	next := designSetup(1)
	req := next()
	req.twoStage = false
	out := runDesignReq(cfg, req, nil)
	if ok, _ := checkDesign(out); !ok {
		t.Fatalf("unmodified result rejected: %v", out.err)
	}
	out.single.SnappedEval.WorstNFdB += 1e-12
	if ok, _ := checkDesign(out); ok {
		t.Error("re-grade accepted a result the engine would not return")
	}
}

package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"

	"floodgate/internal/exp"
)

// benchmarkJSON mirrors the root BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestBenchmarkJSONAgrees pins BENCHMARK.json to the tables in the
// code: same workloads and reasons, same metrics, units, directions and
// bounds, in the same order.
func TestBenchmarkJSONAgrees(t *testing.T) {
	b := loadBenchmarkJSON(t)
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, code has %d", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.Name || b.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), code has %q (%q)", i, b.Workloads[i].Name, b.Workloads[i].Why, w.Name, w.Why)
		}
	}
	if len(b.EndToEnd) != len(endToEnd) || len(b.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d+%d metrics, code has %d+%d", len(b.EndToEnd), len(b.PerLayer), len(endToEnd), len(perLayer))
	}
	for i, d := range endToEnd {
		if j := b.EndToEnd[i]; j.Name != d.Name || j.Unit != d.Unit || j.Better != d.Better || j.Bound != d.Bound {
			t.Errorf("end_to_end %d: BENCHMARK.json has %+v, code has %+v", i, j, d)
		}
	}
	for i, d := range perLayer {
		if j := b.PerLayer[i]; j.Name != d.Name || j.Unit != d.Unit || j.Better != d.Better {
			t.Errorf("per_layer %d: BENCHMARK.json has %+v, code has %+v", i, j, d)
		}
	}
}

// TestSmokeLedger runs all five workloads in-process at smoke size —
// two untraced iterations and a traced one each — and requires every
// metric BENCHMARK.json names to come out with its unit, on every
// workload, with every correctness check passing.
func TestSmokeLedger(t *testing.T) {
	b := loadBenchmarkJSON(t)
	l := &ledger{}
	by := map[string]*summary{}
	for _, w := range workloads {
		iters := []*iterResult{runIteration(w, 1, smokeSize, false), runIteration(w, 1, smokeSize, false)}
		traced := runIteration(w, 1, smokeSize, true)
		twinRunS := 0.0
		if tw := by[w.Twin]; tw != nil {
			twinRunS = tw.Host["run_s"].P25
		}
		s := summarizeWorkload(w, iters, []float64{0, 0}, traced, twinRunS)
		by[w.Name] = s
		l.Workloads = append(l.Workloads, s)
		for _, f := range s.Failures {
			t.Errorf("%s: %s", w.Name, f)
		}
		if len(traced.Spans) == 0 {
			t.Errorf("%s: traced iteration recorded no spans", w.Name)
		}

		for _, line := range []struct {
			defs  []metricDef
			names int
		}{{endToEnd, len(b.EndToEnd)}, {perLayer, len(b.PerLayer)}} {
			var got struct {
				Correct   bool `json:"correct"`
				Attempted int  `json:"attempted"`
				Failed    int  `json:"failed"`
				Metrics   map[string]struct {
					Value *float64 `json:"value"`
					Unit  string   `json:"unit"`
				} `json:"metrics"`
			}
			res, _ := resultLine(s, line.defs)
			if err := json.Unmarshal([]byte(res), &got); err != nil {
				t.Fatal(err)
			}
			if !got.Correct || got.Attempted < 1 || got.Failed != 0 {
				t.Errorf("%s: result line says correct=%v attempted=%d failed=%d", w.Name, got.Correct, got.Attempted, got.Failed)
			}
			if len(got.Metrics) != line.names {
				t.Errorf("%s: result line has %d metrics, BENCHMARK.json names %d", w.Name, len(got.Metrics), line.names)
			}
			for _, d := range line.defs {
				m, ok := got.Metrics[d.Name]
				if !ok || m.Value == nil || m.Unit != d.Unit || math.IsNaN(*m.Value) || math.IsInf(*m.Value, 0) {
					t.Errorf("%s: metric %s missing, not finite or without unit %q: %+v", w.Name, d.Name, d.Unit, m)
				}
			}
		}
		for _, d := range endToEnd {
			if v, _ := s.value(d.Name); v == 0 {
				t.Errorf("%s: end-to-end metric %s is 0", w.Name, d.Name)
			}
		}
	}
	l.crossCheck(by)
	for _, f := range l.Failures {
		t.Error(f)
	}
	if len(l.Accuracy) == 0 {
		t.Error("no accuracy information lines")
	}
}

// TestSourceFidelity proves the set-up/run split measures the
// unmodified program: flows fed through the timing Source wrapper and
// flows fed through RunConfig.Specs give the same simulation.
func TestSourceFidelity(t *testing.T) {
	w, err := workloadByName("incastmix_fg")
	if err != nil {
		t.Fatal(err)
	}
	viaSource := runIteration(w, 1, smokeSize, false)

	tp := w.buildTopo(smokeSize)
	specs := w.generate(tp, 1, smokeSize)
	rc := w.runConfig(tp, 1, smokeSize)
	rc.Specs = specs
	exact, fingerprint, failures := collect(w, tp, specs, exp.Run(rc))
	for _, f := range failures {
		t.Error(f)
	}
	if fingerprint != viaSource.Fingerprint {
		t.Errorf("sim_fingerprint via Specs %s, via Source %s", fingerprint, viaSource.Fingerprint)
	}
	if exact["exp.events"] != viaSource.Exact["exp.events"] {
		t.Errorf("exp.events via Specs %v, via Source %v", exact["exp.events"], viaSource.Exact["exp.events"])
	}
}

func TestQuantiles(t *testing.T) {
	q := summarize([]float64{5, 1, 4, 2, 3})
	if q.Min != 1 || q.P25 != 2 || q.Median != 3 || q.P75 != 4 || q.N != 5 {
		t.Errorf("summarize(1..5) = %+v", q)
	}
	if q := summarize([]float64{2, 1}); q.P25 != 1.25 {
		t.Errorf("p25 of {1,2} = %v, want 1.25", q.P25)
	}
}

package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"testing"
)

// benchmarkJSON mirrors BENCHMARK.json at the repository root.
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

// BENCHMARK.json must describe exactly the workloads and metrics this
// program runs and reports.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	var b benchmarkJSON
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}

	var names, whys []string
	for _, w := range workloads {
		names = append(names, w.name)
		whys = append(whys, w.why)
	}
	var gotNames, gotWhys []string
	for _, w := range b.Workloads {
		gotNames = append(gotNames, w.Name)
		gotWhys = append(gotWhys, w.Why)
	}
	if !reflect.DeepEqual(gotNames, names) || !reflect.DeepEqual(gotWhys, whys) {
		t.Errorf("workloads in BENCHMARK.json differ from the program's:\n%q\n%q", gotNames, names)
	}

	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics, program reports %d", len(b.EndToEnd), len(endToEnd))
	}
	for i, m := range endToEnd {
		g := b.EndToEnd[i]
		if g.Name != m.name || g.Unit != m.unit || g.Better != m.better || g.Bound != m.bound {
			t.Errorf("end_to_end[%d] = %+v, program has %s %s %s %g", i, g, m.name, m.unit, m.better, m.bound)
		}
	}
	if len(b.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics, program reports %d", len(b.PerLayer), len(perLayer))
	}
	for i, m := range perLayer {
		g := b.PerLayer[i]
		if g.Name != m.name || g.Unit != m.unit || g.Better != m.better {
			t.Errorf("per_layer[%d] = %+v, program has %s %s %s", i, g, m.name, m.unit, m.better)
		}
	}
}

// Every per-layer metric names what it should move, and the values
// the traced run computes cover the list exactly.
func TestPerLayerValuesCoverList(t *testing.T) {
	s := summarize([]repOut{{Ops: 1, MeasuredS: 1, Counts: map[string]float64{}}}, 1)
	s.traced = s.untraced
	v := s.perLayerValues()
	seen := map[string]bool{}
	for _, m := range perLayer {
		if m.moves == "" {
			t.Errorf("%s names no end-to-end metric it moves", m.name)
		}
		if _, ok := v[m.name]; !ok {
			t.Errorf("%s is listed but not computed", m.name)
		}
		seen[m.name] = true
	}
	for name := range v {
		if !seen[name] {
			t.Errorf("%s is computed but not listed", name)
		}
	}
	e := s.endToEndValues()
	for _, m := range endToEnd {
		if _, ok := e[m.name]; !ok {
			t.Errorf("end-to-end %s is listed but not computed", m.name)
		}
	}
}

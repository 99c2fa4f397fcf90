package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"regexp"
	"testing"
)

var update = flag.Bool("update", false, "rewrite spec.json from the Go tables")

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func TestNamesAndUnits(t *testing.T) {
	seen := map[string]bool{}
	check := func(name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("name %q does not match %s", name, nameRE)
		}
		if seen[name] {
			t.Errorf("name %q used twice", name)
		}
		seen[name] = true
	}
	for _, w := range workloads {
		check(w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 {
			t.Errorf("%s: why has %d characters, want 1..200", w.Name, len(w.Why))
		}
	}
	for _, list := range [][]metric{endToEnd, perLayer} {
		for _, m := range list {
			check(m.Name)
			if !unitRE.MatchString(m.Unit) {
				t.Errorf("%s: unit %q does not match %s", m.Name, m.Unit, unitRE)
			}
			if m.Better != "lower" && m.Better != "higher" {
				t.Errorf("%s: better = %q", m.Name, m.Better)
			}
		}
	}
	for _, m := range endToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
}

// TestBenchmarkJSONMatchesTables keeps the repository's BENCHMARK.json in
// step with the workloads and metrics this program reports.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, want %d", len(bj.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if got := bj.Workloads[i]; got.Name != w.Name || got.Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, want %s: %s", i, got, w.Name, w.Why)
		}
	}
	same := func(kind string, got, want []metric, bound bool) {
		if len(got) != len(want) {
			t.Fatalf("BENCHMARK.json has %d %s metrics, want %d", len(got), kind, len(want))
		}
		for i, w := range want {
			g := got[i]
			if g.Name != w.Name || g.Unit != w.Unit || g.Better != w.Better || (bound && g.Bound != w.Bound) {
				t.Errorf("%s metric %d: BENCHMARK.json has %s %s %s %v, want %s %s %s %v",
					kind, i, g.Name, g.Unit, g.Better, g.Bound, w.Name, w.Unit, w.Better, w.Bound)
			}
		}
	}
	same("end_to_end", bj.EndToEnd, endToEnd, true)
	same("per_layer", bj.PerLayer, perLayer, false)
}

// TestSpecJSONUpToDate pins spec.json, the workloads' configurations and
// predicted layer split and every metric's unit and meaning, to the Go
// tables. Regenerate it with go test -run TestSpecJSONUpToDate -update.
func TestSpecJSONUpToDate(t *testing.T) {
	want, err := json.MarshalIndent(specDoc(), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	want = append(want, '\n')
	if *update {
		if err := os.WriteFile("spec.json", want, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	got, err := os.ReadFile("spec.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Error("spec.json is stale; rerun with -update")
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(v, n=4) for each v.
	cases := []struct {
		vals   []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{3, 1, 2}, 1, 3},
		{[]float64{5, 1}, 0, 6}, // extrapolated, as Python does
		{[]float64{4, 1, 3, 2}, 1.25, 3.75},
	}
	for _, c := range cases {
		if q1, q3 := quartiles(c.vals); q1 != c.q1 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.vals, q1, q3, c.q1, c.q3)
		}
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
}

// workloadDoc is a workload's record in spec.json.
type workloadDoc struct {
	Name       string    `json:"name"`
	Why        string    `json:"why"`
	Config     configDoc `json:"config"`
	MostWork   []string  `json:"most_work"`
	LittleWork []string  `json:"little_work"`
}

// spec is what spec.json holds: every workload with its configuration at
// the default seed and its predicted layer split, and every metric with its
// unit and meaning.
type spec struct {
	Workloads []workloadDoc `json:"workloads"`
	EndToEnd  []metric      `json:"end_to_end"`
	PerLayer  []metric      `json:"per_layer"`
}

func specDoc() spec {
	s := spec{EndToEnd: endToEnd, PerLayer: perLayer}
	for _, w := range workloads {
		s.Workloads = append(s.Workloads, workloadDoc{
			Name: w.Name, Why: w.Why, Config: describe(w, defaultSeed),
			MostWork: w.MostWork, LittleWork: w.LittleWork,
		})
	}
	return s
}

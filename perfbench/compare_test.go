package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

func writeRecord(t *testing.T, name string, r record) string {
	t.Helper()
	b, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// reps returns timed reps whose run_s values are vals.
func reps(vals ...float64) []map[string]float64 {
	var out []map[string]float64
	for _, v := range vals {
		out = append(out, map[string]float64{"run_s": v, "setup_s": 0.1})
	}
	return out
}

func TestCompare(t *testing.T) {
	base := record{
		Host:     host{CPU: "cpu A", NProc: 2, GOMAXPROCS: 2, Go: "go1.24.0", Platform: "linux/amd64", Revision: "src-1"},
		Workload: "update-evict-4isl", Seed: 42, Digest: "committed=1",
		Reps: reps(1.0, 1.1, 1.2, 1.3),
	}
	newRev := base
	newRev.Host.Revision = "src-2"
	otherCPU := newRev
	otherCPU.Host.CPU = "cpu B"
	otherDigest := newRev
	otherDigest.Digest = "committed=2"
	otherSeed := newRev
	otherSeed.Seed = 7
	// q1 of run_s goes from 1.025 to 1.225: 20% worse, inside the 25% bound.
	slower := newRev
	slower.Reps = reps(1.2, 1.3, 1.4, 1.5)
	// q1 goes to 1.3: 27% worse.
	tooSlow := newRev
	tooSlow.Reps = reps(1.3, 1.3, 1.4, 1.5)

	old := writeRecord(t, "old.json", base)
	cases := []struct {
		name string
		args []string
		want int
	}{
		{"same machine, new revision", []string{old, writeRecord(t, "a.json", newRev)}, 0},
		{"other machine", []string{old, writeRecord(t, "b.json", otherCPU)}, 2},
		{"digest differs", []string{old, writeRecord(t, "d.json", otherDigest)}, 1},
		{"other seed", []string{old, writeRecord(t, "e.json", otherSeed)}, 2},
		{"slower within the bound", []string{old, writeRecord(t, "f.json", slower)}, 0},
		{"slower past the bound", []string{old, writeRecord(t, "g.json", tooSlow)}, 1},
		{"one file", []string{old}, 2},
	}
	for _, c := range cases {
		if got := compare(c.args); got != c.want {
			t.Errorf("%s: compare = %d, want %d", c.name, got, c.want)
		}
	}
}

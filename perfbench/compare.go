package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// compare prints two records of the same workload, seed and mode side by
// side: fingerprints, digests and every metric with the ratio new/old.
// End-to-end metrics are recomputed from each record's timed reps as the
// run reports them, the first quartile, and a line whose ratio is worse
// than the metric's bound is marked; per-layer metrics are medians over the
// traced reps and carry no bound. Records from different machines are
// refused: their timings say nothing about a change.
//
// It returns the process exit code: 0 when the digests agree and no
// end-to-end metric got worse by more than its bound, 1 when either fails,
// 2 when it refuses the comparison.
func compare(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: perfbench compare OLD.json NEW.json")
		return 2
	}
	var recs [2]record
	for i, path := range args {
		b, err := os.ReadFile(path)
		if err == nil {
			err = json.Unmarshal(b, &recs[i])
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 2
		}
	}
	old, cur := &recs[0], &recs[1]
	fmt.Printf("old host %+v\nnew host %+v\n", old.Host, cur.Host)
	if !old.Host.sameMachine(cur.Host) {
		fmt.Println("REFUSED: the records come from different machines; their timings are not comparable")
		return 2
	}
	if old.Workload != cur.Workload || old.Seed != cur.Seed || old.Trace != cur.Trace {
		fmt.Printf("REFUSED: different runs: %s seed=%d trace=%v vs %s seed=%d trace=%v\n",
			old.Workload, old.Seed, old.Trace, cur.Workload, cur.Seed, cur.Trace)
		return 2
	}

	code := 0
	if old.Digest == cur.Digest {
		fmt.Printf("digest identical: %s\n", cur.Digest)
	} else {
		fmt.Printf("digest DIFFERS\n- %s\n+ %s\n", old.Digest, cur.Digest)
		code = 1
	}
	for _, m := range endToEnd {
		o, n := column(old.Reps, m.Name), column(cur.Reps, m.Name)
		if len(o) == 0 || len(n) == 0 {
			continue
		}
		oq, _ := quartiles(o)
		nq, _ := quartiles(n)
		mark := ""
		if worse(m, oq, nq) {
			mark = fmt.Sprintf("  WORSE than the %.0f%% bound", m.Bound*100)
			code = 1
		}
		fmt.Printf("%-22s q1 %14s -> %-14s %-5s %s%s\n", m.Name, fmtFloat(oq), fmtFloat(nq), m.Unit, ratioText(oq, nq), mark)
	}
	for _, m := range perLayer {
		o, n := column(old.TracedReps, m.Name), column(cur.TracedReps, m.Name)
		if len(o) == 0 || len(n) == 0 {
			continue
		}
		om, nm := median(o), median(n)
		fmt.Printf("%-22s median %10s -> %-14s %-5s %s\n", m.Name, fmtFloat(om), fmtFloat(nm), m.Unit, ratioText(om, nm))
	}
	return code
}

// column collects one metric's values over reps.
func column(reps []map[string]float64, name string) []float64 {
	var vals []float64
	for _, r := range reps {
		if v, ok := r[name]; ok {
			vals = append(vals, v)
		}
	}
	return vals
}

// worse reports whether cur is worse than old by more than m's bound, in
// m's better direction.
func worse(m metric, old, cur float64) bool {
	if m.Better == "lower" {
		return cur > old*(1+m.Bound)
	}
	return cur < old*(1-m.Bound)
}

func ratioText(old, cur float64) string {
	if old == 0 {
		return "-"
	}
	return fmt.Sprintf("%.3fx", cur/old)
}

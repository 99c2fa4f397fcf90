// Command perfbench is the repository's benchmark: it builds and runs the
// workloads of workloads.go through the public functions of core, workload
// and harness and measures the simulator's host cost.
//
// An untraced run (-trace 0) repeats build, start and run of one workload
// for -seconds after one untimed warm-up rep and reports the first quartile
// of each end-to-end metric over the timed reps, its times stated at the
// nominal host speed of calib.go. A traced run (-trace 1) spends half its
// time on untraced reps and half on traced ones, and reports the per-layer
// metrics of spec.go. Both check the simulated outcome: every rep's digest
// must equal the first one's, the warm-up rep must hold the row-version
// atomicity bound, and a traced run of a sharded workload must match one
// run on a single shard. The last line of standard output is a JSON
// summary; a failed check makes the exit code 1.
//
//	perfbench -workload NAME [-seed N] [-seconds S] [-trace 0|1] [-out DIR]
//	perfbench -workload all          every workload in turn
//	perfbench compare OLD.json NEW.json   exit 1 on a digest change or a metric past its bound
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"time"
)

// defaultSeed is the seed a run uses unless -seed gives another.
const defaultSeed = 42

// minReps is the fewest timed reps a measuring phase takes, however short
// -seconds is.
const minReps = 3

// value is one reported number with its unit.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// summary is the last line of standard output.
type summary struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// record is one run's result as written under the output directory.
type record struct {
	Host     host    `json:"host"`
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Seconds  float64 `json:"seconds"`
	Trace    bool    `json:"trace"`
	// Digest is the first rep's simulated outcome; Errors lists every
	// failed check.
	Digest string   `json:"digest"`
	Errors []string `json:"errors"`
	// Reps holds each timed untraced rep's end-to-end metrics, TracedReps
	// each traced rep's per-layer metrics.
	Reps       []map[string]float64 `json:"reps"`
	TracedReps []map[string]float64 `json:"traced_reps,omitempty"`
	summary
}

func main() {
	out := flag.String("out", ".bench_build", "directory for result records")
	name := flag.String("workload", "", "workload to run, or all")
	seed := flag.Int64("seed", defaultSeed, "workload seed")
	seconds := flag.Float64("seconds", 30, "host seconds one run measures")
	trace := flag.Int("trace", 0, "1 for the traced per-layer run")
	flag.Parse()

	switch {
	case flag.Arg(0) == "compare":
		os.Exit(compare(flag.Args()[1:]))
	case flag.NArg() > 0 || *name == "" || (*trace != 0 && *trace != 1):
		flag.Usage()
		os.Exit(2)
	}

	root, err := os.Getwd()
	if err != nil {
		fail(err)
	}
	h := fingerprint(root, *out)
	fmt.Printf("host cpu=%q nproc=%d gomaxprocs=%d go=%s platform=%s revision=%s\n",
		h.CPU, h.NProc, h.GOMAXPROCS, h.Go, h.Platform, h.Revision)

	names := []string{*name}
	if *name == "all" {
		names = nil
		for _, w := range workloads {
			names = append(names, w.Name)
		}
	}
	total := summary{Correct: true, Metrics: map[string]value{}}
	for _, n := range names {
		w, err := lookup(n)
		if err != nil {
			fail(err)
		}
		rec := run(w, *seed, *seconds, *trace == 1)
		rec.Host = h
		path, err := save(*out, rec)
		if err != nil {
			fail(err)
		}
		fmt.Printf("record %s\n", path)
		printJSON(rec.summary)
		total.Correct = total.Correct && rec.Correct
		total.Attempted += rec.Attempted
		total.Failed += rec.Failed
		for k, v := range rec.Metrics {
			total.Metrics[n+"."+k] = v
		}
	}
	if len(names) > 1 {
		printJSON(total)
	}
	if !total.Correct {
		os.Exit(1)
	}
}

// run measures one workload and checks its simulated outcome.
func run(w *Workload, seed int64, seconds float64, traced bool) *record {
	rec := &record{Workload: w.Name, Seed: seed, Seconds: seconds, Trace: traced}
	cfg, err := json.Marshal(describe(w, seed))
	if err != nil {
		fail(err)
	}
	fmt.Printf("workload %s seed=%d config %s\n", w.Name, seed, cfg)

	start := time.Now()
	plainUntil := seconds
	if traced {
		plainUntil = seconds / 2
	}
	// The warm-up rep pays lazy initialisation and heap growth; it is not
	// timed, and it carries the run's atomicity check.
	warm := runRep(w, seed, repOptions{shards: w.Shards, atomicity: true})
	fmt.Printf("warm-up rep (untimed, with the atomicity check) took %.3fs\n", time.Since(start).Seconds())
	var plain, tracedReps []*rep
	for len(plain) < minReps || time.Since(start).Seconds() < plainUntil {
		plain = append(plain, runRep(w, seed, repOptions{shards: w.Shards}))
	}
	for traced && (len(tracedReps) < minReps || time.Since(start).Seconds() < seconds) {
		tracedReps = append(tracedReps, runRep(w, seed, repOptions{shards: w.Shards, trace: true}))
	}

	rec.Digest = warm.Digest
	fmt.Printf("digest %s seed=%d %s\n", w.Name, seed, warm.Digest)
	all := append(append([]*rep{warm}, plain...), tracedReps...)
	if traced && w.Shards > 1 {
		// The sharded kernel's contract: one shard simulates the same run.
		one := runRep(w, seed, repOptions{shards: 1})
		if one.Digest != warm.Digest {
			one.Err = fmt.Errorf("1-shard digest %s differs from the %d-shard one", one.Digest, w.Shards)
		}
		all = append(all, one)
	}
	for _, r := range all {
		if r.Err == nil && r.Digest != warm.Digest {
			r.Err = fmt.Errorf("digest %s differs from the first rep's", r.Digest)
		}
		rec.Attempted++
		if r.Err != nil {
			rec.Failed++
			rec.Errors = append(rec.Errors, r.Err.Error())
			fmt.Printf("FAILED %s: %v\n", w.Name, r.Err)
		}
	}
	rec.Correct = rec.Failed == 0

	rec.Metrics = map[string]value{}
	e2e := map[string][]float64{}
	for _, r := range plain {
		vals := map[string]float64{
			"setup_s": r.scaled(r.Setup()), "run_s": r.scaled(r.Run),
			"alloc_mb": mb(r.AllocBytes), "peak_heap_mb": mb(r.PeakHeapBytes),
			"setup_wall_s": r.Setup().Seconds(), "run_wall_s": r.Run.Seconds(), "ref_loop_s": r.RefLoop.Seconds(),
		}
		rec.Reps = append(rec.Reps, vals)
		for k, v := range vals {
			e2e[k] = append(e2e[k], v)
		}
	}
	for _, m := range endToEnd {
		// Interference from other tenants of the host only ever adds time,
		// so the first quartile of the timed reps is the steadier estimate
		// of the program's own cost; the memory metrics barely vary within
		// a run either way.
		if q1, _ := summarize(m, e2e[m.Name]); !traced {
			rec.Metrics[m.Name] = value{Value: q1, Unit: m.Unit}
		}
	}
	// The unscaled times and the host speed they were scaled by, for the
	// reader; they are not reported metrics.
	for _, name := range []string{"setup_wall_s", "run_wall_s", "ref_loop_s"} {
		summarize(metric{Name: name, Unit: "s"}, e2e[name])
	}
	if traced {
		untracedRun := median(e2e["run_s"])
		layer := map[string][]float64{}
		for _, r := range tracedReps {
			r.Layer["trace.overhead"] = r.scaled(r.Run) / untracedRun
			r.Layer["sim.events_per_s"] = r.Layer["sim.events"] / untracedRun
			rec.TracedReps = append(rec.TracedReps, r.Layer)
			for k, v := range r.Layer {
				layer[k] = append(layer[k], v)
			}
		}
		for _, m := range perLayer {
			_, med := summarize(m, layer[m.Name])
			rec.Metrics[m.Name] = value{Value: med, Unit: m.Unit}
		}
	}
	return rec
}

// summarize prints a metric's median and quartiles over vals and returns
// the first quartile and the median.
func summarize(m metric, vals []float64) (q1, med float64) {
	if len(vals) == 0 {
		fail(fmt.Errorf("no samples of %s", m.Name))
	}
	med = median(vals)
	q1, q3 := quartiles(vals)
	fmt.Printf("%-22s %14s %-5s median of %d (q1 %s, q3 %s)\n", m.Name, fmtFloat(med), m.Unit, len(vals),
		fmtFloat(q1), fmtFloat(q3))
	return q1, med
}

func mb(b uint64) float64 { return float64(b) / 1e6 }

func fmtFloat(v float64) string { return strconv.FormatFloat(v, 'g', 6, 64) }

func median(vals []float64) float64 {
	s := slices.Sorted(slices.Values(vals))
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartiles the way Python's
// statistics.quantiles(vals, n=4) computes them (the exclusive method);
// with one value both are that value.
func quartiles(vals []float64) (q1, q3 float64) {
	s := slices.Sorted(slices.Values(vals))
	if len(s) == 1 {
		return s[0], s[0]
	}
	q := func(i int) float64 {
		m := len(s) + 1
		j := min(max(i*m/4, 1), len(s)-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}

// save writes rec as JSON under dir/results and returns its path.
func save(dir string, rec *record) (string, error) {
	dir = filepath.Join(dir, "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	trace := 0
	if rec.Trace {
		trace = 1
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d-trace%d-%s.json",
		rec.Workload, rec.Seed, trace, time.Now().UTC().Format("20060102T150405.000000000")))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rec); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}

func printJSON(v any) {
	b, err := json.Marshal(v)
	if err != nil {
		fail(err)
	}
	fmt.Println(string(b))
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

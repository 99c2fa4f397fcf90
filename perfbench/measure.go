package main

import (
	"bytes"
	"fmt"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"strconv"
	"sync/atomic"
	"time"

	"islands/internal/core"
	"islands/internal/engine"
)

// rep is one build-start-run of a workload, timed from outside the program.
type rep struct {
	Build, Start, Run time.Duration
	AllocBytes        uint64 // allocated from NewDeployment through Run
	PeakHeapBytes     uint64 // highest sampled live-object heap over the same span
	GCCycles          uint64
	// RefLoop is the faster of the two reference-loop times taken just
	// before and just after the rep: the host's speed while it ran.
	RefLoop time.Duration
	Digest  string
	// Err is the first failed simulated-outcome check, or nil.
	Err error
	// Layer holds the traced rep's per-layer metrics (nil when untraced).
	Layer map[string]float64
}

// Setup is the host time from NewDeployment through Start.
func (r *rep) Setup() time.Duration { return r.Build + r.Start }

// scaled states a host time of the rep in seconds at the nominal host
// speed: d times refLoopNominal over the rep's reference-loop time.
func (r *rep) scaled(d time.Duration) float64 {
	return d.Seconds() * refLoopNominal.Seconds() / r.RefLoop.Seconds()
}

// repOptions select what one rep does beyond the timed build and run.
type repOptions struct {
	shards int
	// trace wraps the request source in a counting span, profiles CPU and
	// allocations by layer and reads the layers' counters after the run.
	trace bool
	// atomicity checks the row-version bound after the run; it reads every
	// page of every table, so a run checks it once.
	atomicity bool
}

// runtime/metrics read around each rep.
const (
	mAllocs   = "/gc/heap/allocs:bytes"
	mHeapObjs = "/memory/classes/heap/objects:bytes"
	mGCCycles = "/gc/cycles/total:gc-cycles"
)

func readMetrics(s []metrics.Sample) (allocs, heap, gcs uint64) {
	metrics.Read(s)
	return s[0].Value.Uint64(), s[1].Value.Uint64(), s[2].Value.Uint64()
}

func newSamples() []metrics.Sample {
	return []metrics.Sample{{Name: mAllocs}, {Name: mHeapObjs}, {Name: mGCCycles}}
}

// heapSampler polls the live-object heap until stopped and keeps the
// highest reading: the heap's high-water mark to within one poll interval.
type heapSampler struct {
	stop chan struct{}
	done chan struct{}
	peak uint64
}

const heapPoll = 2 * time.Millisecond

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		s := newSamples()
		t := time.NewTicker(heapPoll)
		defer t.Stop()
		for {
			_, heap, _ := readMetrics(s)
			h.peak = max(h.peak, heap)
			select {
			case <-h.stop:
				return
			case <-t.C:
			}
		}
	}()
	return h
}

// Stop ends sampling, waits for the sampler to exit and returns the peak,
// including one final reading.
func (h *heapSampler) Stop() uint64 {
	close(h.stop)
	<-h.done
	_, heap, _ := readMetrics(newSamples())
	return max(h.peak, heap)
}

// countingSource is the traced run's span around RequestSource.Next: it
// counts calls and their host time. It implements Next only, so the engine
// never takes its TimedRequestSource path because of the wrapper. Workers
// on different kernel shards call it concurrently, hence the atomics.
type countingSource struct {
	src   engine.RequestSource
	calls atomic.Uint64
	nanos atomic.Int64
}

func (c *countingSource) Next(inst engine.InstanceID, worker int) engine.Request {
	t := time.Now()
	r := c.src.Next(inst, worker)
	c.nanos.Add(int64(time.Since(t)))
	c.calls.Add(1)
	return r
}

// runRep builds, starts and runs w once at the given seed.
func runRep(w *Workload, seed int64, o repOptions) *rep {
	runtime.GC()
	refBefore := refLoop()
	s := newSamples()
	var r rep
	var cpu, allocBefore bytes.Buffer
	if o.trace {
		if err := pprof.Lookup("allocs").WriteTo(&allocBefore, 0); err != nil {
			panic(err)
		}
		if err := pprof.StartCPUProfile(&cpu); err != nil {
			panic(err)
		}
	}
	allocs0, _, gcs0 := readMetrics(s)
	var sampler *heapSampler
	if !o.trace {
		sampler = startHeapSampler()
	}

	t0 := time.Now()
	d := core.NewDeployment(w.config(seed, o.shards))
	t1 := time.Now()
	var src engine.RequestSource = w.source(seed, d)
	var counting *countingSource
	if o.trace {
		counting = &countingSource{src: src}
		src = counting
	}
	d.Start(src)
	t2 := time.Now()
	m := d.Run(w.Warmup, w.Window)
	t3 := time.Now()
	if o.trace {
		pprof.StopCPUProfile()
	}

	allocs1, _, gcs1 := readMetrics(s)
	if sampler != nil {
		r.PeakHeapBytes = sampler.Stop()
	}
	r.Build, r.Start, r.Run = t1.Sub(t0), t2.Sub(t1), t3.Sub(t2)
	r.AllocBytes = allocs1 - allocs0
	r.GCCycles = gcs1 - gcs0
	r.Digest = digest(d, &m)

	if o.trace {
		r.Layer = layerCounters(d, &r, counting)
		if err := chargeProfiles(r.Layer, &cpu, &allocBefore); err != nil {
			panic(err)
		}
	}
	if o.atomicity && w.RowsPerTxn > 0 {
		r.Err = checkAtomicity(d, w.RowsPerTxn)
	}
	d.Close()
	runtime.GC()
	r.RefLoop = min(refBefore, refLoop())
	if o.trace {
		r.Layer["core.build_s"] = r.scaled(r.Build)
		r.Layer["core.start_s"] = r.scaled(r.Start)
	}
	return &r
}

// digest is the simulated outcome of one rep at full precision. The
// simulator is deterministic, so it repeats exactly for one workload, seed
// and program; two programs that claim the same behaviour print the same
// digests.
func digest(d *core.Deployment, m *core.Measurement) string {
	return fmt.Sprintf("committed=%d aborted=%d multisite=%d events=%d msgs=%d mem_accesses=%d tps=%s",
		m.Committed, m.Aborted, m.Multisite, d.Kernel.Events(), m.Msgs, m.Mem.Accesses,
		strconv.FormatFloat(m.ThroughputTPS, 'g', -1, 64))
}

// checkAtomicity applies the bound of the core package's atomicity test to
// a finished run: the machine-wide sum of row versions equals the committed
// row updates plus at most one in-flight transaction per worker.
func checkAtomicity(d *core.Deployment, rowsPerTxn int) error {
	var versions, committed, workers uint64
	for _, in := range d.Instances {
		versions += in.SumRowVersions()
		committed += in.Stats.RowsCommitted
		workers += uint64(len(in.Cores))
	}
	if inflight := workers * uint64(rowsPerTxn); versions < committed || versions > committed+inflight {
		return fmt.Errorf("atomicity violated: sum(versions)=%d committed=%d (+<=%d in flight)",
			versions, committed, inflight)
	}
	return nil
}

// layerCounters reads the layers' public counters after a traced rep. They
// cover the deployment's whole life (bulk load, warm-up and window).
func layerCounters(d *core.Deployment, r *rep, src *countingSource) map[string]float64 {
	out := map[string]float64{}
	var hits, misses, evictions, writebacks uint64
	var acquires, waits, dies, waitVirt uint64
	var appends, flushes, forced uint64
	var committed, aborted, multisite, prepares uint64
	for _, in := range d.Instances {
		bp := in.BufferPool()
		hits += bp.Hits
		misses += bp.Misses
		evictions += bp.Evictions
		writebacks += bp.DirtyWriteBacks
		lm := in.Locks()
		acquires += lm.Acquires
		waits += lm.Waits
		dies += lm.Dies
		waitVirt += uint64(lm.WaitTime)
		wm := in.Wal()
		appends += wm.Appends
		flushes += wm.Flushes
		forced += wm.ForcedBytes
		committed += in.Stats.Committed
		aborted += in.Stats.Aborted
		multisite += in.Stats.Multisite
		prepares += in.Stats.Prepares
	}
	memStats := d.Model.TotalStats(nil)

	out["sim.events"] = float64(d.Kernel.Events())
	out["sim.windows"] = float64(d.Kernel.Windows())
	out["sim.wakeups"] = float64(d.Kernel.Wakeups())
	out["storage.fixes"] = float64(hits + misses)
	out["storage.hit_ratio"] = ratio(hits, hits+misses)
	out["storage.evictions"] = float64(evictions)
	out["storage.writebacks"] = float64(writebacks)
	out["lock.acquires"] = float64(acquires)
	out["lock.waits"] = float64(waits)
	out["lock.dies"] = float64(dies)
	out["lock.wait_virt_ms"] = float64(waitVirt) / 1e6
	out["engine.committed"] = float64(committed)
	out["engine.aborted"] = float64(aborted)
	out["engine.commit_ratio"] = ratio(committed, committed+aborted)
	out["engine.multisite"] = float64(multisite)
	out["engine.prepares"] = float64(prepares)
	out["ipc.msgs"] = float64(d.Net.Messages.Load())
	out["ipc.cross_socket"] = float64(d.Net.CrossSocket.Load())
	out["wal.appends"] = float64(appends)
	out["wal.flushes"] = float64(flushes)
	out["wal.forced_mb"] = float64(forced) / 1e6
	out["mem.accesses"] = float64(memStats.Accesses)
	out["mem.c2c_cross"] = float64(memStats.C2CCross)
	out["mem.dram_remote"] = float64(memStats.DRAMRemote)
	out["workload.next_calls"] = float64(src.calls.Load())
	out["workload.next_s"] = time.Duration(src.nanos.Load()).Seconds()
	out["runtime.gc_cycles"] = float64(r.GCCycles)
	return out
}

func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

package main

// metric describes one reported number. End-to-end metrics carry Bound,
// the share of the baseline median by which a change may worsen them.
type metric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
	// Layer is the module a per-layer metric belongs to; Moves names the
	// end-to-end metrics it should move.
	Layer string   `json:"layer,omitempty"`
	Moves []string `json:"moves,omitempty"`
	Doc   string   `json:"doc"`
}

// endToEnd are the host costs a user of the simulator pays per cell,
// reported by the untraced run as first quartiles over its timed reps. The
// two times are stated at the nominal host speed of calib.go: each rep's
// wall time is scaled by the reference loop timed around it.
var endToEnd = []metric{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25,
		Doc: "host seconds from core.NewDeployment through Deployment.Start (placement, bulk load, cost tables, prewarm), at the nominal host speed"},
	{Name: "run_s", Unit: "s", Better: "lower", Bound: 0.25,
		Doc: "host seconds of Deployment.Run (warm-up plus the measured window), at the nominal host speed"},
	{Name: "alloc_mb", Unit: "MB", Better: "lower", Bound: 0.05,
		Doc: "MB allocated from NewDeployment through Run"},
	{Name: "peak_heap_mb", Unit: "MB", Better: "lower", Bound: 0.15,
		Doc: "highest live-object heap over setup and run, polled every 2ms"},
}

var (
	toRun     = []string{"run_s"}
	toSetup   = []string{"setup_s"}
	toRunHeap = []string{"run_s", "alloc_mb", "peak_heap_mb"}
)

func cpuMetric(layer, doc string, moves []string) metric {
	return metric{Name: layer + ".cpu_s", Unit: "s", Better: "lower", Layer: layer, Moves: moves,
		Doc: "CPU-profile seconds whose innermost islands/internal frame is in " + doc}
}

// perLayer are the traced run's numbers: counters read from the layers'
// public fields after the run (whole deployment life), spans the benchmark
// puts around its calls, and CPU and allocation profiles charged by layerOf.
// Each is the median over the traced reps.
var perLayer = []metric{
	{Name: "core.build_s", Unit: "s", Better: "lower", Layer: "core", Moves: toSetup, Doc: "span around core.NewDeployment, at the nominal host speed"},
	{Name: "core.start_s", Unit: "s", Better: "lower", Layer: "core", Moves: toSetup, Doc: "span around Deployment.Start, at the nominal host speed"},

	{Name: "sim.events", Unit: "count", Better: "lower", Layer: "sim", Moves: toRun, Doc: "Kernel.Events"},
	{Name: "sim.events_per_s", Unit: "1/s", Better: "higher", Layer: "sim", Moves: toRun, Doc: "sim.events over the untraced median run_s"},
	{Name: "sim.windows", Unit: "count", Better: "lower", Layer: "sim", Moves: toRun, Doc: "Kernel.Windows: synchronization rounds of a sharded kernel"},
	{Name: "sim.wakeups", Unit: "count", Better: "lower", Layer: "sim", Moves: toRun, Doc: "Kernel.Wakeups: per-shard barrier crossings"},
	cpuMetric("sim", "sim (kernel, heap, coroutine switches)", toRun),

	{Name: "storage.fixes", Unit: "count", Better: "lower", Layer: "storage", Moves: toRunHeap, Doc: "buffer-pool hits plus misses"},
	{Name: "storage.hit_ratio", Unit: "ratio", Better: "higher", Layer: "storage", Moves: toRunHeap, Doc: "buffer-pool hits over fixes"},
	{Name: "storage.evictions", Unit: "count", Better: "lower", Layer: "storage", Moves: toRunHeap, Doc: "BufferPool.Evictions"},
	{Name: "storage.writebacks", Unit: "count", Better: "lower", Layer: "storage", Moves: toRunHeap, Doc: "BufferPool.DirtyWriteBacks"},
	cpuMetric("storage", "storage (buffer pool, pages, B-trees)", toRunHeap),
	{Name: "storage.alloc_mb", Unit: "MB", Better: "lower", Layer: "storage", Moves: toRunHeap,
		Doc: "allocation-profile MB whose innermost islands/internal frame is in storage"},

	{Name: "lock.acquires", Unit: "count", Better: "lower", Layer: "lock", Moves: toRun, Doc: "lock.Manager.Acquires"},
	{Name: "lock.waits", Unit: "count", Better: "lower", Layer: "lock", Moves: toRun, Doc: "lock.Manager.Waits"},
	{Name: "lock.dies", Unit: "count", Better: "lower", Layer: "lock", Moves: toRun, Doc: "lock.Manager.Dies: wait-die victims"},
	{Name: "lock.wait_virt_ms", Unit: "ms", Better: "lower", Layer: "lock", Moves: toRun, Doc: "lock.Manager.WaitTime in virtual ms"},
	cpuMetric("lock", "lock", toRun),
	cpuMetric("latch", "latch", toRun),

	{Name: "engine.committed", Unit: "count", Better: "higher", Layer: "engine", Moves: toRun, Doc: "committed transactions"},
	{Name: "engine.aborted", Unit: "count", Better: "lower", Layer: "engine", Moves: toRun, Doc: "aborted and retried attempts"},
	{Name: "engine.commit_ratio", Unit: "ratio", Better: "higher", Layer: "engine", Moves: toRun, Doc: "commits over attempts"},
	{Name: "engine.multisite", Unit: "count", Better: "lower", Layer: "engine", Moves: toRun, Doc: "committed multisite transactions"},
	{Name: "engine.prepares", Unit: "count", Better: "lower", Layer: "engine", Moves: toRun, Doc: "2PC prepare rounds"},
	cpuMetric("engine", "engine (transactions, 2PC)", toRun),

	{Name: "ipc.msgs", Unit: "count", Better: "lower", Layer: "ipc", Moves: toRun, Doc: "Network.Messages"},
	{Name: "ipc.cross_socket", Unit: "count", Better: "lower", Layer: "ipc", Moves: toRun, Doc: "Network.CrossSocket"},
	cpuMetric("ipc", "ipc", toRun),

	{Name: "wal.appends", Unit: "count", Better: "lower", Layer: "wal", Moves: toRun, Doc: "wal.Manager.Appends"},
	{Name: "wal.flushes", Unit: "count", Better: "lower", Layer: "wal", Moves: toRun, Doc: "wal.Manager.Flushes"},
	{Name: "wal.forced_mb", Unit: "MB", Better: "lower", Layer: "wal", Moves: toRun, Doc: "wal.Manager.ForcedBytes"},
	cpuMetric("wal", "wal", toRun),

	{Name: "mem.accesses", Unit: "count", Better: "lower", Layer: "mem", Moves: toRun, Doc: "modeled memory accesses"},
	{Name: "mem.c2c_cross", Unit: "count", Better: "lower", Layer: "mem", Moves: toRun, Doc: "cross-socket cache-to-cache transfers"},
	{Name: "mem.dram_remote", Unit: "count", Better: "lower", Layer: "mem", Moves: toRun, Doc: "remote DRAM accesses"},
	cpuMetric("mem", "mem (memory and interconnect cost model)", toRun),

	{Name: "workload.next_calls", Unit: "count", Better: "lower", Layer: "workload", Moves: toRun, Doc: "calls through the span around RequestSource.Next"},
	{Name: "workload.next_s", Unit: "s", Better: "lower", Layer: "workload", Moves: toRun, Doc: "host seconds inside RequestSource.Next, summed over calls"},
	cpuMetric("workload", "workload (request generation)", toRun),

	cpuMetric("exec", "exec (execution contexts, billing)", toRun),

	{Name: "runtime.bg_cpu_s", Unit: "s", Better: "lower", Layer: "runtime", Moves: toRunHeap,
		Doc: "CPU-profile seconds with no islands/internal or benchmark frame, e.g. GC workers"},
	{Name: "runtime.malloc_cpu_s", Unit: "s", Better: "lower", Layer: "runtime", Moves: toRunHeap,
		Doc: "CPU-profile seconds with runtime.mallocgc on the stack; overlaps the layers"},
	{Name: "runtime.gc_cycles", Unit: "count", Better: "lower", Layer: "runtime", Moves: toRunHeap, Doc: "GC cycles completed during setup and run"},
	{Name: "profile.cpu_s", Unit: "s", Better: "lower", Layer: "all", Moves: []string{"setup_s", "run_s"},
		Doc: "all CPU-profile seconds of setup and run, including the layers not listed and the benchmark's own span"},

	{Name: "trace.overhead", Unit: "ratio", Better: "lower", Layer: "perfbench", Moves: toRun,
		Doc: "traced run_s over the untraced median run_s"},
}

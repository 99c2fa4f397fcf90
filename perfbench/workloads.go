package main

import (
	"fmt"

	"islands/internal/core"
	"islands/internal/engine"
	"islands/internal/harness"
	"islands/internal/ipc"
	"islands/internal/sim"
	"islands/internal/topology"
	"islands/internal/workload"
)

// Workload is one benchmark cell: a deployment of the paper's design space
// driven closed-loop, one saturated client per worker core and no think
// time. Name, Why, MostWork and LittleWork document the cell; spec.json
// records them with the configuration describe derives from the cell.
type Workload struct {
	Name string
	Why  string
	// Shards is the kernel shard count the benchmark runs the cell at.
	Shards int
	// Warmup and Window are the virtual-time spans of Deployment.Run.
	Warmup, Window sim.Time
	// MostWork and LittleWork name the layers predicted to do most and
	// little of the host work on this cell.
	MostWork, LittleWork []string
	// RowsPerTxn bounds the row versions one in-flight transaction may
	// have bumped, for the atomicity check; 0 skips the check (read-only).
	RowsPerTxn int

	// config builds the deployment config for a seed at a shard count.
	config func(seed int64, shards int) core.Config
	// micro or mix configures the request source; source sets its seed.
	micro *workload.MicroConfig
	mix   *workload.MixConfig
}

// sourceConfig returns the request source's configuration at seed: one of
// micro and mix is nil.
func (w *Workload) sourceConfig(seed int64) (micro *workload.MicroConfig, mix *workload.MixConfig) {
	if w.micro != nil {
		c := *w.micro
		c.Seed = seed + 1
		return &c, nil
	}
	c := *w.mix
	c.Seed = seed + 2
	return nil, &c
}

// source builds the workload's request source for a built deployment.
func (w *Workload) source(seed int64, d *core.Deployment) engine.RequestSource {
	if micro, mix := w.sourceConfig(seed); micro != nil {
		return workload.NewMicro(*micro, d.Part)
	} else {
		return workload.NewMix(*mix, d.Part)
	}
}

const (
	msRows      = 240000
	evictRows   = 1200000
	evictPages  = 8000
	warehouses  = 24
	msWindow    = 15 * sim.Millisecond
	tpccWindow  = 60 * sim.Millisecond
	evictWindow = 60 * sim.Millisecond
)

// msGeometry is the 64-core machine of the historical ShardedScaling cell:
// 16 sockets of 4 cores, fully connected.
var msGeometry = harness.Geometry{Sockets: 16, CoresPerSocket: 4}

var workloads = []*Workload{
	{
		Name: "multisite-read-16isl",
		Why: "16 per-socket islands, read-10 at 20% multisite on a 2-shard kernel: the event kernel's " +
			"parallel windows and 2PC over ipc do the work; no writes, evictions or lock waits",
		Shards: 2,
		Warmup: 500 * sim.Microsecond, Window: msWindow,
		MostWork:   []string{"sim", "ipc", "engine"},
		LittleWork: []string{"storage", "lock", "wal", "core", "runtime"},
		config: func(seed int64, shards int) core.Config {
			cfg := core.DefaultConfig(msGeometry.Machine(), 16, msRows)
			cfg.Seed = seed
			cfg.Shards = shards
			return cfg
		},
		micro: &workload.MicroConfig{Table: 1, GlobalRows: msRows, RowsPerTxn: 10, PctMultisite: 0.2},
	},
	{
		Name: "tpcc-shared-everything",
		Why: "one instance over all 24 cores, full TPC-C mix at spec sizes: wait-die locking, latches, " +
			"WAL group commit, large B-trees and cross-socket coherence do the work; no messages",
		Shards: 1,
		Warmup: sim.Millisecond, Window: tpccWindow,
		MostWork:   []string{"storage", "lock", "latch", "engine", "wal", "mem", "workload", "core", "runtime"},
		LittleWork: []string{"ipc"},
		RowsPerTxn: maxTPCCRowsPerTxn,
		config: func(seed int64, shards int) core.Config {
			cfg := core.Config{
				Machine:   topology.QuadSocket(),
				Instances: 1,
				Placement: core.PlacementIslands,
				Mechanism: ipc.UnixSocket,
				Seed:      seed,
				Shards:    shards,
			}
			for _, t := range workload.MixTableSet(warehouses, workload.StandardMix(), workload.SpecSizing()) {
				cfg.Tables = append(cfg.Tables, core.TableDecl{ID: t.ID, Name: t.Name, RowBytes: t.RowBytes, Rows: t.Rows})
			}
			return cfg
		},
		mix: &workload.MixConfig{
			Warehouses: warehouses, Weights: workload.StandardMix(),
			RemotePct: 0.15, RemoteItemPct: 0.01, Sizing: workload.SpecSizing(),
		},
	},
	{
		Name: "update-evict-4isl",
		Why: "4 per-socket islands, update-2 over 1.2M rows with pools capped at 8000 pages: the working set " +
			"outgrows the buffer pools, so miss, evict, write-back and page synthesis do the work",
		Shards: 1,
		Warmup: sim.Millisecond, Window: evictWindow,
		MostWork:   []string{"storage", "wal", "runtime"},
		LittleWork: []string{"ipc", "lock", "engine", "mem"},
		RowsPerTxn: 2,
		config: func(seed int64, shards int) core.Config {
			cfg := core.DefaultConfig(topology.QuadSocket(), 4, evictRows)
			cfg.Disk = core.DiskMMap
			cfg.BufferPoolPagesTotal = evictPages
			cfg.Prewarm = true
			cfg.Seed = seed
			cfg.Shards = shards
			return cfg
		},
		micro: &workload.MicroConfig{Table: 1, GlobalRows: evictRows, RowsPerTxn: 2, Write: true},
	},
}

// maxTPCCRowsPerTxn bounds the row versions one in-flight TPC-C transaction
// may have bumped. Delivery, the widest, updates 130 rows (per district a
// new-order row, an order, 10 order lines and a customer); a NewOrder of 15
// lines writes a district, 15 stock rows and 17 inserts.
const maxTPCCRowsPerTxn = 200

// lookup returns the named workload.
func lookup(name string) (*Workload, error) {
	for _, w := range workloads {
		if w.Name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// configDoc is a workload's configuration as the benchmark builds it at a
// seed: read back from the deployment config and the request source's
// config, so the record cannot drift from what runs.
type configDoc struct {
	Machine        string                `json:"machine"`
	Fabric         string                `json:"fabric"`
	Sockets        int                   `json:"sockets"`
	CoresPerSocket int                   `json:"cores_per_socket"`
	Instances      int                   `json:"instances"`
	Placement      string                `json:"placement"`
	Mechanism      string                `json:"mechanism"`
	Disk           string                `json:"disk"`
	PoolPagesTotal int                   `json:"pool_pages_total"`
	Prewarm        bool                  `json:"prewarm"`
	Tables         []core.TableDecl      `json:"tables"`
	Shards         int                   `json:"shards"`
	WarmupMS       float64               `json:"warmup_ms"`
	WindowMS       float64               `json:"window_ms"`
	Micro          *workload.MicroConfig `json:"micro,omitempty"`
	Mix            *workload.MixConfig   `json:"mix,omitempty"`
}

var diskNames = map[core.DiskKind]string{core.DiskMMap: "mmap", core.DiskHDD: "hdd"}

// describe returns w's configuration at seed as the benchmark runs it.
func describe(w *Workload, seed int64) configDoc {
	cfg := w.config(seed, w.Shards)
	m := cfg.Machine
	doc := configDoc{
		Machine: m.Name, Fabric: m.Interconnect.Name,
		Sockets: m.SocketCount, CoresPerSocket: m.CoresPerSocket,
		Instances: cfg.Instances, Placement: cfg.Placement.String(), Mechanism: cfg.Mechanism.String(),
		Disk: diskNames[cfg.Disk], PoolPagesTotal: cfg.BufferPoolPagesTotal, Prewarm: cfg.Prewarm,
		Tables: cfg.Tables, Shards: cfg.Shards,
		WarmupMS: w.Warmup.Seconds() * 1e3, WindowMS: w.Window.Seconds() * 1e3,
	}
	doc.Micro, doc.Mix = w.sourceConfig(seed)
	return doc
}

package main

import (
	"sync"
	"testing"

	"islands/internal/core"
	"islands/internal/engine"
	"islands/internal/sim"
	"islands/internal/topology"
	"islands/internal/workload"
)

// TestWorkloadDeployments checks each workload's deployment against its
// stated geometry, instance count, sizes and shard count.
func TestWorkloadDeployments(t *testing.T) {
	cases := []struct {
		name             string
		sockets, perSock int
		instances        int
		coresPerInstance int
		shards           int
		rows             map[string]int64 // table name -> global rows
		poolPages        int              // per instance; 0 = sized to fit
		totalPages       int64            // pages of all tables over all instances; 0 = unchecked
	}{
		{name: "multisite-read-16isl", sockets: 16, perSock: 4, instances: 16, coresPerInstance: 4, shards: 2,
			rows: map[string]int64{"rows": msRows}},
		{name: "tpcc-shared-everything", sockets: 4, perSock: 6, instances: 1, coresPerInstance: 24, shards: 1,
			rows: map[string]int64{"warehouse": 24, "district": 240, "customer": 720000, "stock": 2400000}},
		{name: "update-evict-4isl", sockets: 4, perSock: 6, instances: 4, coresPerInstance: 6, shards: 1,
			rows: map[string]int64{"rows": evictRows}, poolPages: evictPages / 4, totalPages: 37500},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			w, err := lookup(c.name)
			if err != nil {
				t.Fatal(err)
			}
			if w.Shards != c.shards {
				t.Errorf("Shards = %d, want %d", w.Shards, c.shards)
			}
			cfg := w.config(42, w.Shards)
			d := core.NewDeployment(cfg)
			defer d.Close()

			m := d.Cfg.Machine
			if m.SocketCount != c.sockets || m.CoresPerSocket != c.perSock {
				t.Errorf("machine %dx%d, want %dx%d", m.SocketCount, m.CoresPerSocket, c.sockets, c.perSock)
			}
			if len(d.Instances) != c.instances {
				t.Fatalf("%d instances, want %d", len(d.Instances), c.instances)
			}
			for _, in := range d.Instances {
				if len(in.Cores) != c.coresPerInstance {
					t.Errorf("instance %d has %d cores, want %d", in.ID, len(in.Cores), c.coresPerInstance)
				}
				if c.instances > 1 {
					// Islands: every instance sits inside one socket.
					for _, core := range in.Cores {
						if m.SocketOf(core) != m.SocketOf(in.Cores[0]) {
							t.Errorf("instance %d spans sockets", in.ID)
						}
					}
				}
			}
			if got := d.Kernel.Shards(); got != c.shards {
				t.Errorf("kernel has %d shards, want %d", got, c.shards)
			}
			for name, rows := range c.rows {
				found := false
				for _, td := range cfg.Tables {
					if td.Name == name {
						found = true
						if td.Rows != rows {
							t.Errorf("table %s has %d rows, want %d", name, td.Rows, rows)
						}
					}
				}
				if !found {
					t.Errorf("no table %s", name)
				}
			}
			var pages int64
			for _, in := range d.Instances {
				pool := in.BufferPool()
				if c.poolPages > 0 {
					if pool.Capacity() != c.poolPages {
						t.Errorf("instance %d pool %d pages, want %d", in.ID, pool.Capacity(), c.poolPages)
					}
					if pool.Resident() == 0 {
						t.Errorf("instance %d pool not prewarmed", in.ID)
					}
				}
				for _, td := range cfg.Tables {
					pages += in.TableDef(td.ID).NumPages()
				}
			}
			if c.totalPages > 0 && pages != c.totalPages {
				t.Errorf("%d pages, want %d", pages, c.totalPages)
			}
		})
	}
}

// TestWorkloadRequests checks the request mix each source produces: reads
// only where stated, multisite only where stated.
func TestWorkloadRequests(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.Name, func(t *testing.T) {
			d := core.NewDeployment(w.config(42, w.Shards))
			defer d.Close()
			src := w.source(42, d)
			writes, multisite := false, false
			for i := 0; i < 500; i++ {
				inst := engine.InstanceID(i % len(d.Instances))
				r := src.Next(inst, i%len(d.Instances[inst].Cores))
				writes = writes || r.Writes()
				for _, op := range r.Ops {
					if owner, _ := d.Part.Locate(op.Table, op.Key); owner != inst {
						multisite = true
					}
				}
			}
			wantWrites := w.RowsPerTxn > 0
			wantMultisite := w.Name == "multisite-read-16isl"
			if writes != wantWrites {
				t.Errorf("writes = %v, want %v", writes, wantWrites)
			}
			if multisite != wantMultisite {
				t.Errorf("multisite = %v, want %v", multisite, wantMultisite)
			}
		})
	}
}

// recordingSource counts Next calls per stream under a lock, independently
// of the countingSource wrapped around it.
type recordingSource struct {
	engine.RequestSource
	mu    sync.Mutex
	calls map[[2]int]uint64
}

func (r *recordingSource) Next(inst engine.InstanceID, worker int) engine.Request {
	r.mu.Lock()
	r.calls[[2]int{int(inst), worker}]++
	r.mu.Unlock()
	return r.RequestSource.Next(inst, worker)
}

// TestCountingSourceUnderShards runs the Next span on a 2-shard kernel,
// whose workers call it from two goroutines; run with -race.
func TestCountingSourceUnderShards(t *testing.T) {
	if _, ok := any(&countingSource{}).(engine.TimedRequestSource); ok {
		t.Fatal("countingSource must implement Next only")
	}
	cfg := core.DefaultConfig(topology.QuadSocket(), 4, 24000)
	cfg.Shards = 2
	d := core.NewDeployment(cfg)
	defer d.Close()
	if d.Kernel.Shards() != 2 {
		t.Fatalf("kernel has %d shards, want 2", d.Kernel.Shards())
	}
	inner := &recordingSource{
		RequestSource: workload.NewMicro(workload.MicroConfig{
			Table: 1, GlobalRows: 24000, RowsPerTxn: 4, PctMultisite: 0.3, Seed: 1,
		}, d.Part),
		calls: map[[2]int]uint64{},
	}
	src := &countingSource{src: inner}
	d.Start(src)
	m := d.Run(100*sim.Microsecond, 2*sim.Millisecond)
	if m.Committed == 0 {
		t.Fatal("nothing committed")
	}

	var want uint64
	for _, n := range inner.calls {
		want += n
	}
	if got := src.calls.Load(); got != want || got == 0 {
		t.Errorf("wrapper counted %d calls, source saw %d", got, want)
	}
	if len(inner.calls) != 24 {
		t.Errorf("%d streams called, want one per worker (24)", len(inner.calls))
	}
	if src.nanos.Load() <= 0 {
		t.Error("no host time recorded in Next")
	}
}

// TestLayerPredictions runs each workload once traced and checks the layer
// split the workloads were chosen for: kernel windows only on the sharded
// cell, evictions only where the working set outgrows the pools, messages
// only with multisite transactions, no log flushes without writes, and lock
// waits and the lowest commit ratio under shared-everything TPC-C.
func TestLayerPredictions(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	got := map[string]map[string]float64{}
	for _, w := range workloads {
		r := runRep(w, 42, repOptions{shards: w.Shards, trace: true})
		got[w.Name] = r.Layer
	}
	const ms, tpcc, evict = "multisite-read-16isl", "tpcc-shared-everything", "update-evict-4isl"
	for name, l := range got {
		if (l["sim.windows"] > 0) != (name == ms) {
			t.Errorf("%s: sim.windows = %v", name, l["sim.windows"])
		}
		if (l["storage.evictions"] > 0) != (name == evict) {
			t.Errorf("%s: storage.evictions = %v", name, l["storage.evictions"])
		}
		if (l["ipc.msgs"] > 0) != (name == ms) {
			t.Errorf("%s: ipc.msgs = %v", name, l["ipc.msgs"])
		}
		if (l["wal.flushes"] > 0) != (name != ms) {
			t.Errorf("%s: wal.flushes = %v", name, l["wal.flushes"])
		}
		if name != tpcc && (l["lock.waits"] >= got[tpcc]["lock.waits"] || l["engine.commit_ratio"] <= got[tpcc]["engine.commit_ratio"]) {
			t.Errorf("%s: lock.waits %v, commit ratio %v; tpcc has %v, %v", name,
				l["lock.waits"], l["engine.commit_ratio"], got[tpcc]["lock.waits"], got[tpcc]["engine.commit_ratio"])
		}
		for _, m := range perLayer {
			if _, ok := l[m.Name]; !ok && m.Name != "sim.events_per_s" && m.Name != "trace.overhead" {
				t.Errorf("%s: traced rep lacks %s", name, m.Name)
			}
		}
	}
}

package core

import (
	"testing"

	"islands/internal/sim"
	"islands/internal/topology"
	"islands/internal/workload"
)

// TestAtomicityInvariantUnderContention runs a high-conflict distributed
// update workload (2 rows, 50% multisite, heavy skew: plenty of wait-die
// aborts and 2PC aborts) and verifies the atomicity invariant at one virtual
// instant: the machine-wide sum of row version counters equals the
// machine-wide committed row updates plus in-flight bumps (bounded by one
// transaction per worker, each touching at most RowsPerTxn rows).
// An undo bug, a lost 2PC decision, or a partial commit would break it. The
// evicting case caps the buffer pools well below the working set, so dirty
// pages are evicted and re-fetched throughout: versions lost across
// eviction would break it too.
func TestAtomicityInvariantUnderContention(t *testing.T) {
	for _, tc := range []struct {
		name      string
		n         int
		rows      int64
		poolPages int // machine-wide; 0 fits each partition
	}{
		{"1ISL", 1, 2400, 0}, // small: lots of conflicts
		{"4ISL", 4, 2400, 0},
		{"24ISL", 24, 2400, 0},
		{"4ISL-evict", 4, 24000, 4 * 24}, // 24 of ~188 pages per instance
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			m := topology.QuadSocket()
			cfg := DefaultConfig(m, tc.n, tc.rows)
			cfg.BufferPoolPagesTotal = tc.poolPages
			d := NewDeployment(cfg)
			defer d.Close()
			const rowsPerTxn = 2
			d.Start(workload.NewMicro(workload.MicroConfig{
				Table: 1, GlobalRows: tc.rows, RowsPerTxn: rowsPerTxn,
				Write: true, PctMultisite: 0.5, ZipfS: 0.9, Seed: 3,
			}, d.Part))
			d.Kernel.RunFor(10 * sim.Millisecond)

			if tc.poolPages > 0 {
				var dirtyEvictions uint64
				for _, in := range d.Instances {
					dirtyEvictions += in.BufferPool().DirtyWriteBacks
				}
				if dirtyEvictions == 0 {
					t.Error("expected dirty evictions with pools below the working set")
				}
			}

			var aborts uint64
			for _, in := range d.Instances {
				aborts += in.Stats.Aborted
			}
			if aborts == 0 {
				t.Error("expected wait-die aborts under heavy conflict")
			}

			// SumRowVersions consumes no virtual time, so reading all
			// instances here is one consistent snapshot.
			var versions, committed uint64
			for _, in := range d.Instances {
				versions += in.SumRowVersions()
				committed += in.Stats.RowsCommitted
			}
			workers := uint64(m.NumCores())
			maxInflight := workers * rowsPerTxn
			if versions < committed || versions > committed+maxInflight {
				t.Errorf("atomicity violated: sum(versions)=%d committed=%d (+<=%d in flight)",
					versions, committed, maxInflight)
			}
		})
	}
}

// TestReadOnlyVoteAblation verifies the ablation knob: disabling the
// read-only 2PC optimization forces prepares for read-only participants and
// costs throughput.
func TestReadOnlyVoteAblation(t *testing.T) {
	m := topology.QuadSocket()
	run := func(disable bool) (float64, uint64) {
		cfg := DefaultConfig(m, 4, 24000)
		cfg.DisableReadOnlyVote = disable
		d := NewDeployment(cfg)
		defer d.Close()
		d.Start(workload.NewMicro(workload.MicroConfig{
			Table: 1, GlobalRows: 24000, RowsPerTxn: 4, PctMultisite: 0.5, Seed: 9,
		}, d.Part))
		res := d.Run(sim.Millisecond, 6*sim.Millisecond)
		return res.ThroughputTPS, res.Prepares
	}
	optTPS, optPrepares := run(false)
	rawTPS, rawPrepares := run(true)
	if optPrepares != 0 {
		t.Errorf("read-only workload with the optimization prepared %d times", optPrepares)
	}
	if rawPrepares == 0 {
		t.Error("ablated run should prepare read-only participants")
	}
	if optTPS <= rawTPS {
		t.Errorf("read-only vote should help throughput: %.0f (opt) vs %.0f (full 2PC)", optTPS, rawTPS)
	}
}

package engine

import (
	"testing"

	"islands/internal/ipc"
	"islands/internal/mem"
	"islands/internal/sim"
	"islands/internal/storage"
	"islands/internal/topology"
	"islands/internal/wal"
)

// buildRetained constructs a single instance with log retention.
func buildRetained(k *sim.Kernel, rows int64) *Instance {
	topo := topology.QuadSocket()
	model := mem.NewModel(topo)
	net := ipc.NewNetwork[Msg](k, topo, ipc.UnixSocket)
	opts := DefaultOptions(TableSpec{ID: 1, Name: "rows", RowBytes: 250, LocalRows: rows})
	opts.Wal.Retain = true
	in := NewInstance(k, topo, model, net, 0, topology.IslandPartition(topo, 1)[0],
		rangePart{instances: 1, rows: rows}, nil, opts)
	in.Connect([]*Instance{in})
	return in
}

// bump is the log record of a committed-or-not first update of key: the
// row's version goes from 0 to 1.
func bump(txn uint64, table storage.TableID, key int64) wal.Record {
	return wal.Record{Type: wal.RecUpdate, Txn: txn, Table: table, Key: key, Version: 1, WireBytes: 48}
}

func TestRecoverReappliesCommittedUpdates(t *testing.T) {
	// Crash-and-recover: run updates, "lose" all volatile state by
	// building a fresh instance, replay the log, compare row versions.
	k := sim.NewKernel()
	victim := buildRetained(k, 240)
	src := newFixedSource(Request{Ops: []Op{
		{Table: 1, Key: 7, Kind: OpUpdate},
		{Table: 1, Key: 100, Kind: OpUpdate},
	}})
	victim.StartWorkersOnly(src)
	k.RunFor(2 * sim.Millisecond)
	committed := victim.Stats.RowsCommitted
	if committed == 0 {
		t.Fatal("no updates committed before the crash")
	}
	log := victim.Wal().Records()
	k.Close() // the crash: all volatile state of the victim is gone

	// Fresh instance, same schema, empty caches.
	k2 := sim.NewKernel()
	defer k2.Close()
	fresh := buildRetained(k2, 240)
	rep, err := fresh.Recover(log)
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	if rep.Redone == 0 || rep.Committed == 0 {
		t.Fatalf("recovery did nothing: %+v", rep)
	}
	// All committed version bumps must be visible; uncommitted ones (cut
	// off mid-flight by the crash) must not.
	sum := fresh.SumRowVersions()
	if sum != uint64(rep.Redone) {
		t.Errorf("recovered version sum %d != redone updates %d", sum, rep.Redone)
	}
	if sum < committed {
		t.Errorf("recovered versions %d lost committed updates (%d)", sum, committed)
	}
}

func TestRecoverSkipsLosers(t *testing.T) {
	// Hand-craft a log: txn 1 commits, txn 2 never does, txn 3 aborts.
	k := sim.NewKernel()
	defer k.Close()
	in := buildRetained(k, 240)
	log := []wal.Record{
		bump(1, 1, 5),
		{Type: wal.RecCommit, Txn: 1},
		bump(2, 1, 6),
		bump(3, 1, 7),
		{Type: wal.RecAbort, Txn: 3},
	}
	rep, err := in.Recover(log)
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	if rep.Redone != 1 || rep.Skipped != 2 {
		t.Errorf("report %+v, want 1 redone / 2 skipped", rep)
	}
	if rep.Losers != 1 {
		t.Errorf("losers = %d, want 1 (txn 2)", rep.Losers)
	}
	if sum := in.SumRowVersions(); sum != 1 {
		t.Errorf("version sum = %d, want 1 (only txn 1's update)", sum)
	}
}

func TestRecoverDistributedOutcomes(t *testing.T) {
	// Prepared-but-undecided participant work must not be redone; a
	// dist-commit makes it a winner.
	k := sim.NewKernel()
	defer k.Close()
	in := buildRetained(k, 240)
	log := []wal.Record{
		bump(10, 1, 1),
		{Type: wal.RecPrepare, Txn: 10}, // undecided: loser
		bump(11, 1, 2),
		{Type: wal.RecPrepare, Txn: 11},
		{Type: wal.RecDistCommit, Txn: 11},
	}
	rep, err := in.Recover(log)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Redone != 1 {
		t.Errorf("redone = %d, want only the dist-committed txn", rep.Redone)
	}
	if sum := in.SumRowVersions(); sum != 1 {
		t.Errorf("version sum = %d, want 1", sum)
	}
}

// TestRecoverErrorPaths drives Recover through every redo failure —
// unknown tables and negative keys — plus the benign torn-tail case,
// asserting the partial RecoveryReport counts.
func TestRecoverErrorPaths(t *testing.T) {
	cases := []struct {
		name    string
		log     []wal.Record
		wantErr bool
		want    RecoveryReport // compared when set (zero Analyzed = skip)
	}{
		{
			// A record for a table this instance does not own.
			name: "unknown table",
			log: []wal.Record{
				bump(1, 9, 5),
				{Type: wal.RecCommit, Txn: 1},
			},
			wantErr: true,
		},
		{
			// A key no row can have: it has no page to live on.
			name: "negative key",
			log: []wal.Record{
				bump(1, 1, -1),
				{Type: wal.RecCommit, Txn: 1},
			},
			wantErr: true,
			want:    RecoveryReport{Analyzed: 2},
		},
		{
			// A good record before the bad one: the partial report shows the
			// progress made before the failure.
			name: "fails after partial redo",
			log: []wal.Record{
				bump(1, 1, 5),
				{Type: wal.RecCommit, Txn: 1},
				bump(2, 9, 6),
				{Type: wal.RecCommit, Txn: 2},
			},
			wantErr: true,
			want:    RecoveryReport{Analyzed: 4, Redone: 1},
		},
		{
			// Torn tail: the log ends mid-transaction (update without any
			// outcome record). Not an error — the tail is a loser.
			name: "torn tail is a loser",
			log: []wal.Record{
				bump(1, 1, 5),
				{Type: wal.RecCommit, Txn: 1},
				bump(2, 1, 6),
			},
			want: RecoveryReport{Analyzed: 3, Redone: 1, Skipped: 1, Committed: 1, Losers: 1},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			k := sim.NewKernel()
			defer k.Close()
			in := buildRetained(k, 240)
			rep, err := in.Recover(tc.log)
			if tc.wantErr && err == nil {
				t.Fatalf("expected an error, got report %+v", rep)
			}
			if !tc.wantErr && err != nil {
				t.Fatalf("recover: %v", err)
			}
			if tc.want.Analyzed != 0 && rep != tc.want {
				t.Errorf("report %+v, want %+v", rep, tc.want)
			}
		})
	}
}

// TestRecoverIsIdempotent replays one retained log of updates and inserts
// twice onto the same fresh instance: the second pass must leave row
// versions and the index exactly as the first left them.
func TestRecoverIsIdempotent(t *testing.T) {
	k := sim.NewKernel()
	victim := buildRetained(k, 240)
	victim.StartWorkersOnly(newFixedSource(
		Request{Ops: []Op{{Table: 1, Key: 7, Kind: OpUpdate}, {Table: 1, Kind: OpInsert}}},
		Request{Ops: []Op{{Table: 1, Key: 100, Kind: OpUpdate}, {Table: 1, Key: 7, Kind: OpUpdate}}},
	))
	k.RunFor(2 * sim.Millisecond)
	log := victim.Wal().Records()
	k.Close()

	k2 := sim.NewKernel()
	defer k2.Close()
	fresh := buildRetained(k2, 240)
	first, err := fresh.Recover(log)
	if err != nil {
		t.Fatalf("first recover: %v", err)
	}
	sum, size, rows := fresh.SumRowVersions(), fresh.tables[1].idx.Size(), fresh.TableDef(1).NumRows
	if first.Redone == 0 || sum == 0 || size <= 240 {
		t.Fatalf("log exercised too little: %+v sum=%d index=%d", first, sum, size)
	}
	second, err := fresh.Recover(log)
	if err != nil {
		t.Fatalf("second recover: %v", err)
	}
	if second != first {
		t.Errorf("second report %+v, first %+v", second, first)
	}
	if got := fresh.SumRowVersions(); got != sum {
		t.Errorf("version sum %d after second replay, %d after first", got, sum)
	}
	if got := fresh.tables[1].idx.Size(); got != size {
		t.Errorf("index size %d after second replay, %d after first", got, size)
	}
	if got := fresh.TableDef(1).NumRows; got != rows {
		t.Errorf("NumRows %d after second replay, %d after first", got, rows)
	}
}

// TestRedoDirtiesResidentPage: a redo that lands on a buffer-pool-resident
// page leaves that page dirty, so its eviction still costs a write-back;
// pages the log does not touch stay clean.
func TestRedoDirtiesResidentPage(t *testing.T) {
	k := sim.NewKernel()
	defer k.Close()
	in := buildRetained(k, 240)
	in.BufferPool().Prewarm(0)
	if _, err := in.Recover([]wal.Record{bump(1, 1, 5), {Type: wal.RecCommit, Txn: 1}}); err != nil {
		t.Fatal(err)
	}
	def := in.TableDef(1)
	if pg := in.BufferPool().Peek(def.Locate(5)); pg == nil || !pg.Dirty {
		t.Error("redo left the resident page of key 5 clean")
	}
	if pg := in.BufferPool().Peek(def.Locate(100)); pg == nil || pg.Dirty {
		t.Error("redo dirtied a page it did not touch")
	}
}

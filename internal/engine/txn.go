package engine

import (
	"fmt"

	"islands/internal/exec"
	"islands/internal/lock"
	"islands/internal/storage"
	"islands/internal/wal"
)

// Txn is the per-attempt transaction state on one instance: either a
// coordinator's local part or a participant's subordinate part.
type Txn struct {
	TS          uint64
	in          *Instance
	subordinate bool

	updated    bool
	holdsToken bool   // subordinate holds the partition execution token
	attempt    uint32 // coordinator attempt this subordinate part belongs to
	nUpdates   int    // row version bumps (atomicity accounting)
	lastLSN    wal.LSN
	undo       []undoEntry
}

// undoEntry reverts one row change: an insert drops the key from the index,
// an update restores the version the row had before it.
type undoEntry struct {
	table  storage.TableID
	key    int64
	before uint64
	insert bool
}

// newTxn begins a transaction attempt and charges begin bookkeeping.
func (in *Instance) newTxn(ctx *exec.Ctx, ts uint64, subordinate bool) *Txn {
	prev := ctx.Bucket(exec.BXct)
	ctx.Charge(CostBegin)
	ctx.WriteLine(&in.txnLine)
	ctx.Bucket(prev)
	return &Txn{TS: ts, in: in, subordinate: subordinate}
}

// apply executes one already-localized operation.
func (t *Txn) apply(ctx *exec.Ctx, op localOp) error {
	ts := t.in.tables[storage.TableID(op.Table)]
	if ts == nil {
		panic(fmt.Sprintf("engine: instance %d has no table %d", t.in.ID, op.Table))
	}
	switch op.Kind {
	case OpRead:
		return t.readRow(ctx, ts, op.Key)
	case OpUpdate:
		return t.updateRow(ctx, ts, op.Key)
	case OpInsert:
		return t.insertRow(ctx, ts)
	default:
		panic("engine: unknown op kind")
	}
}

func (t *Txn) lockTable(ctx *exec.Ctx, ts *tableState, mode lock.Mode) error {
	return t.in.locks.Acquire(ctx, t.TS, lock.Key{Space: uint32(ts.def.ID), ID: lock.TableLock}, mode)
}

func (t *Txn) lockRow(ctx *exec.Ctx, ts *tableState, key int64, mode lock.Mode) error {
	return t.in.locks.Acquire(ctx, t.TS, lock.Key{Space: uint32(ts.def.ID), ID: key}, mode)
}

func (t *Txn) readRow(ctx *exec.Ctx, ts *tableState, key int64) error {
	in := t.in
	if in.opts.Locking {
		if err := t.lockTable(ctx, ts, lock.IS); err != nil {
			return err
		}
		if err := t.lockRow(ctx, ts, key, lock.S); err != nil {
			return err
		}
	}
	if !ts.idx.Search(ctx, key) {
		return fmt.Errorf("engine: table %s has no key %d", ts.def.Name, key)
	}
	pg := in.bp.Fix(ctx, ts.def.Locate(key))
	if in.opts.Latching {
		pg.Latch.AcquireShared(ctx)
	}
	ctx.ReadLine(&pg.HeaderLine)
	ctx.ReadData(&in.ws, ts.def.RowBytes)
	ctx.Charge(CostPerRowCPU)
	if in.opts.Latching {
		pg.Latch.ReleaseShared(ctx)
	}
	in.bp.Unfix(ctx, pg, false)
	return nil
}

func (t *Txn) updateRow(ctx *exec.Ctx, ts *tableState, key int64) error {
	in := t.in
	if in.opts.Locking {
		if err := t.lockTable(ctx, ts, lock.IX); err != nil {
			return err
		}
		if err := t.lockRow(ctx, ts, key, lock.X); err != nil {
			return err
		}
	}
	if !ts.idx.Search(ctx, key) {
		return fmt.Errorf("engine: table %s has no key %d", ts.def.Name, key)
	}
	pg := in.bp.Fix(ctx, ts.def.Locate(key))
	if in.opts.Latching {
		pg.Latch.AcquireExclusive(ctx)
	}
	ctx.WriteLine(&pg.HeaderLine)
	before := in.store.Version(ts.def.ID, key)
	in.store.SetVersion(ts.def.ID, key, before+1)
	ctx.WriteData(&in.ws, ts.def.RowBytes)
	ctx.Charge(CostPerRowCPU)
	t.lastLSN = in.wal.Append(ctx, wal.Record{
		Type: wal.RecUpdate, Txn: t.TS, Table: ts.def.ID, Key: key, Version: before + 1,
		// Physiological logging: the update touches a few bytes, not the
		// full row.
		WireBytes: 48,
	})
	t.undo = append(t.undo, undoEntry{table: ts.def.ID, key: key, before: before})
	t.updated = true
	t.nUpdates++
	if in.opts.Latching {
		pg.Latch.ReleaseExclusive(ctx)
	}
	in.bp.Unfix(ctx, pg, true)
	return nil
}

func (t *Txn) insertRow(ctx *exec.Ctx, ts *tableState) error {
	in := t.in
	// Claim the key atomically in virtual time, before any operation that
	// can block; the key is consumed even if this attempt aborts.
	key := ts.def.NumRows
	ts.def.NumRows++
	if in.opts.Locking {
		if err := t.lockTable(ctx, ts, lock.IX); err != nil {
			return err
		}
		if err := t.lockRow(ctx, ts, key, lock.X); err != nil {
			return err
		}
	}
	// The new row's version is 0, which the store already holds for a key
	// that was never updated: the insert writes only the index entry.
	pg := in.bp.Fix(ctx, ts.def.Locate(key))
	if in.opts.Latching {
		pg.Latch.AcquireExclusive(ctx)
	}
	ctx.WriteLine(&pg.HeaderLine)
	ctx.WriteData(&in.ws, ts.def.RowBytes)
	ctx.Charge(CostPerRowCPU)
	ts.idx.Insert(ctx, key)
	t.lastLSN = in.wal.Append(ctx, wal.Record{
		Type: wal.RecUpdate, Txn: t.TS, Table: ts.def.ID, Key: key,
		WireBytes: ts.def.RowBytes, // the whole new row is logged
	})
	t.undo = append(t.undo, undoEntry{table: ts.def.ID, key: key, insert: true})
	t.updated = true
	if in.opts.Latching {
		pg.Latch.ReleaseExclusive(ctx)
	}
	in.bp.Unfix(ctx, pg, true)
	return nil
}

// commitLocal finishes a purely local transaction: force the commit record
// (group-committed) if anything was updated, then release locks.
func (t *Txn) commitLocal(ctx *exec.Ctx) {
	in := t.in
	prev := ctx.Bucket(exec.BXct)
	ctx.Charge(CostCommitCPU)
	ctx.WriteLine(&in.txnLine)
	ctx.Bucket(prev)
	if t.updated {
		lsn := in.wal.Append(ctx, wal.Record{Type: wal.RecCommit, Txn: t.TS})
		in.wal.Flush(ctx, lsn)
	}
	in.Stats.RowsCommitted += uint64(t.nUpdates)
	in.locks.ReleaseAll(ctx, t.TS)
}

// releaseReadOnly ends a read-only subordinate immediately (the 2PC
// read-only optimization: vote read-only at work-reply time, skip phase 2).
func (t *Txn) releaseReadOnly(ctx *exec.Ctx) {
	in := t.in
	prev := ctx.Bucket(exec.BXct)
	ctx.Charge(CostCommitCPU / 2)
	ctx.Bucket(prev)
	in.locks.ReleaseAll(ctx, t.TS)
}

// abortLocal rolls back this instance's effects: undo in LIFO order, log an
// abort record, release locks.
func (t *Txn) abortLocal(ctx *exec.Ctx) {
	in := t.in
	prev := ctx.Bucket(exec.BXct)
	ctx.Charge(CostAbortCPU)
	ctx.Bucket(prev)
	for i := len(t.undo) - 1; i >= 0; i-- {
		u := t.undo[i]
		ts := in.tables[u.table]
		pg := in.bp.Fix(ctx, ts.def.Locate(u.key))
		if in.opts.Latching {
			pg.Latch.AcquireExclusive(ctx)
		}
		if u.insert {
			ts.idx.Delete(ctx, u.key)
		} else {
			in.store.SetVersion(u.table, u.key, u.before)
		}
		ctx.Charge(CostUndoPerRow)
		if in.opts.Latching {
			pg.Latch.ReleaseExclusive(ctx)
		}
		in.bp.Unfix(ctx, pg, true)
	}
	if t.updated {
		in.wal.Append(ctx, wal.Record{Type: wal.RecAbort, Txn: t.TS})
	}
	in.locks.ReleaseAll(ctx, t.TS)
	t.undo = nil
}

package engine

import (
	"fmt"

	"islands/internal/wal"
)

// RecoveryReport summarizes a redo pass.
type RecoveryReport struct {
	Analyzed  int // log records scanned
	Redone    int // update records reapplied
	Skipped   int // updates of loser transactions
	Committed int // committed transactions found
	Losers    int // transactions without a commit outcome
}

// Recover rebuilds the instance's data from its log: an ARIES-style
// analysis pass determines transaction outcomes (local commits, distributed
// commits, aborts; prepared-but-undecided transactions are losers whose
// fate belongs to their coordinator), then a redo pass reapplies the
// after-versions of winner updates and inserts.
//
// The instance must have been created with Options.Wal.Retain; Recover is
// meant for a *fresh* replacement instance with the same table definitions
// (simulating a restart after losing all volatile state). It consumes no
// virtual time: recovery happens "offline" before the measured window.
func (in *Instance) Recover(records []wal.Record) (RecoveryReport, error) {
	var rep RecoveryReport

	// Analysis: classify transaction outcomes.
	outcome := make(map[uint64]wal.RecType)
	for _, r := range records {
		rep.Analyzed++
		switch r.Type {
		case wal.RecCommit, wal.RecDistCommit:
			outcome[r.Txn] = wal.RecCommit
		case wal.RecAbort, wal.RecDistAbort:
			// A later commit decision must not be overridden; 2PC never
			// aborts after committing, so first decision wins.
			if _, decided := outcome[r.Txn]; !decided {
				outcome[r.Txn] = wal.RecAbort
			}
		}
	}

	// Redo: reapply winner records in log order. Redo assigns versions
	// rather than incrementing them, so replaying a log twice is harmless.
	for _, r := range records {
		if r.Type != wal.RecUpdate {
			continue
		}
		if outcome[r.Txn] != wal.RecCommit {
			rep.Skipped++
			if _, seen := outcome[r.Txn]; !seen {
				outcome[r.Txn] = wal.RecAbort // loser with no outcome record
				rep.Losers++
			}
			continue
		}
		if err := in.redoOne(r); err != nil {
			return rep, err
		}
		rep.Redone++
	}
	for _, o := range outcome {
		if o == wal.RecCommit {
			rep.Committed++
		}
	}
	return rep, nil
}

// redoOne applies one update or insert (no virtual time: offline recovery).
func (in *Instance) redoOne(r wal.Record) error {
	ts := in.tables[r.Table]
	if ts == nil {
		return fmt.Errorf("engine: redo for unknown table %d", r.Table)
	}
	if r.Key < 0 {
		return fmt.Errorf("engine: redo for negative key %d in table %d", r.Key, r.Table)
	}
	// Inserts beyond the loaded row count grow the table first.
	if r.Key >= ts.def.NumRows {
		ts.def.NumRows = r.Key + 1
	}
	in.store.SetVersion(r.Table, r.Key, r.Version)
	ts.idx.Insert(nil, r.Key)
	// A resident page no longer matches its durable copy.
	if pg := in.bp.Peek(ts.def.Locate(r.Key)); pg != nil {
		pg.Dirty = true
	}
	return nil
}

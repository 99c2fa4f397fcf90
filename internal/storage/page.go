// Package storage implements the data substrate of the engine: fixed-width
// virtual tables whose rows are placed by key, per-row version counters, a
// B+tree key index, a buffer pool with clock eviction, and virtual disks. It
// corresponds to the lower half of Shore-MT in the paper's prototype.
//
// Row bytes are not modelled. The simulator charges every access from
// addresses and cache-line states in the memory model, so a row is its key,
// its page (Table.Locate) and its version counter (PageStore.Version).
package storage

import (
	"fmt"

	"islands/internal/latch"
	"islands/internal/mem"
)

// PageSize is the size of a database page in bytes (Shore-MT default).
const PageSize = 8192

// The modelled slotted-page layout: a fixed header and one slot directory
// entry per row. They set how many rows share a page (Table.RowsPerPage).
const (
	pageHeaderSize = 16 // nSlots(2) freeOff(2) pad(4) pageLSN(8)
	slotSize       = 4  // offset(2) length(2)
)

// TableID identifies a table within a deployment.
type TableID int32

// PageID identifies a page: a table and a page number within it.
type PageID struct {
	Table TableID
	No    int64
}

func (p PageID) String() string { return fmt.Sprintf("t%d.p%d", p.Table, p.No) }

// Page is the buffer-pool frame of one page. It holds no row data: its rows'
// versions live in the PageStore.
//
// HeaderLine is the coherence-tracked proxy for the page's hot metadata
// (header word, latch word): every fix/latch of the page touches it, so
// cross-core sharing of pages shows up in the memory model.
type Page struct {
	ID         PageID
	HeaderLine mem.Line
	Latch      latch.RW
	Dirty      bool
}

package storage

import "fmt"

// Table describes a fixed-width table whose rows are laid out in key order.
// Virtual tables let experiments address multi-gigabyte datasets (Figure 14
// grows to 120M rows) while materializing only buffer-pool-resident pages
// and the version counters of rows that were ever updated.
type Table struct {
	ID       TableID
	Name     string
	RowBytes int
	NumRows  int64
}

// RowsPerPage returns how many rows fit a page.
func (t *Table) RowsPerPage() int64 {
	per := int64((PageSize - pageHeaderSize) / (t.RowBytes + slotSize))
	if per < 1 {
		panic(fmt.Sprintf("storage: row of %d bytes does not fit a page", t.RowBytes))
	}
	return per
}

// NumPages returns the number of pages the table occupies.
func (t *Table) NumPages() int64 {
	per := t.RowsPerPage()
	return (t.NumRows + per - 1) / per
}

// Bytes returns the total size of the row data.
func (t *Table) Bytes() int64 { return t.NumRows * int64(t.RowBytes) }

// Locate returns the page holding row key, inserted rows included.
func (t *Table) Locate(key int64) PageID {
	return PageID{Table: t.ID, No: key / t.RowsPerPage()}
}

package storage

import "sort"

// PageStore is the backing store behind a buffer pool: the table
// definitions and every row's version counter. Versions live here rather
// than in a resident page, so they survive eviction and re-fetch without a
// write-back image.
type PageStore struct {
	tables map[TableID]*storedTable
}

type storedTable struct {
	def *Table
	// versions[no][slot] is the version of the slot-th row of page no; a
	// page's chunk stays nil until one of its rows gets a nonzero version,
	// so rows that are only read or inserted allocate nothing.
	versions [][]uint64
}

// NewPageStore returns an empty store.
func NewPageStore() *PageStore {
	return &PageStore{tables: make(map[TableID]*storedTable)}
}

// AddTable registers a table definition. It panics on duplicate IDs: table
// identity is a deployment-time invariant.
func (s *PageStore) AddTable(t *Table) {
	if _, dup := s.tables[t.ID]; dup {
		panic("storage: duplicate table " + t.Name)
	}
	s.tables[t.ID] = &storedTable{def: t}
}

// Table returns a registered table definition, or nil.
func (s *PageStore) Table(id TableID) *Table {
	if st := s.tables[id]; st != nil {
		return st.def
	}
	return nil
}

// SortedTables returns table definitions in id order (deterministic
// iteration for prewarming).
func (s *PageStore) SortedTables() []*Table {
	out := make([]*Table, 0, len(s.tables))
	for _, st := range s.tables {
		out = append(out, st.def)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// fetch reads page id into p, a recycled frame's page, or into a new Page
// when p is nil. Either way the page starts fresh, with a clean dirty bit,
// an untouched header line and an idle latch, as a page read from disk
// into a frame would.
func (s *PageStore) fetch(id PageID, p *Page) *Page {
	t := s.Table(id.Table)
	if t == nil {
		panic("storage: fetch of page for unknown table")
	}
	if id.No < 0 || id.No >= t.NumPages() {
		panic("storage: fetch of page beyond table end")
	}
	if p == nil {
		return &Page{ID: id}
	}
	*p = Page{ID: id}
	return p
}

// Version returns the version counter of row key (0 until first set).
func (s *PageStore) Version(table TableID, key int64) uint64 {
	st := s.tables[table]
	per := st.def.RowsPerPage()
	if no := key / per; no < int64(len(st.versions)) && st.versions[no] != nil {
		return st.versions[no][key%per]
	}
	return 0
}

// SetVersion sets the version counter of row key.
func (s *PageStore) SetVersion(table TableID, key int64, v uint64) {
	st := s.tables[table]
	per := st.def.RowsPerPage()
	no := key / per
	if v == 0 && (no >= int64(len(st.versions)) || st.versions[no] == nil) {
		return
	}
	if have := int64(len(st.versions)); no >= have {
		// Grow the index once, to cover the whole table, rather than page
		// by page as writes reach further into it.
		st.versions = append(st.versions, make([][]uint64, max(no+1, st.def.NumPages())-have)...)
	}
	if st.versions[no] == nil {
		st.versions[no] = make([]uint64, per)
	}
	st.versions[no][key%per] = v
}

// SumVersions returns the sum of every row's version counter.
func (s *PageStore) SumVersions() uint64 {
	var sum uint64
	for _, st := range s.tables {
		for _, chunk := range st.versions {
			for _, v := range chunk {
				sum += v
			}
		}
	}
	return sum
}

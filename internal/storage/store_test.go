package storage

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// TestPageFillsUntilFull checks how many fixed-width rows share a page: the
// slotted-page layout charges a 16-byte header plus a 4-byte slot per row.
func TestPageFillsUntilFull(t *testing.T) {
	for _, tc := range []struct {
		rowBytes int
		want     int64
	}{
		{250, 32}, // 8176 / 254
		{8, 681},  // 8176 / 12
		{PageSize - pageHeaderSize - slotSize, 1},
	} {
		tab := &Table{ID: 1, RowBytes: tc.rowBytes, NumRows: 1}
		if got := tab.RowsPerPage(); got != tc.want {
			t.Errorf("RowsPerPage(%d-byte rows) = %d, want %d", tc.rowBytes, got, tc.want)
		}
	}
}

// TestPageRejectsDegenerateRecords: a row wider than a page and pages
// outside the table are rejected.
func TestPageRejectsDegenerateRecords(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		fn()
	}
	mustPanic("oversized row", func() {
		(&Table{ID: 1, RowBytes: PageSize, NumRows: 1}).RowsPerPage()
	})
	store := NewPageStore()
	store.AddTable(&Table{ID: 1, RowBytes: 250, NumRows: 100}) // pages 0..3
	mustPanic("page beyond table end", func() { store.fetch(PageID{Table: 1, No: 4}, nil) })
	mustPanic("negative page", func() { store.fetch(PageID{Table: 1, No: -1}, nil) })
}

// TestPageModelProperty runs random version writes over a few pages against
// a map model, including zero writes to pages that have no chunk yet.
func TestPageModelProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		store := NewPageStore()
		tab := &Table{ID: 1, RowBytes: 250, NumRows: 320} // 10 pages of 32
		store.AddTable(tab)
		model := map[int64]uint64{}
		for op := 0; op < 300; op++ {
			key := int64(rng.Intn(int(tab.NumRows)))
			switch rng.Intn(3) {
			case 0:
				v := uint64(rng.Intn(5))
				store.SetVersion(tab.ID, key, v)
				model[key] = v
			case 1:
				store.SetVersion(tab.ID, key, store.Version(tab.ID, key)+1)
				model[key]++
			case 2:
				if store.Version(tab.ID, key) != model[key] {
					return false
				}
			}
		}
		var sum uint64
		for key := int64(0); key < tab.NumRows; key++ {
			if store.Version(tab.ID, key) != model[key] {
				return false
			}
			sum += model[key]
		}
		return store.SumVersions() == sum
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestTableGeometry(t *testing.T) {
	tab := &Table{ID: 3, Name: "rows", RowBytes: 250, NumRows: 1000}
	if tab.RowsPerPage() != 32 {
		t.Errorf("RowsPerPage = %d, want 32", tab.RowsPerPage())
	}
	if tab.NumPages() != 32 { // ceil(1000/32) = 32
		t.Errorf("NumPages = %d, want 32", tab.NumPages())
	}
	if id := tab.Locate(500); id != (PageID{Table: 3, No: 15}) {
		t.Errorf("Locate(500) = %v", id)
	}
	// Rows past the loaded end (inserts) land on the pages after it.
	if id := tab.Locate(1000); id.No != 31 {
		t.Errorf("Locate(1000) = %v, want page 31", id)
	}
	if id := tab.Locate(1024); id.No != 32 {
		t.Errorf("Locate(1024) = %v, want page 32", id)
	}
}

// TestSynthesizePageContents: a page never written starts clean with every
// row at version 0, and reading it allocates no version chunk.
func TestSynthesizePageContents(t *testing.T) {
	store := NewPageStore()
	tab := &Table{ID: 3, Name: "rows", RowBytes: 250, NumRows: 100}
	store.AddTable(tab)
	p := store.fetch(PageID{Table: tab.ID, No: 2}, nil)
	if p.ID != (PageID{Table: tab.ID, No: 2}) || p.Dirty {
		t.Errorf("fresh page %v dirty=%v", p.ID, p.Dirty)
	}
	for key := int64(64); key < 96; key++ {
		if v := store.Version(tab.ID, key); v != 0 {
			t.Errorf("fresh row %d version = %d", key, v)
		}
	}
	store.SetVersion(tab.ID, 70, 0)
	if n := len(store.tables[tab.ID].versions); n != 0 {
		t.Errorf("zero writes allocated %d page chunks", n)
	}
}

func TestRowVersionBump(t *testing.T) {
	store := NewPageStore()
	tab := &Table{ID: 1, RowBytes: 250, NumRows: 10}
	store.AddTable(tab)
	for i := 0; i < 2; i++ {
		store.SetVersion(tab.ID, 5, store.Version(tab.ID, 5)+1)
	}
	if v := store.Version(tab.ID, 5); v != 2 {
		t.Errorf("version = %d, want 2", v)
	}
	if v := store.Version(tab.ID, 4); v != 0 {
		t.Errorf("neighbour version = %d, want 0", v)
	}
	if store.SumVersions() != 2 {
		t.Errorf("SumVersions = %d, want 2", store.SumVersions())
	}
}

// TestVersionIndexGrowth: the per-page index grows to cover the table in one
// allocation, reads past it see version 0, and a table grown past its
// load-time pages by inserts still stores and sums versions.
func TestVersionIndexGrowth(t *testing.T) {
	store := NewPageStore()
	tab := &Table{ID: 1, RowBytes: 250, NumRows: 320 * 32} // 320 pages of 32
	store.AddTable(tab)
	st := store.tables[tab.ID]
	last := tab.NumRows - 1
	if a := testing.AllocsPerRun(20, func() {
		st.versions = nil
		store.SetVersion(tab.ID, last, 1)
	}); a != 2 {
		t.Errorf("first write to the last page allocated %v times, want 2 (index, page chunk)", a)
	}
	if n := int64(len(st.versions)); n != tab.NumPages() {
		t.Errorf("index covers %d pages, want %d", n, tab.NumPages())
	}
	if a := testing.AllocsPerRun(20, func() {
		st.versions = nil
		store.SetVersion(tab.ID, 0, 1)
	}); a != 2 {
		t.Errorf("first write to page 0 allocated %v times, want 2 (index, page chunk)", a)
	}
	if n := int64(len(st.versions)); n != tab.NumPages() {
		t.Errorf("a write to page 0 grew the index to %d pages, want all %d", n, tab.NumPages())
	}
	store.SetVersion(tab.ID, last, 1)
	if v := store.Version(tab.ID, tab.NumRows+10*32); v != 0 {
		t.Errorf("version beyond the index = %d, want 0", v)
	}

	// Inserts append rows past the loaded end, as the engine does.
	for i := int64(0); i < 100; i++ {
		key := tab.NumRows
		tab.NumRows++
		store.SetVersion(tab.ID, key, 3)
	}
	if n := int64(len(st.versions)); n != tab.NumPages() {
		t.Errorf("index covers %d pages after inserts, want %d", n, tab.NumPages())
	}
	if v := store.Version(tab.ID, tab.NumRows-1); v != 3 {
		t.Errorf("inserted row version = %d, want 3", v)
	}
	if sum, want := store.SumVersions(), uint64(1+1+100*3); sum != want {
		t.Errorf("SumVersions = %d, want %d", sum, want)
	}
	// A write further out than the table's pages still lands.
	far := tab.NumRows + 5*32
	store.SetVersion(tab.ID, far, 4)
	if v := store.Version(tab.ID, far); v != 4 {
		t.Errorf("version past the table end = %d, want 4", v)
	}
}

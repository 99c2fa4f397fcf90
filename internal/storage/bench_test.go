package storage

import (
	"testing"

	"islands/internal/exec"
	"islands/internal/mem"
	"islands/internal/sim"
	"islands/internal/topology"
)

// BenchmarkBTreeSearch measures an index probe of a bulk-loaded tree with
// no cost charging: the walk down to a dense leaf. Must report 0 allocs/op.
func BenchmarkBTreeSearch(b *testing.B) {
	const n = 1 << 20
	bt := NewBTree(0)
	bt.BulkLoadRange(n, 0.9)
	b.ReportAllocs()
	b.ResetTimer()
	key := int64(0)
	for i := 0; i < b.N; i++ {
		bt.Search(nil, key)
		key = (key + 7919) % n
	}
}

// BenchmarkBufferPoolFixHit measures a Fix/Unfix pair on a resident page,
// charged to a simulated thread. Must report 0 allocs/op.
func BenchmarkBufferPoolFixHit(b *testing.B) {
	store := NewPageStore()
	tab := &Table{ID: 1, Name: "rows", RowBytes: 250, NumRows: 64 * 32}
	store.AddTable(tab)
	bp := NewBufferPool(store, MMapDisk(), 64)
	bp.Prewarm(0)
	k := sim.NewKernel()
	defer k.Close()
	model := mem.NewModel(topology.QuadSocket())
	k.Spawn("fix", func(p *sim.Proc) {
		ctx := exec.New(p, 0, model, nil)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			pg := bp.Fix(ctx, PageID{Table: tab.ID, No: int64(i % 64)})
			bp.Unfix(ctx, pg, false)
		}
	})
	k.Run()
}

package storage

import (
	"fmt"

	"islands/internal/exec"
	"islands/internal/mem"
	"islands/internal/sim"
)

// Buffer pool cost constants.
const (
	// CostFixCPU is the compute cost of a hash-table probe plus pin.
	CostFixCPU = 110 * sim.Nanosecond
	// CostUnfixCPU is the compute cost of an unpin.
	CostUnfixCPU = 30 * sim.Nanosecond

	bucketLineCount = 64
)

// BufferPool caches pages of a PageStore with clock (second-chance)
// eviction. Its hash-bucket metadata is coherence-tracked, so instances
// whose workers span sockets pay growing costs for buffer-pool bookkeeping —
// one of the shared-everything penalties measured in the paper.
type BufferPool struct {
	store    *PageStore
	disk     *Disk
	capacity int

	frames map[PageID]*frame
	ring   []*frame
	hand   int

	bucketLines [bucketLineCount]mem.Line

	Hits, Misses, Evictions, DirtyWriteBacks uint64
}

type frame struct {
	page    *Page
	pins    int
	ref     bool
	loading bool
	waiters []*sim.Proc
}

// NewBufferPool builds a pool of `capacity` pages over store, performing
// misses and write-backs against disk.
func NewBufferPool(store *PageStore, disk *Disk, capacity int) *BufferPool {
	if capacity < 1 {
		panic("storage: buffer pool capacity must be >= 1")
	}
	return &BufferPool{
		store:    store,
		disk:     disk,
		capacity: capacity,
		frames:   make(map[PageID]*frame, capacity),
	}
}

// Capacity returns the pool size in pages.
func (bp *BufferPool) Capacity() int { return bp.capacity }

// Resident returns the number of cached pages.
func (bp *BufferPool) Resident() int { return len(bp.frames) }

func (bp *BufferPool) bucketLine(id PageID) *mem.Line {
	h := uint64(id.No)*0x9e3779b97f4a7c15 + uint64(id.Table)*0x85ebca6b
	return &bp.bucketLines[h%bucketLineCount]
}

// Fix pins page id, reading it from the backing store on a miss, and charges
// the caller for the probe, the pin, and any I/O (I/O goes to BIO).
//
// The frame table update is atomic in virtual time (reserve first, charge
// after), so two threads missing on the same page produce one frame: the
// second waits for the first's I/O, as with a real pool's I/O latch.
func (bp *BufferPool) Fix(ctx *exec.Ctx, id PageID) *Page {
	if f, ok := bp.frames[id]; ok {
		bp.Hits++
		f.pins++
		f.ref = true
		ctx.Charge(CostFixCPU)
		ctx.WriteLine(bp.bucketLine(id))
		if f.loading {
			prev := ctx.Bucket(exec.BIO)
			ctx.Block(func() {
				for f.loading {
					f.waiters = append(f.waiters, ctx.P)
					ctx.P.Park()
				}
			})
			ctx.Bucket(prev)
		}
		return f.page
	}
	bp.Misses++
	// Reserve the frame before any time passes.
	f := &frame{pins: 1, ref: true, loading: true}
	bp.frames[id] = f
	bp.ring = append(bp.ring, f)
	if len(bp.frames) > bp.capacity {
		bp.evict(ctx)
	}
	ctx.Charge(CostFixCPU)
	ctx.WriteLine(bp.bucketLine(id))
	prev := ctx.Bucket(exec.BIO)
	bp.disk.Read(ctx)
	ctx.Bucket(prev)
	f.page = bp.store.Fetch(id)
	f.loading = false
	for _, w := range f.waiters {
		w.Unpark()
	}
	f.waiters = nil
	return f.page
}

// Unfix unpins the page; dirty marks it modified.
func (bp *BufferPool) Unfix(ctx *exec.Ctx, p *Page, dirty bool) {
	ctx.Charge(CostUnfixCPU)
	f, ok := bp.frames[p.ID]
	if !ok || f.pins <= 0 {
		panic("storage: Unfix of page that is not fixed: " + p.ID.String())
	}
	if dirty {
		f.page.Dirty = true
	}
	f.pins--
}

// evict selects a clock victim and removes it from the table atomically,
// before any virtual time passes; a dirty victim's device write is charged
// afterwards.
func (bp *BufferPool) evict(ctx *exec.Ctx) {
	for scanned := 0; scanned < 2*len(bp.ring)+2; scanned++ {
		if len(bp.ring) == 0 {
			break
		}
		bp.hand %= len(bp.ring)
		f := bp.ring[bp.hand]
		if f.pins > 0 || f.loading {
			bp.hand++
			continue
		}
		if f.ref {
			f.ref = false
			bp.hand++
			continue
		}
		// Victim found: unhook, then pay for the write.
		bp.Evictions++
		delete(bp.frames, f.page.ID)
		bp.ring = append(bp.ring[:bp.hand], bp.ring[bp.hand+1:]...)
		if f.page.Dirty {
			bp.DirtyWriteBacks++
			f.page.Dirty = false
			prev := ctx.Bucket(exec.BIO)
			bp.disk.Write(ctx)
			ctx.Bucket(prev)
		}
		return
	}
	panic(fmt.Sprintf("storage: buffer pool thrashing: all %d pages pinned", len(bp.ring)))
}

// Peek returns the cached page for id without pinning, charging, or
// faulting it in; nil when not resident.
func (bp *BufferPool) Peek(id PageID) *Page {
	if f, ok := bp.frames[id]; ok && !f.loading {
		return f.page
	}
	return nil
}

// Prewarm fills the pool with the lowest-numbered pages of each table, up
// to the pool capacity minus slack, without charging I/O: the standard
// warm-start for steady-state measurements (the paper measures warmed
// systems).
func (bp *BufferPool) Prewarm(slack int) {
	budget := bp.capacity - slack
	if budget <= 0 {
		return
	}
	for _, t := range bp.store.SortedTables() {
		for no := int64(0); no < t.NumPages() && budget > 0; no++ {
			id := PageID{Table: t.ID, No: no}
			if _, ok := bp.frames[id]; ok {
				continue
			}
			f := &frame{page: bp.store.Fetch(id)}
			bp.frames[id] = f
			bp.ring = append(bp.ring, f)
			budget--
		}
	}
}

// FlushAll charges one device write per dirty page and marks it clean
// (orderly shutdown).
func (bp *BufferPool) FlushAll(ctx *exec.Ctx) {
	for _, f := range bp.ring {
		if f.page.Dirty {
			bp.DirtyWriteBacks++
			prev := ctx.Bucket(exec.BIO)
			bp.disk.Write(ctx)
			ctx.Bucket(prev)
			f.page.Dirty = false
		}
	}
}

// HitRate returns hits / (hits+misses), or 1 when unused.
func (bp *BufferPool) HitRate() float64 {
	total := bp.Hits + bp.Misses
	if total == 0 {
		return 1
	}
	return float64(bp.Hits) / float64(total)
}

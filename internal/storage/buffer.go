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
	// ring is the sentinel of the clock's circular list, which holds the
	// resident frames in the order they were added. hand is the frame the
	// clock inspects next, or the sentinel when it has run past the newest
	// frame: the next frame added then takes the hand.
	ring frame
	hand *frame
	// free holds evicted frames, linked through next, for the next miss.
	free *frame

	bucketLines [bucketLineCount]mem.Line

	Hits, Misses, Evictions, DirtyWriteBacks uint64
}

type frame struct {
	page       *Page
	pins       int
	ref        bool
	loading    bool
	waiters    []*sim.Proc
	prev, next *frame
}

// NewBufferPool builds a pool of `capacity` pages over store, performing
// misses and write-backs against disk.
func NewBufferPool(store *PageStore, disk *Disk, capacity int) *BufferPool {
	if capacity < 1 {
		panic("storage: buffer pool capacity must be >= 1")
	}
	bp := &BufferPool{
		store:    store,
		disk:     disk,
		capacity: capacity,
		frames:   make(map[PageID]*frame, capacity),
	}
	bp.ring.prev, bp.ring.next = &bp.ring, &bp.ring
	bp.hand = &bp.ring
	return bp
}

// add makes f resident as page id, appending it to the clock ring.
func (bp *BufferPool) add(id PageID, f *frame) {
	bp.frames[id] = f
	f.prev, f.next = bp.ring.prev, &bp.ring
	f.prev.next, bp.ring.prev = f, f
	if bp.hand == &bp.ring {
		bp.hand = f
	}
}

// newFrame returns a recycled frame, or a new one when none is free. A
// recycled frame keeps its Page object, which fetch resets.
func (bp *BufferPool) newFrame() *frame {
	f := bp.free
	if f == nil {
		return &frame{}
	}
	bp.free = f.next
	f.next = nil
	return f
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
	f := bp.newFrame()
	f.pins, f.ref, f.loading = 1, true, true
	bp.add(id, f)
	if len(bp.frames) > bp.capacity {
		bp.evict(ctx)
	}
	ctx.Charge(CostFixCPU)
	ctx.WriteLine(bp.bucketLine(id))
	prev := ctx.Bucket(exec.BIO)
	bp.disk.Read(ctx)
	ctx.Bucket(prev)
	f.page = bp.store.fetch(id, f.page)
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
// afterwards. The victim's frame is freed for reuse.
func (bp *BufferPool) evict(ctx *exec.Ctx) {
	n := len(bp.frames) // every resident frame is on the ring
	for scanned := 0; scanned < 2*n+2; scanned++ {
		if n == 0 {
			break
		}
		if bp.hand == &bp.ring {
			bp.hand = bp.ring.next
		}
		f := bp.hand
		if f.pins > 0 || f.loading {
			bp.hand = f.next
			continue
		}
		if f.ref {
			f.ref = false
			bp.hand = f.next
			continue
		}
		// Victim found: unhook, then pay for the write.
		bp.Evictions++
		delete(bp.frames, f.page.ID)
		bp.hand = f.next
		f.prev.next, f.next.prev = f.next, f.prev
		f.prev, f.next = nil, bp.free
		bp.free = f
		if f.page.Dirty {
			bp.DirtyWriteBacks++
			f.page.Dirty = false
			prev := ctx.Bucket(exec.BIO)
			bp.disk.Write(ctx)
			ctx.Bucket(prev)
		}
		return
	}
	panic(fmt.Sprintf("storage: buffer pool thrashing: all %d pages pinned", n))
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
			bp.add(id, &frame{page: bp.store.fetch(id, nil)})
			budget--
		}
	}
}

// FlushAll charges one device write per dirty page and marks it clean
// (orderly shutdown).
func (bp *BufferPool) FlushAll(ctx *exec.Ctx) {
	for f := bp.ring.next; f != &bp.ring; f = f.next {
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

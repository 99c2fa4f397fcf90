package sim

import (
	"runtime"
	"sync/atomic"
	"time"
)

// Conservative windowed execution for multi-shard kernels.
//
// The algorithm generalizes YAWNS-style synchronous windowing with
// Chandy–Misra distance-based lookahead. The kernel carries laDist, the
// min-plus closure of the per-shard-pair lookahead matrix: laDist[j][i]
// lower-bounds the virtual time any causal chain starting on shard j needs
// to reach shard i (including multi-hop routes through other shards, and
// cycles back to j itself). Each window:
//
//  1. merges every shard's inbound mailbox into its heap (entries are due
//     strictly beyond the window that produced them, so clocks never
//     regress);
//  2. computes every shard's next-event time m_j, and gives each shard i its
//     own limit L_i = min_j(m_j + laDist[j][i]) - 1: the earliest instant an
//     event executed anywhere could make new work arrive at shard i. Events
//     on shard i with at <= L_i are safe to run without coordination —
//     anything influencing them from another shard would have to arrive at
//     > L_i. A shard pair with no route contributes no bound; a shard with
//     no route into it at all runs to its cap in one window.
//  3. releases the shards whose next event falls inside their limit to
//     execute in parallel, horizon pinned to the limit so proc fast-path
//     advances stay inside the window. Shards 1..n-1 run on persistent
//     worker goroutines, released through their own rel gate; shard 0 runs
//     inline on the coordinator goroutine, which would otherwise sit idle
//     in the join, so shard 0's Procs stay on the thread that drives the
//     run and one wakeup per window needs no goroutine switch at all;
//  4. joins at a barrier: the coordinator waits on each released worker's
//     fin gate. Gates spin, then park (see gate), and spin only while the
//     released workers plus the coordinator fit in GOMAXPROCS, so an
//     oversubscribed kernel parks at once instead of burning the CPUs its
//     workers need. Panics captured in any shard's window, shard 0's
//     included, re-raise here after the join, lowest shard id first, so
//     failures surface deterministically.
//
// With a uniform matrix this degenerates to (at least) the classic global
// window [m, m+la): every L_i >= m + la - 1. With distance-aware floors,
// shards whose nearest neighbors are far — ring antipodes, torus corners,
// LatencyScale-dilated fabrics — get wider windows and fewer barriers, which
// is the whole point: the paper's islands exist because hops are non-uniform,
// and the simulator's synchronization cost should follow the same structure.
//
// Progress is guaranteed: the shard holding the globally-earliest event m
// has L_i >= m (every laDist entry is >= 1), so it always executes at least
// that event. Determinism needs no cross-window reasoning beyond the event
// keys: each shard executes its own events in (at, dom, seq) order, and
// events on different shards inside their respective windows are causally
// independent by the lookahead-closure argument, so their relative
// wall-clock order cannot affect simulation state.

// spinFor bounds how long a gate waiter spins before it parks. A wait is
// one shard's share of a window's load imbalance: on the 2-shard multisite
// benchmark almost all of them end within a millisecond. A longer wait is an
// idle stretch (the run has ended, or the driver is busy between RunUntil
// calls) worth giving the thread back for.
const spinFor = time.Millisecond

// gate is a spin-then-park signal on one cache line: one goroutine posts a
// counter value, another waits until the word holds it. A waiter first
// polls the word (when told it may spin), then parks on the wake channel
// after writing the value it waits for into parked. post stores the word
// before it reads parked, and the waiter writes parked before it re-reads
// the word; both are sequentially consistent atomics, so at least one side
// sees the other's store, and whichever swaps parked from v to 0 owns the
// single wake token. parked holds v rather than a flag so that a post of v
// still in flight cannot claim the waiter's next wait, for v+1, and hand it
// a token early. A spinning waiter polls the word 64 times between
// runtime.Gosched calls, so a goroutine queued behind it on the same P
// still runs.
type gate struct {
	word   atomic.Uint64
	parked atomic.Uint64
	wake   chan struct{}
	_      [cacheLine - 24]byte
}

func (g *gate) post(v uint64) {
	g.word.Store(v)
	if g.parked.Load() == v && g.parked.CompareAndSwap(v, 0) {
		g.wake <- struct{}{}
	}
}

// wait returns once the word holds v. The word only moves forward, and
// only to the value a waiter waits for next.
func (g *gate) wait(v uint64, spin bool) {
	if spin {
		for start := time.Now(); time.Since(start) < spinFor; runtime.Gosched() {
			for i := 0; i < 64; i++ {
				if g.word.Load() == v {
					return
				}
			}
		}
	}
	g.parked.Store(v)
	if g.word.Load() == v && g.parked.CompareAndSwap(v, 0) {
		return
	}
	<-g.wake
}

// startWorkers launches one persistent goroutine for each shard but shard
// 0, which the coordinator runs itself. Workers live until Close.
func (k *Kernel) startWorkers() {
	if k.workersOn {
		return
	}
	k.workersOn = true
	for _, sh := range k.shards[1:] {
		sh.rel.wake = make(chan struct{}, 1)
		sh.fin.wake = make(chan struct{}, 1)
		go sh.serve()
	}
}

// serve is the worker goroutine body: one window per release, up to the
// horizon the coordinator set, until a release with stop set.
func (sh *shard) serve() {
	spin := false
	for n := uint64(1); ; n++ {
		sh.rel.wait(n, spin)
		if sh.stop {
			sh.fin.post(n)
			return
		}
		spin = sh.spin
		sh.runTo(sh.horizon)
		sh.fin.post(n)
	}
}

// stopWorkers releases every worker with stop set and waits until each has
// acknowledged, whether it was spinning or parked, so no worker goroutine
// outlives Close.
func (k *Kernel) stopWorkers() {
	if !k.workersOn {
		return
	}
	k.workersOn = false
	for _, sh := range k.shards[1:] {
		sh.stop = true
		sh.released++
		sh.rel.post(sh.released)
	}
	for _, sh := range k.shards[1:] {
		sh.fin.wait(sh.released, false)
	}
}

// runTo executes the shard's events up to limit. A panic inside the window
// is captured so the barrier always completes; the coordinator re-raises
// it.
func (sh *shard) runTo(limit Time) {
	defer func() {
		if r := recover(); r != nil {
			sh.panicked = r
		}
	}()
	for !sh.heap.empty() && sh.heap.ev[0].at <= limit {
		sh.step()
	}
}

// computeWindow fills k.mins with every shard's next-event time and
// k.limits with every shard's distance-aware window limit (capped at cap),
// and returns the number of shards with an event inside their limit. Zero
// means the run is done: either no events remain, or every remaining event
// lies beyond the cap.
func (k *Kernel) computeWindow(cap Time) int {
	n := len(k.shards)
	for i, sh := range k.shards {
		if sh.heap.empty() {
			k.mins[i] = noChannel
		} else {
			k.mins[i] = sh.heap.ev[0].at
		}
	}
	active := 0
	if k.globalWindows {
		// Ablation: the pre-matrix policy — one global window over the
		// minimum next-event time and the minimum scalar lookahead.
		m := noChannel
		for j := 0; j < n; j++ {
			if k.mins[j] < m {
				m = k.mins[j]
			}
		}
		lim := cap
		if m != noChannel {
			if w := addClamp(m, k.la) - 1; w < lim {
				lim = w
			}
		}
		for i := range k.shards {
			k.limits[i] = lim
			if k.mins[i] != noChannel && k.mins[i] <= lim {
				active++
			}
		}
		return active
	}
	for i := range k.shards {
		lim := cap
		for j := 0; j < n; j++ {
			if k.mins[j] == noChannel {
				continue
			}
			d := k.laDist[j*n+i]
			if d == noChannel {
				continue
			}
			if w := addClamp(k.mins[j], d) - 1; w < lim {
				lim = w
			}
		}
		k.limits[i] = lim
		if k.mins[i] != noChannel && k.mins[i] <= lim {
			active++
		}
	}
	return active
}

// runWindow executes one synchronized window: every worker shard whose
// next event falls inside its limit is released, the coordinator runs shard
// 0's window itself if it has one, then joins the workers. Shards with
// nothing runnable this window sit it out entirely (no release, no barrier
// slot). maxProcs is GOMAXPROCS for the run.
func (k *Kernel) runWindow(active, maxProcs int) {
	k.windows++
	k.wakeups += uint64(active)
	runs := func(i int) bool { return k.mins[i] != noChannel && k.mins[i] <= k.limits[i] }
	released := active
	if runs(0) {
		released--
	}
	spin := released+1 <= maxProcs
	for i, sh := range k.shards {
		if i == 0 || !runs(i) {
			continue
		}
		sh.horizon = k.limits[i]
		sh.spin = spin
		sh.released++
		sh.rel.post(sh.released)
	}
	if sh := k.shards[0]; runs(0) {
		sh.horizon = k.limits[0]
		sh.runTo(sh.horizon)
	}
	// A worker sitting this window out has already posted its count, so its
	// wait returns at the first poll.
	for _, sh := range k.shards[1:] {
		sh.fin.wait(sh.released, spin)
	}
	var first any
	for _, sh := range k.shards {
		sh.horizon = noHorizon
		if first == nil {
			first = sh.panicked
		}
		sh.panicked = nil
	}
	if first != nil {
		panic(first)
	}
}

// drainInboxes folds every shard's inbound mailbox into its heap. Only
// called at barriers (no worker running), but the mailbox mutex is still
// taken: a Go memory-model happens-before edge with the sending shard's
// last window is established by the barrier's fin gate, and the lock keeps
// -race provably clean if a send raced the final window edge.
func (k *Kernel) drainInboxes() {
	for _, sh := range k.shards {
		sh.inMu.Lock()
		for _, e := range sh.inbox {
			sh.heap.push(e)
		}
		sh.inbox = sh.inbox[:0]
		sh.inMu.Unlock()
	}
}

// nextEventTime returns the minimum next-event timestamp across shard heaps.
func (k *Kernel) nextEventTime() (Time, bool) {
	var m Time
	ok := false
	for _, sh := range k.shards {
		if sh.heap.empty() {
			continue
		}
		if at := sh.heap.ev[0].at; !ok || at < m {
			m = at
			ok = true
		}
	}
	return m, ok
}

// runShardedTo is the shared multi-shard driver: windows until no shard has
// a runnable event at or below cap.
func (k *Kernel) runShardedTo(cap Time) {
	k.startWorkers()
	maxProcs := runtime.GOMAXPROCS(0)
	for {
		k.drainInboxes()
		active := k.computeWindow(cap)
		if active == 0 {
			break
		}
		k.runWindow(active, maxProcs)
	}
}

func (k *Kernel) runSharded() { k.runShardedTo(maxHorizon) }

func (k *Kernel) runUntilSharded(t Time) {
	k.runShardedTo(t)
	for _, sh := range k.shards {
		if sh.now < t {
			sh.now = t
		}
	}
}

// stepSharded executes the single globally-earliest event (by canonical
// key), sequentially on the coordinator goroutine.
func (k *Kernel) stepSharded() bool {
	k.drainInboxes()
	var best *shard
	for _, sh := range k.shards {
		if sh.heap.empty() {
			continue
		}
		if best == nil || sh.heap.ev[0].before(&best.heap.ev[0]) {
			best = sh
		}
	}
	if best == nil {
		return false
	}
	best.horizon = noHorizon
	return best.step()
}

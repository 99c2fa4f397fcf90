package sim

import (
	"fmt"
	"math"
	"sync"
)

// event is a single entry in a shard's timeline. Exactly one payload form
// is set:
//
//   - proc: wake the Proc (hand control to its coroutine);
//   - fn: run a kernel-context callback;
//   - fnArg: run an argument-carrying kernel-context callback; the (fnArg,
//     arg) pair lets long-lived components (e.g. Queue's deferred deliveries)
//     schedule with one pre-bound closure instead of allocating a fresh
//     closure per event.
//
// Kernel-context callbacks must not block; they may push to queues, unpark
// procs, or schedule more events. Storing the event as a tagged struct — by
// value, in a flat heap — means the common "wake proc" event needs no
// closure and no interface boxing.
type event struct {
	at    Time
	seq   uint64
	proc  *Proc
	fn    func()
	fnArg func(uint32)
	arg   uint32
	dom   int32
}

// before orders events by (at, dom, seq): timestamp first, then the
// scheduling domain's id, then that domain's private sequence counter.
// The key is intrinsic to the *scheduling* domain — assigned when the event
// is created, never reassigned when it crosses a shard boundary — which is
// what makes the execution order independent of how domains are mapped onto
// shards: the same events carry the same keys whether they were inserted
// directly into a shared heap or merged from another shard's outbox. With a
// single domain the key degenerates to the classic (at, insertion-order)
// FIFO tie-break.
func (e *event) before(o *event) bool {
	if e.at != o.at {
		return e.at < o.at
	}
	if e.dom != o.dom {
		return e.dom < o.dom
	}
	return e.seq < o.seq
}

// timerHeap is a 4-ary min-heap of events. The 4-ary layout halves the depth
// of a binary heap and keeps a node's children within two cache lines;
// push/pop are allocation-free once the backing array has grown to the
// simulation's working set.
type timerHeap struct {
	ev []event
}

func (h *timerHeap) len() int    { return len(h.ev) }
func (h *timerHeap) empty() bool { return len(h.ev) == 0 }

// push and siftDown move a hole through the tree and write the placed event
// once, instead of swapping 48-byte events at every level.
func (h *timerHeap) push(e event) {
	h.ev = append(h.ev, event{})
	i := len(h.ev) - 1
	for i > 0 {
		p := (i - 1) / 4
		if !e.before(&h.ev[p]) {
			break
		}
		h.ev[i] = h.ev[p]
		i = p
	}
	h.ev[i] = e
}

func (h *timerHeap) pop() event {
	top := h.ev[0]
	n := len(h.ev) - 1
	last := h.ev[n]
	h.ev[n] = event{} // release fn/proc references to the GC
	h.ev = h.ev[:n]
	if n > 0 {
		h.siftDown(last)
	}
	return top
}

// siftDown writes e into the root slot, overwriting the current root, and
// restores heap order. Proc.Advance calls it directly to replace the root
// with its own wake in a fused handoff.
func (h *timerHeap) siftDown(e event) {
	n := len(h.ev)
	i := 0
	for {
		first := 4*i + 1
		if first >= n {
			break
		}
		last := first + 4
		if last > n {
			last = n
		}
		min := first
		for c := first + 1; c < last; c++ {
			if h.ev[c].before(&h.ev[min]) {
				min = c
			}
		}
		if !h.ev[min].before(&e) {
			break
		}
		h.ev[i] = h.ev[min]
		i = min
	}
	h.ev[i] = e
}

// Horizon sentinels: noHorizon forbids any inline clock advance (single-step
// mode); maxHorizon allows procs to advance freely (Run).
const (
	noHorizon  Time = math.MinInt64
	maxHorizon Time = math.MaxInt64
)

// cacheLine is the coherence granule the kernel pads its hot per-shard and
// per-domain words to. Two shards run on two host cores at once; a word one
// of them writes on every event must not share a line with anything the
// other touches, or each write steals the line from the other core.
const cacheLine = 64

// shard is one independently-advancing slice of the timeline: a clock, an
// event heap, and an inbound mailbox for events scheduled by domains living
// on other shards. A single-shard kernel is exactly the classic sequential
// kernel; a multi-shard kernel runs its shards concurrently between
// conservative synchronization barriers (see parallel.go).
//
// The layout is five cache lines, grouped by writer: the event loop's own
// words; the mailbox, which other shards write mid-window; the release gate
// the coordinator posts; the finish gate the shard's worker posts; and the
// cold tail. The struct's size is a multiple of cacheLine, so the allocator
// places it line-aligned and the groups never share a line, with each other
// or with a neighboring shard.
type shard struct {
	// Line 0, written by the shard's event loop on every event.
	now Time

	// horizon bounds the kernel-context fast path: a Proc may consume
	// virtual time inline (without parking in the heap and handing control
	// to the event loop) only up to this timestamp. Run lifts it to
	// maxHorizon; RunUntil(t) sets it to t; windowed parallel execution pins
	// it to the window's limit; single Step calls pin it to noHorizon so
	// exactly one event runs.
	horizon Time

	heap    timerHeap
	nEvents uint64

	// ready is the Proc a fused handoff (Proc.Advance) picked off the heap
	// root, due at readyAt: dispatch resumes it next without returning to
	// the event loop.
	ready   *Proc
	readyAt Time

	// Line 1. inbox receives events scheduled cross-shard, already carrying
	// their final (at, dom, seq) keys; the coordinator folds them into the
	// heap at window barriers, which is safe because conservative lookahead
	// guarantees they are due no earlier than the next window.
	k     *Kernel
	id    int
	inMu  sync.Mutex
	inbox []event
	_     [cacheLine - 48]byte

	// Lines 2 and 3: the window barrier (parallel.go). The coordinator posts
	// rel to release the shard's worker into a window; the worker posts fin
	// when the window is done.
	rel, fin gate

	// Line 4, cold. released counts this shard's windows (the value rel and
	// fin carry); spin says whether the worker may spin while it waits for
	// the next release; stop ends the worker at Close; panicked holds a
	// panic captured inside a window until the coordinator re-raises it.
	released uint64
	spin     bool
	stop     bool
	panicked any
	_        [cacheLine - 32]byte
}

func (sh *shard) clamp(at Time) Time {
	if at < sh.now {
		return sh.now
	}
	return at
}

// step executes the next event under the current horizon.
func (sh *shard) step() bool {
	if sh.heap.empty() {
		return false
	}
	e := sh.heap.pop()
	sh.now = e.at
	sh.nEvents++
	sh.dispatch(&e)
	return true
}

// dispatch executes one popped event. Proc panics and kernel-context
// callback panics both unwind through here into Step/Run (on a worker
// goroutine they are captured and re-raised at the window barrier).
//
// A Proc event may chain: when the resumed Proc hands off to the next Proc
// in Advance, it leaves that Proc in sh.ready, and dispatch runs it exactly
// as step would have run its popped wake event.
func (sh *shard) dispatch(e *event) {
	switch {
	case e.proc != nil:
		p := e.proc
		for {
			if !p.dead {
				p.started = true
				p.next()
			}
			if p = sh.ready; p == nil {
				return
			}
			sh.ready = nil
			sh.now = sh.readyAt
			sh.nEvents++
		}
	case e.fn != nil:
		e.fn()
	default:
		e.fnArg(e.arg)
	}
}

// Kernel owns the virtual clocks, the event shards, and all Procs.
// A single-shard kernel (NewKernel) is not safe for concurrent use; the
// simulation itself provides all the concurrency that is being modeled. A
// multi-shard kernel (NewSharded) runs its shards concurrently internally,
// but its public methods must still be called from one driver goroutine.
type Kernel struct {
	shards  []*shard
	domains []*Domain

	// la is the scalar conservative lookahead: the minimum virtual delay of
	// any cross-shard delivery, over every declared shard pair. It survives
	// as the back-compat Lookahead() accessor and the floor reported in
	// panic messages; window computation uses the pairwise matrices below.
	la Time

	// laPair is the dense shards x shards matrix of direct delivery floors:
	// laPair[i*n+j] is the minimum delay of any PushAfterFrom whose
	// scheduling domain lives on shard i and whose queue lives on shard j
	// (noChannel where shard i never sends to shard j). laDist is its
	// min-plus closure *including cycles* — laDist[i*n+j] lower-bounds the
	// virtual time any causal chain starting on shard i needs to reach
	// shard j through any sequence of cross-shard hops, and laDist[i*n+i]
	// is the shortest round trip i -> ... -> i, which is what bounds how
	// far shard i may run ahead of its own future incoming echoes. The
	// per-shard window limits in parallel.go are derived from laDist.
	laPair []Time
	laDist []Time

	// mins/limits are per-window scratch (next-event time and window limit
	// per shard); windows counts synchronization windows executed and
	// wakeups counts per-shard barrier crossings (the sum of released
	// shards over all windows) — the synchronization work that
	// distance-aware lookahead exists to reduce. globalWindows forces the
	// pre-matrix windowing policy (one global window [m, m+min(la)) for
	// every shard) as a measurable ablation.
	mins          []Time
	limits        []Time
	windows       uint64
	wakeups       uint64
	globalWindows bool

	procMu sync.Mutex
	procs  []*Proc

	workersOn bool
}

// noChannel marks a shard pair with no declared delivery channel: no
// cross-shard send may travel it, and no lookahead bound is derived from it.
const noChannel = Time(math.MaxInt64)

// addClamp returns a+b saturating at maxHorizon (operands are non-negative
// event times and lookaheads).
func addClamp(a, b Time) Time {
	if a > maxHorizon-b {
		return maxHorizon
	}
	return a + b
}

// NewKernel returns an empty single-shard kernel at virtual time zero.
func NewKernel() *Kernel { return NewSharded(1, 0) }

// NewSharded returns a kernel with the given number of event shards and a
// uniform conservative lookahead. Lookahead must be positive when
// shards > 1: it is the floor under every cross-shard delivery delay
// (PushAfterFrom panics on anything shorter), and the window width that lets
// shards advance without waiting on each other. Domains created with
// NewDomain choose their shard; determinism is independent of that mapping,
// so NewSharded(1, la) and NewSharded(n, la) produce bit-identical
// simulations. Deployments that know their topology's distance structure
// should prefer NewShardedMatrix: per-pair floors widen windows for shards
// whose nearest neighbors are far apart.
func NewSharded(shards int, lookahead Time) *Kernel {
	if shards < 1 {
		panic("sim: kernel needs >= 1 shard")
	}
	if shards > 1 && lookahead <= 0 {
		panic("sim: a multi-shard kernel needs a positive conservative lookahead")
	}
	la := make([][]Time, shards)
	for i := range la {
		la[i] = make([]Time, shards)
		for j := range la[i] {
			if i != j {
				la[i][j] = lookahead
			}
		}
	}
	return NewShardedMatrix(la)
}

// NewShardedMatrix returns a kernel with len(la) event shards and the given
// per-shard-pair conservative lookahead matrix: la[i][j] is the minimum
// virtual delay of any cross-shard delivery scheduled by a domain on shard i
// into a queue on shard j (the Chandy–Misra lookahead of the i->j channel).
// An off-diagonal entry <= 0 declares that shard i never sends to shard j —
// PushAfterFrom panics on such a send. The diagonal is ignored (same-shard
// deliveries bypass the cross-shard path entirely).
//
// Windowed execution derives each shard's limit from the min-plus closure of
// the matrix, so a shard whose in-distances are large runs far ahead of the
// rest between barriers; determinism is unaffected, because event keys —
// (at, scheduling domain, domain-local seq) — never depend on shard windows.
func NewShardedMatrix(la [][]Time) *Kernel {
	n := len(la)
	if n < 1 {
		panic("sim: kernel needs >= 1 shard")
	}
	k := &Kernel{}
	k.shards = make([]*shard, n)
	for i := range k.shards {
		k.shards[i] = &shard{k: k, id: i, horizon: noHorizon}
	}
	k.domains = []*Domain{{sh: k.shards[0], id: 0}}
	k.laPair = make([]Time, n*n)
	for i, row := range la {
		if len(row) != n {
			panic(fmt.Sprintf("sim: lookahead matrix row %d has %d entries, want %d", i, len(row), n))
		}
		for j, v := range row {
			switch {
			case i == j:
				k.laPair[i*n+j] = noChannel
			case v <= 0:
				k.laPair[i*n+j] = noChannel
			default:
				k.laPair[i*n+j] = v
				if k.la == 0 || v < k.la {
					k.la = v
				}
			}
		}
	}
	// Min-plus closure with a noChannel diagonal: laDist[i][j] is the
	// cheapest multi-hop route i -> ... -> j, and laDist[i][i] the cheapest
	// cycle through i. All declared floors are positive, so every entry is
	// either >= 1 or noChannel.
	k.laDist = make([]Time, n*n)
	copy(k.laDist, k.laPair)
	for via := 0; via < n; via++ {
		for i := 0; i < n; i++ {
			d1 := k.laDist[i*n+via]
			if d1 == noChannel {
				continue
			}
			for j := 0; j < n; j++ {
				d2 := k.laDist[via*n+j]
				if d2 == noChannel {
					continue
				}
				if d := addClamp(d1, d2); d < k.laDist[i*n+j] {
					k.laDist[i*n+j] = d
				}
			}
		}
	}
	k.mins = make([]Time, n)
	k.limits = make([]Time, n)
	return k
}

// Shards returns the number of event shards.
func (k *Kernel) Shards() int { return len(k.shards) }

// Lookahead returns the minimum conservative lookahead over all declared
// shard pairs (0 for single-shard kernels built by NewKernel).
func (k *Kernel) Lookahead() Time { return k.la }

// LookaheadTo returns the conservative lookahead of the from->to shard
// channel, or 0 when the pair has no declared channel (or from == to).
func (k *Kernel) LookaheadTo(from, to int) Time {
	v := k.laPair[from*len(k.shards)+to]
	if v == noChannel {
		return 0
	}
	return v
}

// Windows returns the number of synchronization windows (global barrier
// rounds) executed by multi-shard runs so far. Always 0 on a single-shard
// kernel.
//
// Under a saturated workload on a symmetric fabric the round count is a
// policy invariant: the steady-state virtual-time advance per round equals
// the minimum cycle mean of the lookahead matrix (its min-plus eigenvalue),
// and a symmetric matrix's minimum cycle mean is its minimum entry — the
// same advance the global-min policy achieves. The quantity distance-aware
// windows actually shrink is Wakeups.
func (k *Kernel) Windows() uint64 { return k.windows }

// Wakeups returns the total number of per-shard barrier crossings — the sum
// over windows of shards released into that window. This is the real cost of
// conservative synchronization: per released shard, one release and one join
// through its barrier gates (shard 0, which the coordinator runs inline,
// counts as one wakeup too), and a heap re-warmed each round. Under the
// distance-aware matrix, shards whose window limits run far beyond their
// neighbors execute in wide bursts and sit out the rounds in between; under
// the global-min policy every shard with any runnable event is woken every
// round. Always 0 on a single-shard kernel.
func (k *Kernel) Wakeups() uint64 { return k.wakeups }

// SetGlobalMinWindows toggles the windowing-policy ablation: when on, every
// window is the classic global [m, m+min(la)) over the minimum scalar
// lookahead, regardless of the pair matrix — the policy distance-aware
// windows replaced. Results are bit-identical either way (window boundaries
// never affect event keys); only the barrier count and wall-clock change.
// Benchmarks use it to quantify the reduction.
func (k *Kernel) SetGlobalMinWindows(on bool) { k.globalWindows = on }

// Now returns the current virtual time. Between Run/RunUntil calls every
// shard's clock agrees; while a multi-shard window is executing, per-shard
// clocks diverge within the window and Proc.Now/Domain.Now are the
// authoritative local clocks.
func (k *Kernel) Now() Time { return k.shards[0].now }

func (k *Kernel) maxNow() Time {
	t := k.shards[0].now
	for _, sh := range k.shards[1:] {
		if sh.now > t {
			t = sh.now
		}
	}
	return t
}

// Events returns the number of events executed so far (a determinism probe
// and a rough measure of simulation effort), summed deterministically over
// shards. Events that the fast path elides from the heap — a Proc bumping
// the clock for its own wakeup — are counted exactly as if they had been
// queued and popped, so the counter is identical across fast- and slow-path
// executions and across every shard count: the per-shard partition of the
// total varies with the domain-to-shard mapping, the sum never does.
func (k *Kernel) Events() uint64 {
	var n uint64
	for _, sh := range k.shards {
		n += sh.nEvents
	}
	return n
}

// Pending returns the number of events waiting in the timeline: the
// deterministic sum over every shard's heap plus its not-yet-merged inbound
// mailbox. Like Events, the split varies with the shard mapping but the sum
// is mapping-invariant.
func (k *Kernel) Pending() int {
	n := 0
	for _, sh := range k.shards {
		n += sh.heap.len()
		sh.inMu.Lock()
		n += len(sh.inbox)
		sh.inMu.Unlock()
	}
	return n
}

// After schedules fn to run in kernel context d from now, on the default
// domain. fn must not block; it may push to queues, unpark procs, or
// schedule more events.
func (k *Kernel) After(d Time, fn func()) { k.domains[0].After(d, fn) }

// Step executes the next event, if any, and reports whether one ran.
// Procs woken by the event park in the heap for any further time they
// consume, so repeated Step calls interleave exactly like Run. On a
// multi-shard kernel the globally-earliest event (by its canonical key)
// runs, sequentially.
func (k *Kernel) Step() bool {
	if len(k.shards) > 1 {
		return k.stepSharded()
	}
	sh := k.shards[0]
	sh.horizon = noHorizon
	return sh.step()
}

// Run executes events until the timeline is empty. Procs parked on empty
// queues or condition variables do not keep the simulation alive.
func (k *Kernel) Run() {
	if len(k.shards) > 1 {
		k.runSharded()
		return
	}
	sh := k.shards[0]
	sh.horizon = maxHorizon
	for sh.step() {
	}
	sh.horizon = noHorizon
}

// RunUntil executes events with timestamps <= t and then advances the clock
// to exactly t (every shard's clock, on a multi-shard kernel).
func (k *Kernel) RunUntil(t Time) {
	if len(k.shards) > 1 {
		k.runUntilSharded(t)
		return
	}
	sh := k.shards[0]
	sh.horizon = t
	for !sh.heap.empty() && sh.heap.ev[0].at <= t {
		sh.step()
	}
	sh.horizon = noHorizon
	if sh.now < t {
		sh.now = t
	}
}

// RunFor executes events for d of virtual time from now.
func (k *Kernel) RunFor(d Time) { k.RunUntil(k.maxNow() + d) }

// Close kills every live Proc so their coroutines exit, and stops any shard
// worker goroutines. The kernel must be idle (called from outside Run). A
// closed kernel must not be reused.
func (k *Kernel) Close() {
	k.stopWorkers()
	k.procMu.Lock()
	procs := k.procs
	k.procs = nil
	k.procMu.Unlock()
	for _, p := range procs {
		if !p.dead {
			p.stop()
		}
		p.dead = true
	}
	for _, sh := range k.shards {
		sh.heap.ev = nil
		sh.inbox = nil
		sh.ready = nil
	}
}

// LiveProcs returns the number of procs that have started and not finished,
// useful for detecting stuck simulations in tests.
func (k *Kernel) LiveProcs() int {
	k.procMu.Lock()
	defer k.procMu.Unlock()
	n := 0
	for _, p := range k.procs {
		if p.started && !p.dead {
			n++
		}
	}
	return n
}

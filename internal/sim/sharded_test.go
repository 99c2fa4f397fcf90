package sim

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"
	"unsafe"
)

func TestNewShardedValidation(t *testing.T) {
	expectPanic := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		fn()
	}
	expectPanic("NewSharded(0, 10)", func() { NewSharded(0, 10) })
	expectPanic("NewSharded(2, 0)", func() { NewSharded(2, 0) })
	expectPanic("NewSharded(2, -5)", func() { NewSharded(2, -5) })
	// A single shard needs no lookahead: there are no cross-shard sends.
	NewSharded(1, 0).Close()
}

// TestCrossShardZeroLookaheadPanics pins the contract that a cross-shard
// delivery shorter than the kernel's conservative lookahead fails loudly at
// the send, with a message that names the violation, instead of silently
// corrupting the destination shard's timeline.
func TestCrossShardZeroLookaheadPanics(t *testing.T) {
	k := NewSharded(2, 100)
	defer k.Close()
	src := k.NewDomain(0)
	dst := k.NewDomain(1)
	q := NewQueueIn[int](dst)
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("cross-shard PushAfterFrom below lookahead did not panic")
		}
		msg, ok := r.(string)
		if !ok || !strings.Contains(msg, "conservative lookahead") {
			t.Fatalf("panic = %v, want a message naming the conservative lookahead", r)
		}
	}()
	q.PushAfterFrom(src, 99, 1)
}

func TestCrossShardAtLookaheadIsAllowed(t *testing.T) {
	k := NewSharded(2, 100)
	defer k.Close()
	src := k.NewDomain(0)
	dst := k.NewDomain(1)
	q := NewQueueIn[int](dst)
	var got []int
	q.PopFunc(func(v int) { got = append(got, v) })
	q.PushAfterFrom(src, 100, 7) // exactly the lookahead: legal
	q.PushAfterFrom(src, 250, 8)
	k.Run()
	if want := []int{7, 8}; !reflect.DeepEqual(got, want) {
		t.Errorf("delivered %v, want %v", got, want)
	}
}

// TestShardedWorkerPanicPropagates checks that a panic inside a shard worker
// goroutine re-raises on the coordinator at the window barrier.
func TestShardedWorkerPanicPropagates(t *testing.T) {
	k := NewSharded(2, 50)
	defer k.Close()
	d := k.NewDomain(1)
	d.Spawn("bomb", func(p *Proc) {
		p.Advance(10)
		panic("boom")
	})
	defer func() {
		if r := recover(); r != "boom" {
			t.Errorf("recovered %v, want boom", r)
		}
	}()
	k.Run()
	t.Fatal("Run returned without panicking")
}

func TestShardedRunUntilAdvancesAllClocks(t *testing.T) {
	k := NewSharded(3, 50)
	defer k.Close()
	// One flag per domain: events in the same window run concurrently on
	// different shards, so shared test state must be shard-local too.
	fired := make([]bool, 3)
	for i := 0; i < 3; i++ {
		i := i
		d := k.NewDomain(i)
		d.After(500, func() { fired[i] = true })
	}
	count := func() int {
		n := 0
		for _, f := range fired {
			if f {
				n++
			}
		}
		return n
	}
	k.RunUntil(100)
	if n := count(); n != 0 {
		t.Fatalf("%d events at 500 fired during RunUntil(100)", n)
	}
	if k.Now() != 100 || k.maxNow() != 100 {
		t.Fatalf("clocks = %v..%v after RunUntil(100), want 100", k.Now(), k.maxNow())
	}
	k.RunUntil(1000)
	if n := count(); n != 3 {
		t.Fatalf("fired = %d by 1000, want 3", n)
	}
	if k.Now() != 1000 || k.maxNow() != 1000 {
		t.Fatalf("clocks = %v..%v after RunUntil(1000), want 1000", k.Now(), k.maxNow())
	}
}

// shardedScript runs a deterministic pseudo-random message-passing workload —
// nDoms domains ping-ponging over queues with cross-domain delays at or above
// the lookahead — on a kernel with the given shard count, and returns the
// per-domain receive/send traces plus the kernel's counters. The script
// itself never mentions shards: domains are mapped round-robin, so any
// difference in traces or events between shard counts is a determinism bug.
func shardedScript(seed int64, shards, nDoms, steps int) scriptRun {
	const la = 200
	k := NewSharded(shards, la)
	defer k.Close()
	doms := make([]*Domain, nDoms)
	queues := make([]*Queue[int], nDoms)
	traces := make([][]string, nDoms)
	for i := range doms {
		doms[i] = k.NewDomain(i % shards)
		queues[i] = NewQueueIn[int](doms[i])
	}
	for i := range doms {
		i := i
		d := doms[i]
		queues[i].PopFunc(func(v int) {
			traces[i] = append(traces[i], fmt.Sprintf("recv %d@%d", v, d.Now()))
		})
		rng := rand.New(rand.NewSource(seed + int64(i)))
		d.Spawn(fmt.Sprintf("d%d", i), func(p *Proc) {
			for s := 0; s < steps; s++ {
				p.Advance(Time(rng.Intn(150)))
				to := rng.Intn(nDoms)
				// Cross-domain sends keep dur >= la so the schedule is legal
				// under any domain-to-shard mapping; self-sends may be shorter.
				dur := Time(la + rng.Intn(300))
				if to == i {
					dur = Time(rng.Intn(50))
				}
				msg := i*1_000_000 + s
				queues[to].PushAfterFrom(d, dur, msg)
				traces[i] = append(traces[i], fmt.Sprintf("sent %d->%d@%d", msg, to, p.Now()))
			}
		})
	}
	k.Run()
	return scriptRun{traces, k.Events(), k.Windows(), k.Wakeups()}
}

type scriptRun struct {
	traces                   [][]string
	events, windows, wakeups uint64
}

// TestShardedMatchesSingle is the cross-shard ordering property test: for
// random seeds, the same workload must produce byte-identical traces and
// event counts on 1, 2, 3, and 4 shards. This is the kernel-level statement
// of the PR's determinism guarantee — (at, dom, seq) keys are assigned by the
// scheduling domain, so execution order is independent of the shard mapping
// and of goroutine interleaving.
func TestShardedMatchesSingle(t *testing.T) {
	const nDoms, steps = 6, 40
	f := func(seed int64) bool {
		r := shardedScript(seed, 1, nDoms, steps)
		ref, refEvents := r.traces, r.events
		for _, shards := range []int{2, 3, 4} {
			r := shardedScript(seed, shards, nDoms, steps)
			got, gotEvents := r.traces, r.events
			if gotEvents != refEvents {
				t.Logf("seed %d: Events() = %d on %d shards, want %d", seed, gotEvents, shards, refEvents)
				return false
			}
			if !reflect.DeepEqual(got, ref) {
				for i := range ref {
					if !reflect.DeepEqual(got[i], ref[i]) {
						t.Logf("seed %d, %d shards: domain %d trace diverges:\n got %v\nwant %v",
							seed, shards, i, got[i], ref[i])
						break
					}
				}
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
		t.Error(err)
	}
}

// TestShardedStepMatchesRun checks that single-stepping a multi-shard kernel
// executes the same global event order as Run on one shard.
func TestShardedStepMatchesRun(t *testing.T) {
	trace := func(step bool) []string {
		var out []string
		shards := 1
		if step {
			shards = 3
		}
		k := NewSharded(shards, 100)
		defer k.Close()
		for i := 0; i < 3; i++ {
			i := i
			d := k.NewDomain(i % shards)
			for j := 0; j < 4; j++ {
				j := j
				d.After(Time(100*j+10*i), func() {
					out = append(out, fmt.Sprintf("d%d.%d@%d", i, j, d.Now()))
				})
			}
		}
		if step {
			for k.Step() {
			}
		} else {
			k.Run()
		}
		return out
	}
	ref, got := trace(false), trace(true)
	if !reflect.DeepEqual(got, ref) {
		t.Errorf("stepped 3-shard trace = %v, want %v", got, ref)
	}
}

func TestNewShardedMatrixValidation(t *testing.T) {
	expectPanic := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		fn()
	}
	expectPanic("empty matrix", func() { NewShardedMatrix(nil) })
	expectPanic("ragged matrix", func() {
		NewShardedMatrix([][]Time{{0, 10}, {10}})
	})
	// Entries <= 0 off the diagonal declare "no channel"; the kernel is
	// valid, but a send over the missing channel fails loudly.
	k := NewShardedMatrix([][]Time{{0, 100}, {0, 0}})
	defer k.Close()
	if got := k.LookaheadTo(0, 1); got != 100 {
		t.Errorf("LookaheadTo(0,1) = %v, want 100", got)
	}
	if got := k.LookaheadTo(1, 0); got != 0 {
		t.Errorf("LookaheadTo(1,0) = %v, want 0 (no channel)", got)
	}
	src := k.NewDomain(1)
	dst := k.NewDomain(0)
	q := NewQueueIn[int](dst)
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("send over an undeclared channel did not panic")
		}
		if msg, ok := r.(string); !ok || !strings.Contains(msg, "no channel") {
			t.Fatalf("panic = %v, want a message naming the missing channel", r)
		}
	}()
	q.PushAfterFrom(src, 1_000_000, 1)
}

// TestMatrixWindowsFewerThanGlobalMin pins the windowing win on a kernel
// whose lookahead matrix is genuinely asymmetric: two busy shards coupled by
// a fast 0->1 channel and a slow 1->0 channel. The global-min policy must
// barrier every min-entry (100) of virtual time; the distance-aware limits
// advance at the matrix's min cycle mean ((100+1000)/2 = 550), so the same
// script runs in a fraction of the rounds — with a byte-identical trace.
func TestMatrixWindowsFewerThanGlobalMin(t *testing.T) {
	// Traces are kept per domain: events in the same window run concurrently
	// on different shards, so shared test state must be shard-local.
	type res struct {
		traces [2][]string
		w      uint64
	}
	runSep := func(globalMin bool) res {
		k := NewShardedMatrix([][]Time{{0, 100}, {1000, 0}})
		defer k.Close()
		k.SetGlobalMinWindows(globalMin)
		var r res
		for i := 0; i < 2; i++ {
			i := i
			d := k.NewDomain(i)
			d.Spawn(fmt.Sprintf("d%d", i), func(p *Proc) {
				for s := 0; s < 100; s++ {
					p.Advance(100)
					r.traces[i] = append(r.traces[i], fmt.Sprintf("d%d.%d@%d", i, s, p.Now()))
				}
			})
		}
		k.Run()
		r.w = k.Windows()
		return r
	}
	m, g := runSep(false), runSep(true)
	if !reflect.DeepEqual(m.traces, g.traces) {
		t.Fatalf("traces diverge between windowing policies:\nmatrix %v\nglobal %v", m.traces, g.traces)
	}
	if m.w >= g.w {
		t.Errorf("matrix windows = %d, want fewer than global-min %d", m.w, g.w)
	}
	if g.w < 50 {
		t.Errorf("global-min windows = %d, want ~100 (min-entry pacing)", g.w)
	}
	t.Logf("windows: matrix=%d global-min=%d", m.w, g.w)
}

// domainFloorMatrix derives a deterministic pseudo-random per-domain-pair
// delivery floor matrix from seed. Floors only depend on the domain pair —
// never on the shard count — so folding them to any shard mapping yields a
// kernel the same script is legal on.
func domainFloorMatrix(seed int64, nDoms int) [][]Time {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	f := make([][]Time, nDoms)
	for i := range f {
		f[i] = make([]Time, nDoms)
		for j := range f[i] {
			if i != j {
				f[i][j] = Time(50 + rng.Intn(400))
			}
		}
	}
	return f
}

// foldFloors folds the per-domain floor matrix to a per-shard lookahead
// matrix under the round-robin mapping domain i -> shard i%shards: each
// shard pair's lookahead is the minimum floor over its domain pairs, exactly
// how core.NewDeployment folds island wire floors.
func foldFloors(f [][]Time, shards int) [][]Time {
	la := make([][]Time, shards)
	for a := range la {
		la[a] = make([]Time, shards)
	}
	for i := range f {
		for j := range f[i] {
			a, b := i%shards, j%shards
			if a == b || i == j {
				continue
			}
			if la[a][b] == 0 || f[i][j] < la[a][b] {
				la[a][b] = f[i][j]
			}
		}
	}
	return la
}

// shardedMatrixScript is shardedScript on a random per-domain floor matrix:
// domains ping-pong with delays at or above their pair floor, on a kernel
// built from the folded shard matrix, under either windowing policy.
func shardedMatrixScript(seed int64, shards int, globalMin bool, nDoms, steps int) (traces [][]string, events, windows uint64) {
	f := domainFloorMatrix(seed, nDoms)
	k := NewShardedMatrix(foldFloors(f, shards))
	defer k.Close()
	k.SetGlobalMinWindows(globalMin)
	doms := make([]*Domain, nDoms)
	queues := make([]*Queue[int], nDoms)
	traces = make([][]string, nDoms)
	for i := range doms {
		doms[i] = k.NewDomain(i % shards)
		queues[i] = NewQueueIn[int](doms[i])
	}
	for i := range doms {
		i := i
		d := doms[i]
		queues[i].PopFunc(func(v int) {
			traces[i] = append(traces[i], fmt.Sprintf("recv %d@%d", v, d.Now()))
		})
		rng := rand.New(rand.NewSource(seed + int64(i)))
		d.Spawn(fmt.Sprintf("d%d", i), func(p *Proc) {
			for s := 0; s < steps; s++ {
				p.Advance(Time(rng.Intn(150)))
				to := rng.Intn(nDoms)
				// Delays respect the DOMAIN pair floor, which is >= the
				// folded shard pair lookahead under every mapping.
				dur := f[i][to] + Time(rng.Intn(300))
				if to == i {
					dur = Time(rng.Intn(50))
				}
				msg := i*1_000_000 + s
				queues[to].PushAfterFrom(d, dur, msg)
				traces[i] = append(traces[i], fmt.Sprintf("sent %d->%d@%d", msg, to, p.Now()))
			}
		})
	}
	k.Run()
	return traces, k.Events(), k.Windows()
}

// TestShardedMatrixMatchesSingle extends TestShardedMatchesSingle to random
// floor topologies: for random seeds, the same workload on a random
// per-domain floor matrix must produce byte-identical traces and event
// counts on 1, 2, and 4 shards, under both the distance-aware windowing
// policy and the global-min ablation — and the distance-aware policy must
// never run more windows than the ablation.
func TestShardedMatrixMatchesSingle(t *testing.T) {
	const nDoms, steps = 8, 40
	f := func(seed int64) bool {
		ref, refEvents, _ := shardedMatrixScript(seed, 1, false, nDoms, steps)
		for _, shards := range []int{2, 4} {
			var prevWindows uint64
			for _, globalMin := range []bool{false, true} {
				got, gotEvents, windows := shardedMatrixScript(seed, shards, globalMin, nDoms, steps)
				if gotEvents != refEvents {
					t.Logf("seed %d, %d shards, globalMin=%v: Events() = %d, want %d",
						seed, shards, globalMin, gotEvents, refEvents)
					return false
				}
				if !reflect.DeepEqual(got, ref) {
					t.Logf("seed %d, %d shards, globalMin=%v: traces diverge", seed, shards, globalMin)
					return false
				}
				if globalMin {
					if prevWindows > windows {
						t.Logf("seed %d, %d shards: matrix windows %d > global-min windows %d",
							seed, shards, prevWindows, windows)
						return false
					}
				} else {
					prevWindows = windows
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 8}); err != nil {
		t.Error(err)
	}
}

// withGOMAXPROCS runs fn at the given GOMAXPROCS and restores the previous
// setting afterwards.
func withGOMAXPROCS(n int, fn func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(n))
	fn()
}

// TestShardedOversubscribed runs the ping-pong script with more shards than
// GOMAXPROCS — 8 shards on one P, 16 on two — where the window barrier must
// park instead of spin. Each run must finish with the 1-shard traces and
// event count, and with the same Windows and Wakeups as that shard count
// at the default GOMAXPROCS: both are virtual-time counters.
func TestShardedOversubscribed(t *testing.T) {
	const seed, nDoms, steps = 7, 16, 40
	ref := shardedScript(seed, 1, nDoms, steps)
	for _, c := range []struct{ procs, shards int }{{1, 8}, {2, 16}} {
		want := shardedScript(seed, c.shards, nDoms, steps)
		var got scriptRun
		withGOMAXPROCS(c.procs, func() { got = shardedScript(seed, c.shards, nDoms, steps) })
		if got.events != ref.events || !reflect.DeepEqual(got.traces, ref.traces) {
			t.Errorf("GOMAXPROCS=%d, %d shards: events %d, traces equal %v; want the 1-shard run (events %d)",
				c.procs, c.shards, got.events, reflect.DeepEqual(got.traces, ref.traces), ref.events)
		}
		if got.windows != want.windows || got.wakeups != want.wakeups {
			t.Errorf("GOMAXPROCS=%d, %d shards: windows/wakeups = %d/%d, want %d/%d",
				c.procs, c.shards, got.windows, got.wakeups, want.windows, want.wakeups)
		}
		if got.windows == 0 {
			t.Errorf("GOMAXPROCS=%d, %d shards: no windows ran", c.procs, c.shards)
		}
	}
}

// awaitGoroutines waits until runtime.NumGoroutine is back to base, failing
// the test if it is not within a few seconds.
func awaitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after Close, want <= %d", runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}

// bombs returns a kernel with two shards whose domains panic with their
// shard's name at virtual time 10, inside the first window; only the
// shards listed in panicking panic, the others finish normally.
func bombs(panicking ...int) *Kernel {
	k := NewSharded(2, 50)
	for sh := 0; sh < 2; sh++ {
		name := fmt.Sprintf("boom%d", sh)
		bomb := slices.Contains(panicking, sh)
		k.NewDomain(sh).Spawn(name, func(p *Proc) {
			p.Advance(10)
			if bomb {
				panic(name)
			}
			p.Advance(100)
		})
	}
	return k
}

// TestShardedPanicTeardown pins the window barrier's failure and teardown
// contract on both barrier paths — GOMAXPROCS 1, where waiters park, and 2,
// where they spin: a panic on shard 0, which the coordinator runs inline,
// re-raises from Run; panics on shards 0 and 1 in the same window surface
// shard 0's; and after a recovered panic or a plain RunUntil, Close stops
// every worker so the goroutine count returns to its baseline.
func TestShardedPanicTeardown(t *testing.T) {
	run := func(k *Kernel) (r any) {
		defer func() { r = recover() }()
		k.Run()
		return nil
	}
	for _, procs := range []int{1, 2} {
		withGOMAXPROCS(procs, func() {
			for _, c := range []struct {
				panicking []int
				want      string
			}{{[]int{0}, "boom0"}, {[]int{1}, "boom1"}, {[]int{0, 1}, "boom0"}} {
				base := runtime.NumGoroutine()
				k := bombs(c.panicking...)
				if r := run(k); r != c.want {
					t.Errorf("GOMAXPROCS=%d, panics on shards %v: Run raised %v, want %s", procs, c.panicking, r, c.want)
				}
				k.Close()
				awaitGoroutines(t, base)
			}
			base := runtime.NumGoroutine()
			k := bombs()
			k.RunUntil(50)
			k.Close()
			awaitGoroutines(t, base)
		})
	}
}

// TestShardLayout pins the cache-line layout of the kernel's hot words:
// each shard's groups start on their own line, and a shard, a gate and a
// Domain are whole lines, so neighbors in memory never share one.
func TestShardLayout(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("layout is sized for 64-bit words")
	}
	var sh shard
	for _, c := range []struct {
		name      string
		got, want uintptr
	}{
		{"offset of k", unsafe.Offsetof(sh.k), cacheLine},
		{"offset of rel", unsafe.Offsetof(sh.rel), 2 * cacheLine},
		{"offset of fin", unsafe.Offsetof(sh.fin), 3 * cacheLine},
		{"offset of released", unsafe.Offsetof(sh.released), 4 * cacheLine},
		{"size of shard", unsafe.Sizeof(sh), 5 * cacheLine},
		{"size of gate", unsafe.Sizeof(gate{}), cacheLine},
		{"size of Domain", unsafe.Sizeof(Domain{}), cacheLine},
	} {
		if c.got != c.want {
			t.Errorf("%s = %d, want %d", c.name, c.got, c.want)
		}
	}
}

// TestGateStalePost replays, step by step, the interleaving a parked flag
// gets wrong: post(n) has stored the word, the waiter's wait(n) sees it and
// returns on its own, and the waiter parks again for n+1 before post(n)
// reads parked. Re-posting n stands for the rest of that post. It must not
// wake the wait for n+1; only post(n+1) may.
func TestGateStalePost(t *testing.T) {
	var g gate
	g.wake = make(chan struct{}, 1)
	const n = 5
	g.word.Store(n)
	g.wait(n, false)
	woke := make(chan struct{})
	go func() {
		g.wait(n+1, false)
		close(woke)
	}()
	for g.parked.Load() == 0 {
		runtime.Gosched()
	}
	g.post(n)
	select {
	case <-woke:
		t.Fatal("a stale post of n woke the wait for n+1")
	case <-time.After(20 * time.Millisecond):
	}
	g.post(n + 1)
	select {
	case <-woke:
	case <-time.After(time.Minute):
		t.Fatal("post(n+1) did not wake the wait for n+1")
	}
}

// TestGateHandoff drives one gate pair the way the window barrier does — a
// coordinator posts rel and waits on fin, a worker waits on rel, does the
// window's work and posts fin — for many rounds with the spin flag drawn at
// random, and checks that no wait returns before its post and no post is
// lost. Either failure leaves the gates a round apart and hangs the
// coordinator, so the rounds run under a deadline.
func TestGateHandoff(t *testing.T) {
	const rounds = 20000
	for _, procs := range []int{2, 4} {
		withGOMAXPROCS(procs, func() {
			var rel, fin gate
			rel.wake = make(chan struct{}, 1)
			fin.wake = make(chan struct{}, 1)
			spin := make([]bool, rounds+2)
			rng := rand.New(rand.NewSource(int64(procs)))
			for i := range spin {
				spin[i] = rng.Intn(2) == 0
			}
			var early atomic.Uint64
			go func() {
				for n := uint64(1); n <= rounds; n++ {
					rel.wait(n, spin[n])
					if rel.word.Load() != n {
						early.Store(n)
					}
					fin.post(n)
				}
			}()
			joined := make(chan struct{})
			go func() {
				defer close(joined)
				for n := uint64(1); n <= rounds && early.Load() == 0; n++ {
					rel.post(n)
					fin.wait(n, spin[n+1])
				}
			}()
			select {
			case <-joined:
			case <-time.After(time.Minute):
				t.Fatalf("GOMAXPROCS=%d: barrier hung; worker woke early in round %d", procs, early.Load())
			}
			if n := early.Load(); n != 0 {
				t.Fatalf("GOMAXPROCS=%d: worker's wait for round %d returned before its post", procs, n)
			}
		})
	}
}

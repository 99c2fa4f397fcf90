package sim

import "testing"

// BenchmarkKernelWake measures the schedule->wake cycle of a single Proc
// consuming virtual time with nothing else runnable: the kernel-context fast
// path, where Advance bumps the clock inline. Must report 0 allocs/op.
func BenchmarkKernelWake(b *testing.B) {
	k := NewKernel()
	defer k.Close()
	k.Spawn("w", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Advance(1)
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	k.Run()
	b.ReportMetric(float64(k.Events())/b.Elapsed().Seconds(), "events/s")
}

// BenchmarkKernelWakeContended measures the same cycle with a second Proc
// interleaving at every timestamp, forcing the slow path: every Advance
// parks in the timer heap and transfers control through the kernel.
func BenchmarkKernelWakeContended(b *testing.B) {
	k := NewKernel()
	defer k.Close()
	for w := 0; w < 2; w++ {
		k.Spawn("w", func(p *Proc) {
			for i := 0; i < b.N; i++ {
				p.Advance(1)
			}
		})
	}
	b.ReportAllocs()
	b.ResetTimer()
	k.Run()
	b.ReportMetric(float64(k.Events())/b.Elapsed().Seconds(), "events/s")
}

// BenchmarkKernelHandoffDeep measures Proc-to-Proc handoffs at a realistic
// heap depth: 64 Procs advance by xorshift-random delays, so almost every
// Advance finds another Proc due first and hands off to it with 63 wakes
// pending. One op is one Advance.
func BenchmarkKernelHandoffDeep(b *testing.B) {
	const procs = 64
	k := NewKernel()
	defer k.Close()
	per := (b.N + procs - 1) / procs
	for w := 0; w < procs; w++ {
		x := uint64(w)*0x9E3779B97F4A7C15 + 1
		k.Spawn("w", func(p *Proc) {
			for i := 0; i < per; i++ {
				x ^= x << 13
				x ^= x >> 7
				x ^= x << 17
				p.Advance(Time(x % 64))
			}
		})
	}
	b.ReportAllocs()
	b.ResetTimer()
	k.Run()
	b.ReportMetric(float64(k.Events())/b.Elapsed().Seconds(), "events/s")
}

// BenchmarkQueueHandoff measures a producer/consumer pair exchanging items
// through a Queue: Push/unpark on one side, Pop/park on the other.
func BenchmarkQueueHandoff(b *testing.B) {
	k := NewKernel()
	defer k.Close()
	q := NewQueue[int](k)
	k.Spawn("producer", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			q.Push(i)
			p.Advance(1)
		}
	})
	k.Spawn("consumer", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			q.Pop(p)
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	k.Run()
	b.ReportMetric(float64(k.Events())/b.Elapsed().Seconds(), "events/s")
}

// BenchmarkQueuePopFunc measures the kernel-context consumer path: delivery
// runs the callback synchronously inside Push, with no Proc at all.
func BenchmarkQueuePopFunc(b *testing.B) {
	k := NewKernel()
	defer k.Close()
	q := NewQueue[int](k)
	sum := 0
	q.PopFunc(func(v int) { sum += v })
	k.Spawn("producer", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			q.Push(i)
			p.Advance(1)
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	k.Run()
	b.ReportMetric(float64(k.Events())/b.Elapsed().Seconds(), "events/s")
}

// BenchmarkTimerHeap measures raw event scheduling and dispatch through the
// 4-ary heap at a steady queue depth of 1024 timers, with no Procs involved.
func BenchmarkTimerHeap(b *testing.B) {
	k := NewKernel()
	defer k.Close()
	const depth = 1024
	fired := 0
	var tick func()
	tick = func() {
		if fired < b.N {
			fired++
			k.After(Time(1+fired%7), tick)
		}
	}
	for i := 0; i < depth && i < b.N; i++ {
		fired++
		k.After(Time(1+i%7), tick)
	}
	b.ReportAllocs()
	b.ResetTimer()
	k.Run()
	b.ReportMetric(float64(k.Events())/b.Elapsed().Seconds(), "events/s")
}

// BenchmarkPushAfter measures deferred queue delivery (the IPC wire-latency
// path): slot-parked values dispatched by pre-bound kernel callbacks.
func BenchmarkPushAfter(b *testing.B) {
	k := NewKernel()
	defer k.Close()
	q := NewQueue[int](k)
	k.Spawn("echo", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			q.PushAfter(3, i)
			q.Pop(p)
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	k.Run()
	b.ReportMetric(float64(k.Events())/b.Elapsed().Seconds(), "events/s")
}

// BenchmarkKernelShardedWindows measures the windowed parallel driver: 16
// domains of 5 xorshift Procs each, round-robin over 2 shards, with no
// cross-shard traffic, so every window releases both shards and the cost is
// the per-event work plus one barrier per window. One op is one Advance.
func BenchmarkKernelShardedWindows(b *testing.B) {
	const doms, procsPer = 16, 5
	k := NewSharded(2, 1000)
	defer k.Close()
	per := (b.N + doms*procsPer - 1) / (doms * procsPer)
	for d := 0; d < doms; d++ {
		dom := k.NewDomain(d % 2)
		for w := 0; w < procsPer; w++ {
			x := uint64(d*procsPer+w)*0x9E3779B97F4A7C15 + 1
			dom.Spawn("w", func(p *Proc) {
				for i := 0; i < per; i++ {
					x ^= x << 13
					x ^= x >> 7
					x ^= x << 17
					p.Advance(Time(x % 64))
				}
			})
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	k.Run()
	b.ReportMetric(float64(k.Events())/b.Elapsed().Seconds(), "events/s")
}

package sim

import "testing"

// Kernel micro-benchmarks: everything in the repository ultimately turns
// into events on this queue.

func BenchmarkScheduleAndRun(b *testing.B) {
	k := NewKernel(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		k.Schedule(Time(i%1000), func() {})
		if i%1024 == 1023 {
			k.Run()
		}
	}
	k.Run()
}

func BenchmarkTimerChurn(b *testing.B) {
	k := NewKernel(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		t := k.Schedule(1000, func() {})
		t.Stop()
		if i%4096 == 4095 {
			k.Run() // drain canceled events
		}
	}
}

func BenchmarkCPUWorkItems(b *testing.B) {
	k := NewKernel(1)
	c := NewCPU(k)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Do(100, func() {})
		if i%1024 == 1023 {
			k.Run()
		}
	}
	k.Run()
}

// BenchmarkTickerTicks measures the steady-state cost of one tick of a
// persistent Ticker. The guardrail is the allocs/op column: re-arming
// must reuse the ticker's bound callback and a pooled event (0 allocs),
// not mint a closure per tick.
func BenchmarkTickerTicks(b *testing.B) {
	k := NewKernel(1)
	ticks := 0
	tk := k.NewTicker(10, func() { ticks++ })
	defer tk.Stop()
	b.ReportAllocs()
	b.ResetTimer()
	for ticks < b.N {
		k.Step()
	}
}

// BenchmarkEventThroughput reports raw kernel events/sec for a
// self-sustaining chain: each event schedules its successor, so the
// queue stays warm and the measurement isolates pop + dispatch + pooled
// re-push.
func BenchmarkEventThroughput(b *testing.B) {
	k := NewKernel(1)
	n := 0
	var fn func()
	fn = func() {
		n++
		if n < b.N {
			k.Schedule(1, fn)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	k.Schedule(1, fn)
	k.Run()
}

// BenchmarkEventThroughputDeep is BenchmarkEventThroughput with 1024
// chains in flight at scattered delays, so every pop sifts through a
// queue about ten binary levels deep — the shape a busy cluster gives
// the kernel (timers, CPU work items and frames in flight on every
// device). It is the benchmark the queue's arity was chosen from.
func BenchmarkEventThroughputDeep(b *testing.B) {
	const chains = 1024
	k := NewKernel(1)
	n := 0
	var x uint32 = 1
	var fn func()
	fn = func() {
		n++
		if n < b.N {
			x = x*1664525 + 1013904223 // LCG: deterministic scattered delays
			k.Schedule(Time(1+x>>22), fn)
		}
	}
	for i := 0; i < chains; i++ {
		k.Schedule(Time(i), fn)
	}
	b.ReportAllocs()
	b.ResetTimer()
	k.Run()
}

// Package sim provides the deterministic discrete-event simulation
// kernel that every other subsystem runs on: a virtual clock, an event
// queue, cancellable timers, a seeded random source, and a serializing
// CPU resource used to model host processing costs. It is the bottom of
// the layer stack — simnet builds links on it, devices (rnic, tofino)
// build on those, and everything above is ordinary code scheduled on
// the kernel's clock.
//
// All state in a Kernel is confined to a single goroutine: callers
// schedule closures and then drive the kernel with Run, RunUntil or
// Step. Separate Kernel instances are fully independent, so tests and
// benchmarks may run many simulations in parallel.
//
// # Determinism
//
// Events execute strictly by (time, seq) with FIFO tie-breaking (by
// (time, domain, seq) in a partitioned Group), and
// the only random source is the kernel's seeded one, so identical
// builds and seeds replay identically; Processed() is the fingerprint
// tests compare. The one rule components must follow: never iterate a
// Go map while emitting events — sort the keys first.
//
// # Event queue
//
// Each scheduler keeps its pending events in a 4-ary min-heap of slots
// that hold the (time, domain, seq) key inline next to the event
// record, so sifting never dereferences a record or calls through an
// interface. The key is a strict total order, so the pop sequence is a
// function of the keys alone: heap shape, push order and compaction of
// canceled timers cannot change it. Records carry no heap position; a
// popped record is released at once and its generation bumped, which
// is all a Timer handle needs to tell "still queued" from "gone".
//
// The same O(1)-per-event rule holds above the kernel. The replica log
// consumer in package mu follows it too: poll inspects only the
// expected slot, and the CRC runs only on a candidate.
//
// # Ownership and pooling
//
// The kernel is built for a zero-allocation steady state: event records
// are recycled through a free list (so schedule/cancel churn such as a
// NIC re-arming its retransmission timer on every ACK does not grow the
// heap), ScheduleArg/AtArg let hot paths run a persistent callback with
// a per-call argument instead of allocating a closure, and the shared
// Buffers pool recycles wire frames and payload scratch. A buffer
// obtained from Buffers().Get belongs to the taker until it calls Put;
// putting a buffer that someone else still aliases is the pool's one
// cardinal sin (see the roce payload contract).
package sim

package sim

import (
	"fmt"
	"math/rand"

	"p4ce/internal/metrics"
	"p4ce/internal/otrace"
)

// Time is a simulated instant, measured in nanoseconds since the start of
// the simulation. It is deliberately distinct from time.Time: simulated
// time only advances when the kernel processes events.
type Time int64

// Duration constants for simulated time.
const (
	Nanosecond  Time = 1
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

// String formats the time with a unit suited to its magnitude.
func (t Time) String() string {
	switch {
	case t >= Second:
		return fmt.Sprintf("%.3fs", float64(t)/float64(Second))
	case t >= Millisecond:
		return fmt.Sprintf("%.3fms", float64(t)/float64(Millisecond))
	case t >= Microsecond:
		return fmt.Sprintf("%.3fµs", float64(t)/float64(Microsecond))
	default:
		return fmt.Sprintf("%dns", int64(t))
	}
}

// Seconds returns the time as a floating-point number of seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// event is a single scheduled callback. Its ordering key lives inline
// in the queue slot (qent), not here. Events are pooled: once popped
// (executed or canceled) the record goes back on the scheduler's free
// list and its gen counter is bumped, which invalidates any Timer handle
// still pointing at it.
type event struct {
	gen uint64 // recycle generation, guards stale Timer handles
	// Exactly one of fn / afn / bfn is set. afn runs with arg, letting
	// hot paths reuse a persistent callback instead of allocating a
	// closure per schedule; bfn additionally carries a byte slice so
	// frame deliveries cross partitions without boxing the slice.
	fn       func()
	afn      func(any)
	arg      any
	bfn      func(any, []byte)
	buf      []byte
	k        *Kernel // run domain: its clock advances to the slot's at when the event fires
	canceled bool
}

// qent is one event-queue slot: the event's (at, dom, seq) key held
// inline next to the record pointer, so sifting compares keys without
// dereferencing a record.
type qent struct {
	at  Time
	seq uint64 // per-domain tie-breaker: FIFO among same-domain events at one instant
	dom int32  // scheduling domain; ties at the same instant break by (dom, seq)
	ev  *event
}

// before orders queue slots by (at, dom, seq). For a standalone kernel
// every event carries dom 0, so the order degenerates to the classic
// (at, seq) FIFO; in a partitioned Group the triple is a strict total
// order over all events of the simulation that depends only on where an
// event was *scheduled* (domain), never on how domains are packed into
// partitions — which is what makes same-seed runs bit-identical across
// partition counts.
func (a *qent) before(b *qent) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	if a.dom != b.dom {
		return a.dom < b.dom
	}
	return a.seq < b.seq
}

// queueArity is the fan-out of the event queue's implicit d-ary heap.
// Four children per node halve the depth of a binary heap, and the
// children of one node sit in one 128-byte run of slots. On
// BenchmarkEventThroughput and BenchmarkEventThroughputDeep the two
// arities measure within noise of each other, with 4 ahead in most
// alternated runs.
const queueArity = 4

// eventQueue is a d-ary min-heap of queue slots. Because before is a
// strict total order, the pop sequence is a pure function of the set of
// keys pushed, whatever the push order or heap shape.
type eventQueue []qent

// push inserts x.
func (q *eventQueue) push(x qent) {
	h := append(*q, x)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / queueArity
		if !x.before(&h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = x
	*q = h
}

// pop removes and returns the minimum slot. The queue must be non-empty.
func (q *eventQueue) pop() qent {
	h := *q
	top := h[0]
	n := len(h) - 1
	last := h[n]
	h[n] = qent{}
	h = h[:n]
	if n > 0 {
		h.siftDown(0, last)
	}
	*q = h
	return top
}

// siftDown places x at or below slot i, moving smaller children up.
func (h eventQueue) siftDown(i int, x qent) {
	n := len(h)
	for {
		c := queueArity*i + 1
		if c >= n {
			break
		}
		m := c
		end := c + queueArity
		if end > n {
			end = n
		}
		for j := c + 1; j < end; j++ {
			if h[j].before(&h[m]) {
				m = j
			}
		}
		if !h[m].before(&x) {
			break
		}
		h[i] = h[m]
		i = m
	}
	h[i] = x
}

// heapify restores the heap property over arbitrary contents.
func (h eventQueue) heapify() {
	if len(h) < 2 {
		return
	}
	for i := (len(h) - 2) / queueArity; i >= 0; i-- {
		h.siftDown(i, h[i])
	}
}

// compactThreshold is the minimum heap size before cancel-compaction is
// considered; below it the canceled residue is too small to matter.
const compactThreshold = 64

// sched is the per-partition scheduler: the event heap, the recycled
// record pool, and the bookkeeping counters. A standalone Kernel owns a
// private sched; in a Group every domain kernel of the same partition
// shares one, so the partition's worker goroutine is the only toucher
// during a run (the coordinator touches it only between windows, after
// a barrier, which establishes the necessary happens-before edges).
type sched struct {
	events    eventQueue
	free      []*event // recycled event records
	live      int      // scheduled and not canceled
	ncanceled int      // canceled events still resident in the heap
	processed uint64
	stopped   bool
	// out holds cross-partition events produced during the current
	// window, one mailbox per destination partition. Nil for a
	// standalone kernel. The coordinator drains every mailbox between
	// windows, so ordering is a pure function of the event keys.
	out [][]xev
}

// xev is a cross-partition event in flight: the full (at, dom, seq) key
// assigned at schedule time plus the callback. Because the key is fixed
// by the sender, delivery order in the destination heap is a
// deterministic function of (time, source domain, sequence) and never of
// goroutine scheduling.
type xev struct {
	at  Time
	dom int32
	seq uint64
	k   *Kernel
	fn  func()
	afn func(any)
	arg any
	bfn func(any, []byte)
	buf []byte
}

// alloc returns a fresh or recycled event record.
func (sc *sched) alloc() *event {
	if n := len(sc.free); n > 0 {
		ev := sc.free[n-1]
		sc.free[n-1] = nil
		sc.free = sc.free[:n-1]
		return ev
	}
	return &event{}
}

// release returns a popped event record to the free list. Bumping gen
// here is what makes stale Timer handles inert.
func (sc *sched) release(ev *event) {
	ev.gen++
	ev.fn = nil
	ev.afn = nil
	ev.arg = nil
	ev.bfn = nil
	ev.buf = nil
	ev.k = nil
	ev.canceled = false
	sc.free = append(sc.free, ev)
}

// step executes the single next event in this partition, advancing the
// run domain's clock to its timestamp. It reports whether an event was
// executed.
func (sc *sched) step() bool {
	for len(sc.events) > 0 {
		top := sc.events.pop()
		ev := top.ev
		if ev.canceled {
			sc.ncanceled--
			sc.release(ev)
			continue
		}
		sc.live--
		ev.k.now = top.at
		sc.processed++
		// Copy the callback out and recycle the record before invoking
		// it, so the callback's own scheduling can reuse it.
		fn, afn, arg, bfn, buf := ev.fn, ev.afn, ev.arg, ev.bfn, ev.buf
		sc.release(ev)
		switch {
		case bfn != nil:
			bfn(arg, buf)
		case afn != nil:
			afn(arg)
		default:
			fn()
		}
		return true
	}
	return false
}

// peek returns the timestamp of the next non-canceled event.
func (sc *sched) peek() (Time, bool) {
	if q := sc.head(); q != nil {
		return q.at, true
	}
	return 0, false
}

// head returns the queue slot of the next non-canceled event without
// popping it, discarding canceled slots on the way. The pointer is
// valid until the queue next changes.
func (sc *sched) head() *qent {
	for len(sc.events) > 0 {
		if !sc.events[0].ev.canceled {
			return &sc.events[0]
		}
		sc.ncanceled--
		sc.release(sc.events.pop().ev)
	}
	return nil
}

// compact drops canceled events once they outnumber the live ones, so a
// stopped long-deadline timer (a retransmission timeout re-armed on
// every ACK, say) does not pin heap memory until its deadline. Filtering
// preserves each survivor's (at, dom, seq) key, and re-heapifying cannot
// change pop order — the comparator is a strict total order on those
// keys — so compaction is invisible to a seeded run.
func (sc *sched) compact() {
	kept := sc.events[:0]
	for _, q := range sc.events {
		if q.ev.canceled {
			sc.release(q.ev)
			continue
		}
		kept = append(kept, q)
	}
	// Clear the tail so dropped records do not linger in the backing array.
	clear(sc.events[len(kept):])
	sc.events = kept
	sc.ncanceled = 0
	sc.events.heapify()
}

// Kernel is a discrete-event simulation driver and, in a partitioned
// Group, the identity of one scheduling domain (its clock, sequence
// counter, random stream and buffer pool). The zero value is not usable;
// construct with NewKernel, or obtain domain kernels from NewGroup.
type Kernel struct {
	now     Time
	seq     uint64
	dom     int32
	rng     *rand.Rand
	metrics *metrics.Registry
	tracer  *otrace.Tracer
	bufs    Buffers
	sc      *sched // partition scheduler (private for a standalone kernel)
	g       *Group // nil for a standalone kernel
	part    int    // partition index within the group (0 standalone)
}

// NewKernel returns a standalone kernel whose clock reads zero and whose
// random source is seeded with seed, so identical schedules replay
// identically.
func NewKernel(seed int64) *Kernel {
	return &Kernel{rng: rand.New(rand.NewSource(seed)), sc: &sched{}}
}

// Now returns the current simulated time of this kernel's domain.
func (k *Kernel) Now() Time { return k.now }

// Domain returns the kernel's scheduling-domain index (0 for a
// standalone kernel and for the fabric domain of a Group).
func (k *Kernel) Domain() int { return int(k.dom) }

// Group returns the partitioned group this kernel belongs to, or nil for
// a standalone kernel.
func (k *Kernel) Group() *Group { return k.g }

// SetMetrics attaches a metrics registry. Components built on this
// kernel resolve their instrument handles from it at construction, so
// attach the registry before wiring up devices. A nil registry (the
// default) disables collection entirely.
func (k *Kernel) SetMetrics(r *metrics.Registry) { k.metrics = r }

// Metrics returns the attached registry, or nil when disabled. The nil
// registry is safe to use: it hands out nil no-op handles.
func (k *Kernel) Metrics() *metrics.Registry { return k.metrics }

// SetTracer attaches the causal operation tracer. Like SetMetrics,
// attach it before wiring up devices: components register their trace
// components at construction. A nil tracer (the default) disables
// tracing; every otrace method is a no-op on it.
func (k *Kernel) SetTracer(t *otrace.Tracer) { k.tracer = t }

// Tracer returns the attached operation tracer, or nil when disabled.
func (k *Kernel) Tracer() *otrace.Tracer { return k.tracer }

// Rand returns this domain's deterministic random source. In a Group
// every domain kernel carries its own stream, derived from the root
// seed and the domain index, so draws on one domain never perturb
// another and the sequence seen by a domain is independent of how many
// partitions the group runs on.
func (k *Kernel) Rand() *rand.Rand { return k.rng }

// Buffers returns this domain's frame buffer pool. Devices of one
// domain share it; a frame that crosses domains is released into the
// receiving domain's pool (any pool accepts any class-sized slice, and
// Get zeroes, so migration is harmless).
func (k *Kernel) Buffers() *Buffers { return &k.bufs }

// Processed reports how many events have executed so far. On a grouped
// kernel it aggregates across all partitions; see Group.Processed for
// the memory-ordering contract.
func (k *Kernel) Processed() uint64 {
	if k.g != nil {
		return k.g.Processed()
	}
	return k.sc.processed
}

// Pending reports how many events are scheduled and not yet canceled.
// It is O(partitions): each scheduler maintains a live counter across
// schedule, cancel and execution. On a grouped kernel it aggregates
// across all partitions; see Group.Pending for the memory-ordering
// contract.
func (k *Kernel) Pending() int {
	if k.g != nil {
		return k.g.Pending()
	}
	return k.sc.live
}

// queueLen reports how many event records (live or canceled) are
// resident in the heap; the excess over Pending is canceled residue
// awaiting compaction. Exposed for tests.
func (k *Kernel) queueLen() int { return len(k.sc.events) }

// Schedule runs fn after delay d. A negative delay is treated as zero.
// The returned Timer may be used to cancel the call before it fires.
func (k *Kernel) Schedule(d Time, fn func()) Timer {
	if d < 0 {
		d = 0
	}
	return k.At(k.now+d, fn)
}

// ScheduleArg is Schedule for a callback taking one argument. It exists
// so hot paths can pass a persistent function plus a per-call argument
// instead of allocating a closure on every schedule.
func (k *Kernel) ScheduleArg(d Time, fn func(any), arg any) Timer {
	if d < 0 {
		d = 0
	}
	return k.AtArg(k.now+d, fn, arg)
}

// At runs fn at absolute time t. Scheduling in the past runs at the
// current instant (after already-queued events for this instant).
//
// In a Group, At on a domain kernel must be called either from an event
// running on that kernel's partition or while the group is quiesced
// (no Run in progress); cross-partition scheduling from inside a
// running event goes through SendTo / Call.
func (k *Kernel) At(t Time, fn func()) Timer {
	if fn == nil {
		panic("sim: At called with nil function")
	}
	ev := k.push(t)
	ev.fn = fn
	return Timer{sc: k.sc, ev: ev, gen: ev.gen}
}

// AtArg is At for a callback taking one argument; see ScheduleArg.
func (k *Kernel) AtArg(t Time, fn func(any), arg any) Timer {
	if fn == nil {
		panic("sim: AtArg called with nil function")
	}
	ev := k.push(t)
	ev.afn = fn
	ev.arg = arg
	return Timer{sc: k.sc, ev: ev, gen: ev.gen}
}

func (k *Kernel) push(t Time) *event {
	if t < k.now {
		t = k.now
	}
	sc := k.sc
	ev := sc.alloc()
	ev.k = k
	sc.events.push(qent{at: t, seq: k.seq, dom: k.dom, ev: ev})
	k.seq++
	sc.live++
	return ev
}

// SendTo schedules a frame delivery on another domain's kernel at
// absolute time at. The event keeps this domain's (time, domain,
// sequence) key, so its position in the global order is fixed here, at
// schedule time — delivery order at the destination is a deterministic
// function of that key, never of goroutine scheduling.
//
// When the destination lives in another partition, at must be at least
// the group's lookahead past this domain's clock (the conservative
// window contract); link propagation delay guarantees that for every
// simnet send. Same-partition and standalone destinations take the
// direct heap push with the identical key, so the global event order —
// and therefore the simulation — does not depend on the partition
// layout.
func (k *Kernel) SendTo(dst *Kernel, at Time, fn func(any, []byte), arg any, buf []byte) {
	if fn == nil {
		panic("sim: SendTo called with nil function")
	}
	if at < k.now {
		at = k.now
	}
	if dst.sc == k.sc {
		ev := k.push(at)
		ev.bfn = fn
		ev.arg = arg
		ev.buf = buf
		ev.k = dst
		return
	}
	g := k.g
	if g == nil || g != dst.g {
		panic("sim: SendTo across unrelated kernels")
	}
	if at < k.now+g.lookahead {
		panic("sim: SendTo inside the lookahead horizon")
	}
	box := &k.sc.out[dst.part]
	*box = append(*box, xev{at: at, dom: k.dom, seq: k.seq, k: dst, bfn: fn, arg: arg, buf: buf})
	k.seq++
}

// Call runs fn on another domain. On a standalone kernel (or when dst
// is the calling kernel) it invokes fn synchronously, preserving the
// classic single-kernel semantics. In a Group it always schedules fn
// one lookahead ahead on dst — even when src and dst share a partition
// — so the hop's latency, and with it the event history, is identical
// at every partition count.
func (k *Kernel) Call(dst *Kernel, fn func()) {
	if k == dst || k.g == nil {
		fn()
		return
	}
	if k.g != dst.g {
		panic("sim: Call across unrelated kernels")
	}
	at := k.now + k.g.lookahead
	if dst.sc == k.sc {
		ev := k.push(at)
		ev.fn = fn
		ev.k = dst
		return
	}
	box := &k.sc.out[dst.part]
	*box = append(*box, xev{at: at, dom: k.dom, seq: k.seq, k: dst, fn: fn})
	k.seq++
}

// Step executes the single next event, advancing the clock to its
// timestamp. It reports whether an event was executed. On a grouped
// kernel it delegates to the group's sequential stepper.
func (k *Kernel) Step() bool {
	if k.g != nil {
		return k.g.Step()
	}
	return k.sc.step()
}

// Run executes events until the queue drains or Stop is called.
func (k *Kernel) Run() {
	if k.g != nil {
		k.g.Run()
		return
	}
	k.sc.stopped = false
	for !k.sc.stopped && k.sc.step() {
	}
}

// RunUntil executes every event scheduled at or before t and then sets the
// clock to t (even if the queue drained earlier), unless Stop was called.
func (k *Kernel) RunUntil(t Time) {
	if k.g != nil {
		k.g.RunUntil(t)
		return
	}
	sc := k.sc
	sc.stopped = false
	for !sc.stopped {
		next, ok := sc.peek()
		if !ok || next > t {
			break
		}
		sc.step()
	}
	if !sc.stopped && k.now < t {
		k.now = t
	}
}

// RunFor advances the simulation by duration d. See RunUntil.
func (k *Kernel) RunFor(d Time) {
	if k.g != nil {
		k.g.RunFor(d)
		return
	}
	k.RunUntil(k.now + d)
}

// Stop makes the innermost Run/RunUntil return after the current event
// (after the current window, in a Group).
func (k *Kernel) Stop() {
	if k.g != nil {
		k.g.Stop()
		return
	}
	k.sc.stopped = true
}

// Timer is a handle to a scheduled event. It is a plain value (copying
// it is fine); the zero Timer is inert: Stop reports false and Active
// reports false. Handles do not pin the event record — once the event
// fires or is compacted away the record is recycled, its gen moves on,
// and the handle becomes inert automatically: every record leaving the
// queue is released at once, so a matching gen alone means "still
// queued". A Timer must be used from the partition
// that scheduled it.
type Timer struct {
	sc  *sched
	ev  *event
	gen uint64
}

// Stop cancels the timer. It reports whether the call prevented the event
// from firing (false if it already ran or was already stopped).
func (t Timer) Stop() bool {
	if t.ev == nil || t.ev.gen != t.gen || t.ev.canceled {
		return false
	}
	t.ev.canceled = true
	t.sc.live--
	t.sc.ncanceled++
	if t.sc.ncanceled > t.sc.live && len(t.sc.events) >= compactThreshold {
		t.sc.compact()
	}
	return true
}

// Active reports whether the timer is still pending.
func (t Timer) Active() bool {
	return t.ev != nil && t.ev.gen == t.gen && !t.ev.canceled
}

// Ticker invokes a callback at a fixed period until stopped. The tick
// callback is bound once at construction, so steady ticking does not
// allocate.
type Ticker struct {
	k      *Kernel
	period Time
	fn     func()
	tickFn func()
	timer  Timer
	stop   bool
}

// NewTicker schedules fn every period, first firing one period from now.
func (k *Kernel) NewTicker(period Time, fn func()) *Ticker {
	if period <= 0 {
		panic("sim: ticker period must be positive")
	}
	t := &Ticker{k: k, period: period, fn: fn}
	t.tickFn = t.tick
	t.arm()
	return t
}

func (t *Ticker) arm() {
	t.timer = t.k.Schedule(t.period, t.tickFn)
}

func (t *Ticker) tick() {
	if t.stop {
		return
	}
	t.fn()
	if !t.stop {
		t.arm()
	}
}

// Stop cancels future ticks.
func (t *Ticker) Stop() {
	t.stop = true
	t.timer.Stop()
}

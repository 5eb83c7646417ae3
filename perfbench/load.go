package main

// Load generation. Every input — arrival times, keys, values — is drawn
// from the workload seed before the cluster is built; the cluster only
// receives them. Requests live in preallocated tables, and the open-loop
// generator reschedules itself through one cached callback, so driving
// the measured window allocates nothing on the benchmark's side.

import (
	"math"
	"math/rand"
	"time"

	"p4ce"
)

// requests is one phase's preallocated request table.
type requests struct {
	due   []int64 // scheduled arrival, sim ns after the phase start
	ack   []int64 // acknowledgement, sim ns after the phase start; -1 = none
	calls []uint8 // completion callbacks seen (more than one is a bug)
	key   []int32 // workload input: key index
	val   []int32 // workload input: value index
	shard []int32
	done  []func(error)
	base  int // write tag of request 0 is base+1 (KV workloads)
}

// poissonArrivals draws open-loop arrivals at rate ops/s over span and
// gives each one a key (by pickKey) and a value index below values.
func poissonArrivals(rng *rand.Rand, rate float64, span time.Duration, values int, pickKey func() int32) *requests {
	meanGap := 1e9 / rate
	n := int(float64(span.Nanoseconds())/meanGap*1.1) + 16
	rq := &requests{
		due: make([]int64, 0, n), key: make([]int32, 0, n),
		val: make([]int32, 0, n),
	}
	t := 0.0
	for {
		t += rng.ExpFloat64() * meanGap
		at := int64(math.Round(t))
		if at >= span.Nanoseconds() {
			break
		}
		k := pickKey()
		rq.due = append(rq.due, at)
		rq.key = append(rq.key, k)
		rq.val = append(rq.val, int32(rng.Intn(values)))
	}
	rq.ack = make([]int64, len(rq.due))
	for i := range rq.ack {
		rq.ack[i] = -1
	}
	rq.calls = make([]uint8, len(rq.due))
	rq.shard = make([]int32, len(rq.due))
	rq.done = make([]func(error), len(rq.due))
	return rq
}

// gen is one shard's open-loop generator over a request table. It runs
// entirely on the shard's scheduling domain.
type gen struct {
	sh     *p4ce.Shard
	rq     *requests
	idx    []int32 // this shard's requests, in arrival order
	next   int
	start  int64 // absolute sim ns of the phase start
	fire   func()
	submit func(i int32) // hands request i to the system

	late          int64 // worst delay between due time and submission
	acked, failed int
}

// newGens routes rq's requests to their shards and binds every
// request's completion callback to its shard's generator.
func newGens(cl *p4ce.Cluster, rq *requests, sc scenario) []*gen {
	gens := make([]*gen, cl.ShardCount())
	for s := range gens {
		g := &gen{sh: cl.Shard(s), rq: rq, submit: sc.submit(cl, rq, s)}
		g.fire = g.tick
		gens[s] = g
	}
	for i, k := range rq.key {
		rq.shard[i] = sc.shardOf(cl, k)
		g := gens[rq.shard[i]]
		g.idx = append(g.idx, int32(i))
		i := int32(i)
		rq.done[i] = func(err error) { g.complete(i, err) }
	}
	return gens
}

// arm starts every generator's schedule relative to the current time.
func arm(cl *p4ce.Cluster, gens []*gen) {
	start := int64(cl.Now())
	for _, g := range gens {
		g.start = start
		if len(g.idx) > 0 {
			g.sh.After(time.Duration(g.rq.due[g.idx[0]]), g.fire)
		}
	}
}

func (g *gen) tick() {
	now := int64(g.sh.Now())
	for g.next < len(g.idx) {
		i := g.idx[g.next]
		at := g.start + g.rq.due[i]
		if at > now {
			g.sh.After(time.Duration(at-now), g.fire)
			return
		}
		if now-at > g.late {
			g.late = now - at
		}
		g.next++
		g.submit(i)
	}
}

// complete records request i's outcome; it is every request's done
// callback, and a failed Propose reports through it too.
func (g *gen) complete(i int32, err error) {
	rq := g.rq
	rq.calls[i]++
	if rq.calls[i] > 1 {
		return // a violation: runRep fails the run on it
	}
	if err != nil {
		g.failed++
		return
	}
	rq.ack[i] = int64(g.sh.Now()) - g.start
	g.acked++
}

func (g *gen) settled() bool { return g.acked+g.failed == len(g.idx) }

// totals sums acknowledged and failed requests over every shard. Call
// it between Run calls only.
func totals(gens []*gen) (acked, failed int) {
	for _, g := range gens {
		acked += g.acked
		failed += g.failed
	}
	return acked, failed
}

// closedLoop keeps requests outstanding on one shard until its
// deadline, resubmitting from each completion.
type closedLoop struct {
	sh       *p4ce.Shard
	send     func(done func(error)) error
	deadline int64
	done     func(error)
	acked    int // completions before the deadline
	err      error
}

func newClosedLoop(sh *p4ce.Shard, send func(done func(error)) error) *closedLoop {
	c := &closedLoop{sh: sh, send: send}
	c.done = func(err error) {
		if err != nil {
			c.err = err
			return
		}
		if int64(c.sh.Now()) < c.deadline {
			c.acked++
			c.submit()
		}
	}
	return c
}

func (c *closedLoop) submit() {
	if err := c.send(c.done); err != nil && c.err == nil {
		c.err = err
	}
}

// start schedules one client per offset on the shard's domain; each
// client then keeps one request outstanding until span has passed.
func (c *closedLoop) start(offsets []time.Duration, span time.Duration) {
	c.deadline = int64(c.sh.Now()) + span.Nanoseconds()
	for _, off := range offsets {
		c.sh.After(off, c.submit)
	}
}

// startOffsets draws when each closed-loop client of each shard sends
// its first request: uniformly within the first 20 µs, so the clients
// do not start in lockstep.
func startOffsets(rng *rand.Rand, shards, depth int) [][]time.Duration {
	out := make([][]time.Duration, shards)
	for s := range out {
		for i := 0; i < depth; i++ {
			out[s] = append(out[s], time.Duration(rng.Int63n(20000)))
		}
	}
	return out
}

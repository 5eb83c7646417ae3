package sim

import (
	"math/rand"
	"sort"
	"testing"
)

// TestEventQueueMatchesSortedModel is a property test of the event
// queue against the simplest possible model: a slice of pending keys,
// sorted with sort.Slice on (at, dom, seq) before every step. Random
// mixes of At (from the test and from inside events), Timer.Stop (on
// pending, fired, canceled and recycled records), bursts of canceled
// timers that force compaction, and cross-domain SendTo must pop in
// exactly the model's order, on a standalone kernel and on groups of
// one to three partitions. Stop and Active must report the model's
// view of every handle ever issued: a handle whose event fired or was
// canceled stays inert even after its record is recycled.
func TestEventQueueMatchesSortedModel(t *testing.T) {
	for _, parts := range []int{0, 1, 2, 3} { // 0: standalone kernel
		for seed := int64(1); seed <= 12; seed++ {
			runQueueModel(t, parts, seed)
		}
	}
}

type modelKey struct {
	at  Time
	dom int32
	seq uint64
	id  int
}

type handleState uint8

const (
	hPending handleState = iota
	hFired
	hStopped
)

func runQueueModel(t *testing.T, parts int, seed int64) {
	t.Helper()
	const lookahead = 50
	rng := rand.New(rand.NewSource(seed))
	var kernels []*Kernel
	var step func() bool
	if parts == 0 {
		k := NewKernel(seed)
		kernels, step = []*Kernel{k}, k.Step
	} else {
		g := NewGroup(seed, 4, parts, lookahead)
		kernels, step = g.kernels, g.Step
	}

	var pending []modelKey
	state := map[int]handleState{}
	timers := map[int]Timer{}
	var timerIDs []int
	var fired []int
	nextID := 0
	newKey := func(src *Kernel, at Time) modelKey {
		if at < src.now {
			at = src.now
		}
		id := nextID
		nextID++
		state[id] = hPending
		return modelKey{at: at, dom: src.dom, seq: src.seq, id: id}
	}
	var fire func(id int, run *Kernel)
	at := func(k *Kernel, when Time) {
		key := newKey(k, when)
		pending = append(pending, key)
		timers[key.id] = k.At(when, func() { fire(key.id, k) })
		timerIDs = append(timerIDs, key.id)
	}
	send := func(src, dst *Kernel, when Time) {
		key := newKey(src, when)
		pending = append(pending, key)
		src.SendTo(dst, when, func(any, []byte) { fire(key.id, dst) }, nil, nil)
	}
	stop := func(id int) {
		wantOK := state[id] == hPending
		if got := timers[id].Stop(); got != wantOK {
			t.Fatalf("parts=%d seed=%d: Stop(%d) = %v in state %d", parts, seed, id, got, state[id])
		}
		if !wantOK {
			return
		}
		state[id] = hStopped
		for i, k := range pending {
			if k.id == id {
				pending = append(pending[:i], pending[i+1:]...)
				break
			}
		}
	}
	checkActive := func(id int) {
		if got, want := timers[id].Active(), state[id] == hPending; got != want {
			t.Fatalf("parts=%d seed=%d: Active(%d) = %v in state %d", parts, seed, id, got, state[id])
		}
	}
	fire = func(id int, run *Kernel) {
		fired = append(fired, id)
		for n := rng.Intn(3); n > 0; n-- {
			switch rng.Intn(3) {
			case 0:
				at(run, run.now+Time(rng.Intn(100)))
			case 1:
				dst := kernels[rng.Intn(len(kernels))]
				send(run, dst, run.now+lookahead+Time(rng.Intn(100)))
			default:
				if len(timerIDs) > 0 {
					stop(timerIDs[rng.Intn(len(timerIDs))])
				}
			}
		}
	}
	less := func(a, b modelKey) bool {
		if a.at != b.at {
			return a.at < b.at
		}
		if a.dom != b.dom {
			return a.dom < b.dom
		}
		return a.seq < b.seq
	}
	doStep := func() {
		sort.Slice(pending, func(i, j int) bool { return less(pending[i], pending[j]) })
		if len(pending) == 0 {
			if step() {
				t.Fatalf("parts=%d seed=%d: stepped with an empty model", parts, seed)
			}
			return
		}
		want := pending[0]
		pending = pending[1:]
		state[want.id] = hFired
		n := len(fired)
		if !step() {
			t.Fatalf("parts=%d seed=%d: queue empty, model expects event %d", parts, seed, want.id)
		}
		if len(fired) <= n || fired[n] != want.id {
			t.Fatalf("parts=%d seed=%d: popped %v, model expects event %d at %v", parts, seed, fired[n:], want.id, want.at)
		}
	}

	for i := 0; i < 1500; i++ {
		switch op := rng.Intn(40); {
		case op < 16:
			k := kernels[rng.Intn(len(kernels))]
			at(k, k.now+Time(rng.Intn(500)-10))
		case op < 24:
			if len(timerIDs) > 0 {
				stop(timerIDs[rng.Intn(len(timerIDs))])
			}
		case op == 24:
			// A burst of timers, most of them canceled at once: the
			// canceled residue outgrows the live events and the queue
			// compacts under the pending ones.
			k := kernels[rng.Intn(len(kernels))]
			first := len(timerIDs)
			for j := 0; j < 2*compactThreshold; j++ {
				at(k, k.now+Time(rng.Intn(1000)))
			}
			for _, id := range timerIDs[first : len(timerIDs)-8] {
				stop(id)
			}
		default:
			doStep()
		}
		for j := 0; j < 8 && len(timerIDs) > 0; j++ {
			checkActive(timerIDs[rng.Intn(len(timerIDs))])
		}
	}
	for len(pending) > 0 {
		doStep()
	}
	doStep()
	for _, id := range timerIDs {
		checkActive(id)
		if timers[id].Stop() {
			t.Fatalf("parts=%d seed=%d: Stop(%d) after drain reported true", parts, seed, id)
		}
	}
}

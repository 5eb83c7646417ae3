package main

import (
	"encoding/binary"
	"fmt"
	"maps"
	"math/rand"
	"time"

	"p4ce"
	"p4ce/internal/chaos"
)

// clusterSeed seeds the simulated testbed itself. It is fixed: the
// workload seed only shapes the inputs the cluster receives.
const clusterSeed = 1

var workloads = []*workload{
	{
		name: "single-group",
		why: "5 machines on one switch at 2.0 M ops/s open loop (87% of the 2.3 M/s ceiling), then closed-loop saturation: " +
			"the per-op hot path alone",
		perSecond:  30 * time.Millisecond,
		warm:       10 * time.Millisecond,
		saturation: 10 * time.Millisecond,
		drainLimit: 20 * time.Millisecond,
		new:        func() scenario { return &singleGroup{} },
	},
	{
		name: "sharded-fabric",
		why: "4 shards x 3 machines on a 2-rack 2-spine fabric, 2 kernel partitions, Zipf-skewed 256 B KV writes: " +
			"partitioned kernel, batching, hierarchical gather",
		perSecond:  3200 * time.Microsecond,
		warm:       4 * time.Millisecond,
		saturation: 5 * time.Millisecond,
		drainLimit: 20 * time.Millisecond,
		new:        func() scenario { return &shardedFabric{} },
		partitions: 2,
	},
	// leader-failover is not listed in BENCHMARK.json: the simulated
	// system panics when the shard-leader-outage scenario resets the
	// leader's NIC under load (see README.md).
	{
		name: "leader-failover",
		why: "5 machines with heartbeats and telemetry; the leader goes dark for 40 ms under 1.6 M/s client writes: " +
			"election, switch reconfiguration, retries, dedup",
		perSecond:  24 * time.Millisecond,
		warm:       10 * time.Millisecond,
		saturation: 10 * time.Millisecond,
		drainLimit: 200 * time.Millisecond,
		new:        func() scenario { return &leaderFailover{} },
		faults:     true,
	},
}

func lookup(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// randomValues draws n values of size bytes.
func randomValues(rng *rand.Rand, n, size int) [][]byte {
	vals := make([][]byte, n)
	for i := range vals {
		vals[i] = make([]byte, size)
		rng.Read(vals[i])
	}
	return vals
}

// ---- single-group ----

// singleGroup proposes raw 64-byte values on the leader. No state
// machine is bound; every machine folds its applied log into a hash
// instead, which must agree across machines at the end.
type singleGroup struct {
	vals   [][]byte
	hashes []*applyHash
}

// applyHash is an FNV-1a fold of (index, value) over an applied log.
type applyHash struct {
	sum   uint64
	count uint64
}

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func (h *applyHash) apply(index uint64, data []byte) {
	for i := 0; i < 8; i++ {
		h.sum = (h.sum ^ (index >> (8 * i) & 0xff)) * fnvPrime
	}
	for _, b := range data {
		h.sum = (h.sum ^ uint64(b)) * fnvPrime
	}
	h.count++
}

func (g *singleGroup) options() p4ce.Options {
	return p4ce.Options{Nodes: 5, Mode: p4ce.ModeP4CE, Seed: clusterSeed, DisableHeartbeats: true}
}

func (g *singleGroup) prepare(cl *p4ce.Cluster) {
	for _, n := range cl.Nodes() {
		h := &applyHash{sum: fnvOffset}
		n.OnApply(h.apply)
		g.hashes = append(g.hashes, h)
	}
	cl.ForceLeader(0)
}

func (g *singleGroup) inputs(rng *rand.Rand, span time.Duration) *requests {
	if g.vals == nil {
		g.vals = randomValues(rng, 4096, 64)
	}
	return poissonArrivals(rng, 2.0e6, span, len(g.vals), func() int32 { return 0 })
}

func (g *singleGroup) shardOf(*p4ce.Cluster, int32) int32 { return 0 }

func (g *singleGroup) submit(cl *p4ce.Cluster, rq *requests, _ int) func(int32) {
	leader := cl.Leader()
	return func(i int32) {
		if err := leader.Propose(g.vals[rq.val[i]], rq.done[i]); err != nil {
			rq.done[i](err)
		}
	}
}

func (g *singleGroup) closedSubmit(cl *p4ce.Cluster, _ int) func(func(error)) error {
	leader := cl.Leader()
	return func(done func(error)) error { return leader.Propose(g.vals[0], done) }
}

func (g *singleGroup) inject(*p4ce.Cluster) (time.Duration, error) { return 0, nil }

func (g *singleGroup) check(_ *p4ce.Cluster, rq *requests) error {
	acked := uint64(0)
	for _, a := range rq.ack {
		if a >= 0 {
			acked++
		}
	}
	if g.hashes[0].count < acked {
		return fmt.Errorf("machine 0 applied %d values, fewer than the window's %d acknowledged", g.hashes[0].count, acked)
	}
	for i, h := range g.hashes {
		if *h != *g.hashes[0] {
			return fmt.Errorf("machine %d applied %d values (hash %x), machine 0 applied %d (hash %x)",
				i, h.count, h.sum, g.hashes[0].count, g.hashes[0].sum)
		}
	}
	return nil
}

func (g *singleGroup) clients() []*p4ce.Client { return nil }
func (g *singleGroup) dedups() []*p4ce.Dedup   { return nil }

// ---- KV workloads ----

// kvLoad is shared by the workloads that write a replicated KV store
// through client sessions: per-key command templates whose value bytes
// are overwritten from a seeded value pool at submission, so the benchmark
// allocates nothing per request.
type kvLoad struct {
	valueSize int
	keys      []string
	tmpl      [][]byte // SetCommand(key, zero value) per key, so value bytes end the command
	vals      [][]byte
	cmdBuf    [][]byte // one per session
	sessions  []*p4ce.Client
	filters   []*p4ce.Dedup
	kvs       [][]*p4ce.KV // [shard][machine]
	tagged    int          // write tags handed out so far
}

// kvKeys is the key space of the KV workloads.
const kvKeys = 4096

// init draws the value pool and builds the key templates once.
func (l *kvLoad) init(rng *rand.Rand, valueSize int) {
	if l.vals != nil {
		return
	}
	l.valueSize = valueSize
	l.vals = randomValues(rng, 1024, valueSize)
	zero := string(make([]byte, valueSize))
	for k := 0; k < kvKeys; k++ {
		key := fmt.Sprintf("key-%05d", k)
		l.keys = append(l.keys, key)
		l.tmpl = append(l.tmpl, p4ce.SetCommand(key, zero))
	}
}

// arrivals draws a phase's requests and reserves their write tags.
func (l *kvLoad) arrivals(rng *rand.Rand, rate float64, span time.Duration, pickKey func() int32) *requests {
	rq := poissonArrivals(rng, rate, span, len(l.vals), pickKey)
	rq.base = l.tagged
	l.tagged += len(rq.due)
	return rq
}

// command encodes request i of rq into session s's command buffer: the
// key's template with the drawn value, whose first 8 bytes carry the
// request's write tag.
func (l *kvLoad) command(s int, rq *requests, i int32) []byte {
	buf := l.untagged(s, rq.key[i], rq.val[i])
	binary.BigEndian.PutUint64(buf[len(buf)-l.valueSize:], uint64(rq.base+int(i)+1))
	return buf
}

// untagged encodes a write of value v to key k (tag 0).
func (l *kvLoad) untagged(s int, k, v int32) []byte {
	t := l.tmpl[k]
	buf := l.cmdBuf[s][:len(t)]
	copy(buf, t)
	copy(buf[len(t)-l.valueSize:], l.vals[v])
	binary.BigEndian.PutUint64(buf[len(t)-l.valueSize:], 0)
	return buf
}

// bind installs Dedup(inner) on every machine; wrap builds the inner
// state machine around each machine's KV store.
func (l *kvLoad) bind(cl *p4ce.Cluster, wrap func(*p4ce.KV) p4ce.StateMachine) {
	l.kvs = make([][]*p4ce.KV, cl.ShardCount())
	for _, n := range cl.Nodes() {
		kv := p4ce.NewKV()
		d := p4ce.NewDedup(wrap(kv))
		n.Bind(d)
		l.filters = append(l.filters, d)
		l.kvs[n.Shard()] = append(l.kvs[n.Shard()], kv)
	}
}

func (l *kvLoad) openSessions(n int, open func(i int) *p4ce.Client) {
	maxLen := 0
	for _, t := range l.tmpl {
		maxLen = max(maxLen, len(t))
	}
	for i := 0; i < n; i++ {
		l.sessions = append(l.sessions, open(i))
		l.cmdBuf = append(l.cmdBuf, make([]byte, maxLen))
	}
}

// sameSnapshots checks that every shard's machines hold identical
// stores.
func (l *kvLoad) sameSnapshots() error {
	for s, kvs := range l.kvs {
		var ref map[string]string
		refM := -1
		for m, kv := range kvs {
			snap := kv.Snapshot()
			if ref == nil {
				ref, refM = snap, m
			} else if !maps.Equal(ref, snap) {
				return fmt.Errorf("shard %d: machine %d's KV snapshot differs from machine %d's", s, m, refM)
			}
		}
	}
	return nil
}

func (l *kvLoad) clients() []*p4ce.Client { return l.sessions }
func (l *kvLoad) dedups() []*p4ce.Dedup   { return l.filters }

// ---- sharded-fabric ----

// shardedFabric writes 256-byte values to Zipf-skewed keys, one client
// session per shard, each shard driven on its own scheduling domain.
type shardedFabric struct {
	kvLoad
	keyShard []int32
	satKey   []int32 // per shard: the key its saturation phase writes
}

const (
	shardedRate = 8.0e6
	zipfS       = 1.1
)

func (f *shardedFabric) options() p4ce.Options {
	return p4ce.Options{
		Nodes: 3, Shards: 4, Mode: p4ce.ModeP4CE, Seed: clusterSeed, DisableHeartbeats: true,
		Topology: &p4ce.Topology{Racks: 2, Spines: 2},
	}
}

func (f *shardedFabric) prepare(cl *p4ce.Cluster) {
	f.bind(cl, func(kv *p4ce.KV) p4ce.StateMachine { return kv })
	for _, k := range f.keys {
		f.keyShard = append(f.keyShard, int32(cl.ShardForKey(k)))
	}
	f.satKey = make([]int32, cl.ShardCount())
	for s := range f.satKey {
		f.satKey[s] = -1
		for k, sh := range f.keyShard {
			if int(sh) == s {
				f.satKey[s] = int32(k)
				break
			}
		}
	}
	f.openSessions(cl.ShardCount(), cl.NewClientForShard)
	cl.ForceLeader(0)
}

func (f *shardedFabric) inputs(rng *rand.Rand, span time.Duration) *requests {
	f.init(rng, 256)
	z := rand.NewZipf(rng, zipfS, 1, kvKeys-1)
	return f.arrivals(rng, shardedRate, span, func() int32 { return int32(z.Uint64()) })
}

func (f *shardedFabric) shardOf(_ *p4ce.Cluster, k int32) int32 { return f.keyShard[k] }

func (f *shardedFabric) submit(_ *p4ce.Cluster, rq *requests, s int) func(int32) {
	return func(i int32) { f.sessions[s].Submit(f.command(s, rq, i), rq.done[i]) }
}

func (f *shardedFabric) closedSubmit(_ *p4ce.Cluster, s int) func(func(error)) error {
	return func(done func(error)) error {
		f.sessions[s].Submit(f.untagged(s, f.satKey[s], 0), done)
		return nil
	}
}

func (f *shardedFabric) inject(*p4ce.Cluster) (time.Duration, error) { return 0, nil }

func (f *shardedFabric) check(*p4ce.Cluster, *requests) error { return f.sameSnapshots() }

// ---- leader-failover ----

// leaderFailover writes uniformly chosen keys through several client
// sessions while the leader goes dark for 40 ms (chaos scenario
// shard-leader-outage). Every machine counts, per request, the writes
// that reach its store behind the dedup filter.
type leaderFailover struct {
	kvLoad
	counters []*applyCounter
}

const (
	failoverRate     = 1.6e6
	failoverSessions = 4
	failoverScenario = "shard-leader-outage"
)

// applyCounter counts the applications of every tagged write.
type applyCounter struct {
	kv        *p4ce.KV
	valueSize int
	applies   []uint8 // by tag-1
}

func (c *applyCounter) Apply(index uint64, cmd []byte) {
	c.kv.Apply(index, cmd)
	if len(cmd) < c.valueSize {
		return
	}
	if tag := binary.BigEndian.Uint64(cmd[len(cmd)-c.valueSize:]); tag > 0 && tag <= uint64(len(c.applies)) {
		c.applies[tag-1]++
	}
}

func (f *leaderFailover) options() p4ce.Options {
	return p4ce.Options{Nodes: 5, Mode: p4ce.ModeP4CE, Seed: clusterSeed, EnableTelemetry: true}
}

func (f *leaderFailover) prepare(cl *p4ce.Cluster) {
	f.bind(cl, func(kv *p4ce.KV) p4ce.StateMachine {
		c := &applyCounter{kv: kv, valueSize: f.valueSize, applies: make([]uint8, f.tagged)}
		f.counters = append(f.counters, c)
		return c
	})
	f.openSessions(failoverSessions, func(int) *p4ce.Client { return cl.NewClient() })
}

func (f *leaderFailover) inputs(rng *rand.Rand, span time.Duration) *requests {
	f.init(rng, 64)
	return f.arrivals(rng, failoverRate, span, func() int32 { return int32(rng.Intn(kvKeys)) })
}

func (f *leaderFailover) shardOf(*p4ce.Cluster, int32) int32 { return 0 }

func (f *leaderFailover) submit(_ *p4ce.Cluster, rq *requests, _ int) func(int32) {
	return func(i int32) {
		s := int(i) % len(f.sessions)
		f.sessions[s].Submit(f.command(s, rq, i), rq.done[i])
	}
}

func (f *leaderFailover) closedSubmit(*p4ce.Cluster, int) func(func(error)) error {
	return func(done func(error)) error {
		f.sessions[0].Submit(f.untagged(0, 0, 0), done)
		return nil
	}
}

func (f *leaderFailover) inject(cl *p4ce.Cluster) (time.Duration, error) {
	sc, ok := chaos.Lookup(failoverScenario)
	if !ok {
		return 0, fmt.Errorf("unknown chaos scenario %q", failoverScenario)
	}
	if _, _, err := cl.ApplyChaosScenario(failoverScenario, clusterSeed, nil); err != nil {
		return 0, err
	}
	return time.Duration(sc.FaultStart), nil
}

// check: identical stores on every machine (the dark leader comes back);
// on each of them every acknowledged write applied once, and no write
// applied twice behind the dedup filter.
func (f *leaderFailover) check(_ *p4ce.Cluster, rq *requests) error {
	if err := f.sameSnapshots(); err != nil {
		return err
	}
	for m, c := range f.counters {
		for i := range rq.due {
			switch n := c.applies[rq.base+i]; {
			case n > 1:
				return fmt.Errorf("machine %d applied request %d %d times: dedup let a retry through", m, i, n)
			case n == 0 && rq.ack[i] >= 0:
				return fmt.Errorf("machine %d lost acknowledged request %d", m, i)
			}
		}
	}
	return nil
}

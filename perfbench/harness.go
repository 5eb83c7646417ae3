package main

// One repetition ("rep") of a workload: build the cluster, wait for
// leaders, warm up, measure the open-loop window in fixed simulated-time
// chunks, drain, run the closed-loop saturation phase, settle and check.

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"runtime/debug"
	rtmetrics "runtime/metrics"
	"runtime/pprof"
	"sort"
	"strings"
	"time"

	"p4ce"
	"p4ce/internal/metrics"
	"p4ce/internal/otrace"
	swp4ce "p4ce/internal/p4ce"
	"p4ce/internal/tofino"
)

// scenario is one workload's cluster shape and traffic, instantiated
// afresh for every rep.
type scenario interface {
	options() p4ce.Options
	// prepare runs on the new cluster before simulated time passes:
	// state machines, client sessions, forced views.
	prepare(cl *p4ce.Cluster)
	// inputs draws one phase's requests from rng.
	inputs(rng *rand.Rand, span time.Duration) *requests
	// shardOf routes an input key to its consensus group.
	shardOf(cl *p4ce.Cluster, key int32) int32
	// submit returns shard s's hook handing request i of rq to the system.
	submit(cl *p4ce.Cluster, rq *requests, s int) func(i int32)
	// closedSubmit returns shard s's closed-loop submission for the saturation phase.
	closedSubmit(cl *p4ce.Cluster, s int) func(done func(error)) error
	// inject installs faults at the start of the measured window and
	// returns when, after that start, the first one strikes.
	inject(cl *p4ce.Cluster) (time.Duration, error)
	// check verifies the replicated state once the run has settled.
	check(cl *p4ce.Cluster, rq *requests) error
	// clients and dedups expose the sessions and dedup filters for counts.
	clients() []*p4ce.Client
	dedups() []*p4ce.Dedup
}

const (
	// windowChunks is how many equal simulated-time chunks the measured
	// window is cut into for the host-cost quantiles.
	windowChunks = 100
	// pipelineDepth is the closed-loop requests outstanding per shard in
	// the saturation phase: the NIC pipeline depth of the testbed.
	pipelineDepth = 16
)

// workload is a named scenario plus its measurement plan.
type workload struct {
	name, why string
	// perSecond is the simulated window measured per --seconds; it is
	// fixed per workload, so simulated-time results do not depend on
	// host speed.
	perSecond  time.Duration
	warm       time.Duration // open-loop warm-up span, same rate
	saturation time.Duration // closed-loop phase span
	drainLimit time.Duration // how long stragglers may take after the window
	new        func() scenario
	partitions int // default kernel partitions (0 = single-threaded kernel)
	// faults marks a workload that injects faults; only it reports the
	// fail-over counts and the telemetry and chaos layers.
	faults bool
}

// repConfig selects what one rep measures.
type repConfig struct {
	seed       int64
	window     time.Duration
	partitions int
	traced     bool // metrics registry + causal tracing + CPU profile
	setupOnly  bool
}

// repResult is everything one rep measured.
type repResult struct {
	setup time.Duration

	// Deterministic: simulated-time results and per-layer counts. Two
	// reps of one seed must agree on them exactly.
	sim       simResult
	counts    map[string]float64 // from public stats, every rep
	regCounts map[string]float64 // from the metrics registry, traced reps only

	// Host time.
	chunkCost []float64 // host ns per committed op, per chunk, sorted
	hostNs    int64     // window host time
	events    uint64    // window kernel events
	heapPeak  uint64    // bytes
	allocs    uint64    // heap objects allocated in the window
	windowOps int
	stages    [len(otrace.StageNames)][]int64 // traced only
	shares    map[string]float64              // traced only
	profiled  int                             // CPU profile samples
	trace     traceMatch                      // traced only, unfaulted workloads
}

type simResult struct {
	P50, P999     int64
	Samples       int
	OpsPerS       float64
	MaxOpsPerS    float64
	UnavailableNs int64
	Attempted     int
	Failed        int
	LateNs        int64
}

// snapshot is the public per-layer state read at a window boundary.
type snapshot struct {
	events   uint64
	busy     []time.Duration
	leader   []bool
	views    []uint64
	tx, retx uint64
	sw       tofino.Stats
	dp       swp4ce.DataplaneStats
	coreFall uint64
	groups   uint64
	sub, ret uint64
	skipped  uint64
	reg      metrics.Snapshot
}

func take(cl *p4ce.Cluster, sc scenario) snapshot {
	s := snapshot{events: cl.EventsProcessed(), sw: cl.FabricStats(), dp: cl.SwitchStats(), reg: cl.Metrics().Snapshot()}
	for _, n := range cl.Nodes() {
		s.busy = append(s.busy, n.CPUBusy())
		s.leader = append(s.leader, n.IsLeader() && !n.Crashed())
		st, nic, eng := n.Stats(), n.NICStats(), n.EngineStats()
		s.views = append(s.views, st.ViewChanges)
		s.tx += nic.TxPackets
		s.retx += nic.Retransmits
		s.coreFall += eng.Fallbacks
		s.groups += eng.GroupReady
	}
	for _, c := range sc.clients() {
		s.sub += c.Submitted
		s.ret += c.Retries
	}
	for _, d := range sc.dedups() {
		s.skipped += d.Skipped
	}
	return s
}

// layerCounts derives the deterministic per-layer counts of a window
// from its boundary snapshots; ratios per op divide by committed ops.
func layerCounts(a, b snapshot, ops int, alerts int, detection int64) map[string]float64 {
	per := func(x uint64) float64 { return float64(x) / float64(ops) }
	ratio := func(x, base uint64) float64 {
		if base == 0 {
			return 0
		}
		return float64(x) / float64(base)
	}
	var leaderBusy time.Duration
	var views uint64
	for i := range a.busy {
		if a.leader[i] || b.leader[i] {
			leaderBusy += b.busy[i] - a.busy[i]
		}
		if v := b.views[i] - a.views[i]; v > views {
			views = v
		}
	}
	// The P4CE program absorbs sub-quorum ACKs by dropping them; only
	// the other drops are lost packets.
	drops := (b.sw.DroppedIngress + b.sw.DroppedEgress) - (a.sw.DroppedIngress + a.sw.DroppedEgress) -
		(b.dp.AcksAggregated - a.dp.AcksAggregated)
	return map[string]float64{
		"sim.events_per_op":         per(b.events - a.events),
		"sim.leader_cpu_ns_per_op":  float64(leaderBusy.Nanoseconds()) / float64(ops),
		"rnic.tx_packets_per_op":    per(b.tx - a.tx),
		"rnic.retransmit_ratio":     ratio(b.retx-a.retx, b.tx-a.tx),
		"tofino.ingress_per_op":     per(b.sw.IngressPackets - a.sw.IngressPackets),
		"tofino.copies_per_op":      per(b.sw.Copies - a.sw.Copies),
		"tofino.drop_ratio":         ratio(drops, b.sw.IngressPackets-a.sw.IngressPackets),
		"p4ce.scattered_per_op":     per(b.dp.Scattered - a.dp.Scattered),
		"p4ce.acks_absorbed_per_op": per(b.dp.AcksAggregated - a.dp.AcksAggregated),
		"p4ce.acks_up_per_op":       per(b.dp.AcksUpForwarded - a.dp.AcksUpForwarded),
		"p4ce.stale_ack_drops":      float64(b.dp.StaleAckDrops - a.dp.StaleAckDrops),
		"p4ce.reconfigs":            float64(b.groups - a.groups),
		"mu.view_changes":           float64(views),
		"core.fallbacks":            float64(b.coreFall - a.coreFall),
		"client.retry_ratio":        ratio(b.ret-a.ret, b.sub-a.sub),
		"client.dedup_skipped":      float64(b.skipped - a.skipped),
		"telemetry.alerts":          float64(alerts),
		"telemetry.detection_ns":    float64(detection),
	}
}

// registryCounts derives the per-layer counts that only the metrics
// registry (Options.EnableMetrics) records.
func registryCounts(a, b metrics.Snapshot, ops int) map[string]float64 {
	reg := func(name string) float64 { return float64(b.Counters[name] - a.Counters[name]) }
	ha, hb := a.Histograms["mu.batch_ops_per_entry"], b.Histograms["mu.batch_ops_per_entry"]
	opsPerEntry := 0.0
	if hb.Count > ha.Count {
		opsPerEntry = float64(hb.SumNs-ha.SumNs) / float64(hb.Count-ha.Count)
	}
	return map[string]float64{
		"simnet.frames_per_op":       reg("simnet.tx_frames") / float64(ops),
		"simnet.wire_busy_ns_per_op": reg("simnet.wire_busy_ns") / float64(ops),
		"rnic.credit_stalls":         reg("rnic.credit_stalls"),
		"mu.ops_per_entry":           opsPerEntry,
	}
}

// fingerprint renders the deterministic part of a rep for comparison.
func (r *repResult) fingerprint() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%+v", r.sim)
	keys := make([]string, 0, len(r.counts))
	for k := range r.counts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(&b, " %s=%v", k, r.counts[k])
	}
	return b.String()
}

// heapReader samples the Go heap without stopping the world.
type heapReader struct{ s []rtmetrics.Sample }

func newHeapReader() *heapReader {
	return &heapReader{s: []rtmetrics.Sample{
		{Name: "/memory/classes/heap/objects:bytes"},
		{Name: "/gc/heap/allocs:objects"},
	}}
}

func (h *heapReader) read() (heapBytes, allocs uint64) {
	rtmetrics.Read(h.s)
	return h.s[0].Value.Uint64(), h.s[1].Value.Uint64()
}

// runRep executes one rep of w. A panic inside the simulated system is
// reported as the rep's error.
func runRep(w *workload, cfg repConfig, sp *spans) (res *repResult, err error) {
	defer func() {
		if r := recover(); r != nil {
			res, err = nil, fmt.Errorf("simulated system panicked: %v\n%s", r, debug.Stack())
		}
	}()
	runtime.GC()
	sc := w.new()
	rng := rand.New(rand.NewSource(cfg.seed))
	warmRq := sc.inputs(rng, w.warm)
	var winRq *requests
	if !cfg.setupOnly {
		winRq = sc.inputs(rng, cfg.window)
	}
	satStart := startOffsets(rng, max(1, sc.options().Shards), pipelineDepth)
	res = &repResult{}

	root := sp.begin("rep", -1)
	defer sp.end(root)
	setup := sp.begin("setup", root)
	t0 := time.Now()
	s := sp.begin("cluster-build", setup)
	opts := sc.options()
	opts.Partitions = cfg.partitions
	if cfg.traced {
		opts.EnableMetrics, opts.EnableTracing = true, true
	}
	cl := p4ce.NewCluster(opts)
	sc.prepare(cl)
	sp.end(s)

	s = sp.begin("leader-wait", setup)
	err = waitReady(cl, opts.Nodes)
	sp.end(s)
	if err != nil {
		return nil, err
	}
	s = sp.begin("warm-up", setup)
	warm := newGens(cl, warmRq, sc)
	arm(cl, warm)
	cl.Run(w.warm)
	drain(cl, warm, w.drainLimit)
	sp.end(s)
	res.setup = time.Since(t0)
	sp.end(setup)
	if cfg.setupOnly {
		return res, nil
	}

	var stageRecs [len(otrace.StageNames)][]int64
	finished := make([][]otrace.OpRecord, cl.ShardCount())
	if cfg.traced {
		cl.Tracer().OnFinish(func(rec otrace.OpRecord) {
			if rec.Noop {
				return
			}
			for i := range stageRecs {
				stageRecs[i] = append(stageRecs[i], rec.Stage(i))
			}
			finished[rec.Shard] = append(finished[rec.Shard], rec)
		})
	}

	gens := newGens(cl, winRq, sc)
	chunk := cfg.window / windowChunks
	hostNs := make([]int64, windowChunks)
	ops := make([]int, windowChunks)
	heap := newHeapReader()
	// Collect the set-up's garbage, so the window neither pays for it nor
	// counts it in the heap peak.
	runtime.GC()

	win := sp.begin("window", root)
	before := take(cl, sc)
	s = sp.begin("fault-injection", win)
	faultStart, err := sc.inject(cl)
	if err != nil {
		return nil, err
	}
	sp.end(s)
	start := int64(cl.Now())
	arm(cl, gens)
	var prof bytes.Buffer
	if cfg.traced {
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return nil, err
		}
	}
	_, allocs0 := heap.read()
	wall0 := time.Now()
	acked := 0
	for c := 0; c < windowChunks; c++ {
		s := sp.begin("run-chunk", win)
		h0 := time.Now()
		cl.Run(chunk)
		hostNs[c] = time.Since(h0).Nanoseconds()
		sp.end(s)
		a, _ := totals(gens)
		ops[c], acked = a-acked, a
		if hb, _ := heap.read(); hb > res.heapPeak {
			res.heapPeak = hb
		}
	}
	res.hostNs = time.Since(wall0).Nanoseconds()
	_, allocs1 := heap.read()
	res.allocs = allocs1 - allocs0
	sp.end(win)
	if cfg.traced {
		pprof.StopCPUProfile()
		cl.Tracer().OnFinish(nil)
	}
	after := take(cl, sc)
	res.events = after.events - before.events
	res.windowOps = acked
	res.chunkCost = chunkCosts(hostNs, ops)

	s = sp.begin("drain", root)
	drain(cl, gens, w.drainLimit)
	sp.end(s)
	end := int64(cl.Now()) - start

	s = sp.begin("saturation", root)
	loops := make([]*closedLoop, cl.ShardCount())
	for sh := range loops {
		loops[sh] = newClosedLoop(cl.Shard(sh), sc.closedSubmit(cl, sh))
		loops[sh].start(satStart[sh], w.saturation)
	}
	cl.Run(w.saturation)
	satOps := 0
	for _, l := range loops {
		if l.err != nil {
			return nil, fmt.Errorf("saturation phase: %w", l.err)
		}
		satOps += l.acked
	}
	// Let the last in-flight requests commit and replicas apply.
	cl.Run(5 * time.Millisecond)
	sp.end(s)

	s = sp.begin("check", root)
	defer sp.end(s)
	if err := sc.check(cl, winRq); err != nil {
		return nil, err
	}
	for i, c := range winRq.calls {
		if c > 1 {
			return nil, fmt.Errorf("request %d acknowledged %d times", i, c)
		}
	}
	sim, err := simMetrics(winRq, gens, cfg.window, end)
	if err != nil {
		return nil, err
	}
	sim.MaxOpsPerS = float64(satOps) / w.saturation.Seconds()
	res.sim = sim

	alerts, detection := 0, int64(0)
	if tl := cl.Telemetry(); tl != nil {
		for _, a := range tl.Alerts() {
			if a.Firing && a.AtNs >= start {
				if alerts == 0 {
					detection = a.AtNs - start - faultStart.Nanoseconds()
				}
				alerts++
			}
		}
	}
	res.counts = layerCounts(before, after, acked, alerts, detection)
	if cfg.traced && !w.faults {
		if res.trace, err = matchTrace(finished, gens); err != nil {
			return nil, err
		}
	}
	if cfg.traced {
		res.regCounts = registryCounts(before.reg, after.reg, acked)
		for i := range stageRecs {
			sort.Slice(stageRecs[i], func(a, b int) bool { return stageRecs[i][a] < stageRecs[i][b] })
		}
		res.stages = stageRecs
		res.shares, res.profiled, err = hostShares(prof.Bytes())
		if err != nil {
			return nil, err
		}
	}
	return res, nil
}

// simMetrics computes the simulated-time results of the window.
func simMetrics(rq *requests, gens []*gen, window time.Duration, end int64) (simResult, error) {
	var r simResult
	lat := make([]int64, len(rq.due))
	inWindow := 0
	for i := range rq.due {
		if rq.ack[i] >= 0 {
			lat[i] = rq.ack[i] - rq.due[i]
			if rq.ack[i] < window.Nanoseconds() {
				inWindow++
			}
		} else {
			lat[i] = missed
			r.Failed++
		}
	}
	sort.Slice(lat, func(a, b int) bool { return lat[a] < lat[b] })
	r.Attempted, r.Samples = len(lat), len(lat)
	r.P50 = percentile(lat, 0.5)
	p999, err := tailPercentile(lat, 0.999)
	if err != nil {
		return r, err
	}
	r.P999 = p999
	r.OpsPerS = float64(inWindow) / window.Seconds()
	for _, g := range gens {
		if g.late > r.LateNs {
			r.LateNs = g.late
		}
	}
	if r.LateNs != 0 {
		return r, fmt.Errorf("generator ran %d ns late in simulated time", r.LateNs)
	}
	r.UnavailableNs = longestStall(rq.due, rq.ack, end)
	return r, nil
}

// traceMatch is how otrace's per-entry boundaries compare with the
// benchmark's own request clock.
type traceMatch struct {
	requests  int   // requests covered by a traced entry
	preSubmit int64 // sum over them of B0 - scheduled arrival
	overshoot int64 // sum over them of B6 - acknowledgement
}

// matchTrace checks otrace against the benchmark's own clock. Each
// shard commits its entries in submission order, so the shard's traced
// entries, in the order they finished, cover its requests in arrival
// order: a plain entry one request, a batch entry rec.Ops of them.
// Every covered request must have been acknowledged, its entry must not
// start (B0) before the request's scheduled arrival, and the entry's
// commit boundary B6 must be the acknowledgement, unless otrace's
// monotone pass raised it to a later stage mark (B6 == B5). Requests
// the batcher queued start at the flush, and a raised B6 overshoots the
// commit; the sums of both gaps are returned, because by them the
// stages do not add up to the measured commit latency. Faulted
// workloads are not matched: a client retry re-proposes a request as a
// new entry.
func matchTrace(finished [][]otrace.OpRecord, gens []*gen) (traceMatch, error) {
	var m traceMatch
	for s, g := range gens {
		next := 0
		for _, rec := range finished[s] {
			if next+rec.Ops > len(g.idx) {
				return m, fmt.Errorf("otrace: shard %d finished more client ops than it was sent", s)
			}
			for _, i := range g.idx[next : next+rec.Ops] {
				ack, due := g.rq.ack[i], g.start+g.rq.due[i]
				if ack < 0 {
					return m, fmt.Errorf("otrace: shard %d committed an entry holding request %d, which was never acknowledged", s, i)
				}
				ack += g.start
				switch {
				case rec.B[0] < due:
					return m, fmt.Errorf("otrace: shard %d request %d was due at %d ns, its entry started at %d ns", s, i, due, rec.B[0])
				case rec.B[6] < ack || (rec.B[6] > ack && rec.B[6] != rec.B[5]):
					return m, fmt.Errorf("otrace: shard %d request %d was acknowledged at %d ns, its entry committed at %d ns (%v)",
						s, i, ack, rec.B[6], rec.B)
				}
				m.preSubmit += rec.B[0] - due
				m.overshoot += rec.B[6] - ack
			}
			next += rec.Ops
			m.requests += rec.Ops
		}
	}
	return m, nil
}

// waitReady advances until every shard has an accelerated leader with
// write paths to all of its replicas.
func waitReady(cl *p4ce.Cluster, nodes int) error {
	for deadline := cl.Now() + time.Second; cl.Now() < deadline; {
		cl.Run(50 * time.Microsecond)
		ready := true
		for s := 0; s < cl.ShardCount() && ready; s++ {
			l := cl.ShardLeader(s)
			ready = l != nil && l.Accelerated() && l.ReplicationPaths() == nodes-1
		}
		if ready {
			return nil
		}
	}
	return fmt.Errorf("no ready leader within 1s of simulated time")
}

// drain advances until every request of gens completed, or limit
// passes; stragglers then count as failed.
func drain(cl *p4ce.Cluster, gens []*gen, limit time.Duration) {
	for deadline := cl.Now() + limit; cl.Now() < deadline; {
		done := true
		for _, g := range gens {
			done = done && g.settled()
		}
		if done {
			return
		}
		cl.Run(100 * time.Microsecond)
	}
}

package main

import (
	"strings"
	"testing"

	"p4ce/internal/otrace"
)

// traceFixture is one shard's window of four requests, due at 0, 100,
// 200 and 300 ns after a start of 1000; the last two commit together.
func traceFixture() []*gen {
	rq := &requests{due: []int64{0, 100, 200, 300}, ack: []int64{500, 600, 700, 700}}
	return []*gen{{rq: rq, idx: []int32{0, 1, 2, 3}, start: 1000}}
}

func entry(batch bool, ops int, b ...int64) otrace.OpRecord {
	r := otrace.OpRecord{Batch: batch, Ops: ops}
	copy(r.B[:], b)
	return r
}

func TestMatchTrace(t *testing.T) {
	finished := [][]otrace.OpRecord{{
		entry(false, 1, 1000, 1100, 1200, 1300, 1400, 1500, 1500), // on time
		entry(false, 1, 1150, 1200, 1300, 1400, 1500, 1600, 1600), // queued 50 ns, flushed alone
		entry(true, 2, 1350, 1400, 1500, 1600, 1700, 1750, 1750),  // batch; B6 raised past 1700 to B5
	}}
	m, err := matchTrace(finished, traceFixture())
	if err != nil {
		t.Fatal(err)
	}
	// Pre-submit 0 + 50 + (150 + 50) ns, overshoot 0 + 0 + (50 + 50) ns.
	if m.requests != 4 || m.preSubmit != 250 || m.overshoot != 100 {
		t.Errorf("matched %d requests, pre-submit %d ns, overshoot %d ns; want 4, 250 and 100",
			m.requests, m.preSubmit, m.overshoot)
	}
}

func TestMatchTraceRejects(t *testing.T) {
	for _, c := range []struct {
		name string
		recs []otrace.OpRecord
		want string
	}{
		{"starts before due", []otrace.OpRecord{entry(false, 1, 990, 1100, 1200, 1300, 1400, 1490, 1500)}, "started"},
		{"commits before ack", []otrace.OpRecord{entry(false, 1, 1000, 1100, 1200, 1300, 1400, 1450, 1450)}, "committed"},
		{"commits after ack, not raised", []otrace.OpRecord{entry(false, 1, 1000, 1100, 1200, 1300, 1400, 1450, 1520)}, "committed"},
		{"more ops than requests", []otrace.OpRecord{entry(true, 5, 1000, 1100, 1200, 1300, 1400, 1500, 1500)}, "more client ops"},
	} {
		if _, err := matchTrace([][]otrace.OpRecord{c.recs}, traceFixture()); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want one mentioning %q", c.name, err, c.want)
		}
	}
	g := traceFixture()
	g[0].rq.ack[0] = -1
	if _, err := matchTrace([][]otrace.OpRecord{{entry(false, 1, 1000, 1100, 1200, 1300, 1400, 1500, 1500)}}, g); err == nil {
		t.Error("an entry holding an unacknowledged request was accepted")
	}
}

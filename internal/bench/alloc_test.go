package bench

import (
	"testing"

	"p4ce"
)

// TestZeroAllocSteadyState enforces the pooled hot path's headline
// guarantee: once the free lists are warm, one committed operation on
// the P4CE path — leader propose, switch scatter, replica ACKs, switch
// gather, aggregated ACK, commit, apply on every machine — performs
// zero heap allocations, with metrics enabled or disabled — and with
// the full telemetry pipeline (sim-time sampler, SLO engine, alert
// log) running on top, since the sampler's ring series and the SLO
// engine's integer windows are preallocated at Start.
//
// The warmup must outlast CatchUpWindow (4096 entries) so the
// re-replication caches reach their prune-and-recycle steady state on
// every machine; before that, each append grows a cache that has never
// returned a buffer to the pool.
func TestZeroAllocSteadyState(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-thousand-op warmup")
	}
	cases := []struct {
		name      string
		metrics   bool
		telemetry bool
		// burst is how many proposals one op issues back to back. Past
		// the 16-entry pipeline the adaptive batcher engages: it parks
		// the rest, arms its age-flush timer and coalesces them into a
		// FlagBatch entry when a commit frees a slot.
		burst int
	}{
		{"metrics-on", true, false, 1},
		{"metrics-off", false, false, 1},
		{"telemetry-on", true, true, 1},
		{"batcher", true, false, 24},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cl, leader, err := Steady(p4ce.Options{
				Nodes:           5, // leader + 4 replicas
				Mode:            p4ce.ModeP4CE,
				Seed:            7,
				EnableMetrics:   tc.metrics,
				EnableTelemetry: tc.telemetry,
			})
			if err != nil {
				t.Fatal(err)
			}
			payload := make([]byte, 64)
			outstanding := 0
			var failed error
			done := func(err error) {
				outstanding--
				if err != nil {
					failed = err
				}
			}
			oneOp := func() {
				for i := 0; i < tc.burst; i++ {
					if err := leader.Propose(payload, done); err != nil {
						failed = err
						return
					}
					outstanding++
				}
				for outstanding > 0 && failed == nil {
					if !cl.Step() {
						failed = &stalledError{stage: "alloc gate"}
						return
					}
				}
			}
			for i := 0; i < 6000 && failed == nil; i++ {
				oneOp()
			}
			if failed != nil {
				t.Fatal(failed)
			}
			avg := testing.AllocsPerRun(500, oneOp)
			if failed != nil {
				t.Fatal(failed)
			}
			if avg != 0 {
				t.Fatalf("steady-state committed op allocates %.3f objects/op, want 0", avg)
			}
		})
	}
}

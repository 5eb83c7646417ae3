package mu_test

// Regression: a fallback that loses quorum half-way must stop. fallback
// re-drives every uncommitted proposal through the direct transport in
// log order; when the first re-drive finds the direct transport unready
// it steps down, which flushes the proposal table. The loop used to go
// on and dispatch the next index anyway — a nil proposal over a nil
// transport, and a panic. A card-level NIC reset produces exactly that
// sequence: the direct queue pairs error out first (dropping their
// paths), then the accelerated one, whose error handler calls Fallback.

import (
	"errors"
	"fmt"
	"testing"

	"p4ce/internal/mu"
	"p4ce/internal/otrace"
	"p4ce/internal/sim"
)

// heldTransport is an accelerated transport that accepts every write
// and never acknowledges it, leaving proposals uncommitted.
type heldTransport struct{ writes int }

func (t *heldTransport) Name() string      { return "held" }
func (t *heldTransport) Requests() int     { return 1 }
func (t *heldTransport) AcksNeeded() int   { return 1 }
func (t *heldTransport) AcksExpected() int { return 1 }
func (t *heldTransport) Ready() bool       { return true }
func (t *heldTransport) Replicate([]byte, int, otrace.ID, func(error)) error {
	t.writes++
	return nil
}

func TestFallbackStopsAfterStepDown(t *testing.T) {
	c := newCluster(t, 3, nil)
	leader := c.settle(t, 10*sim.Millisecond)
	held := &heldTransport{}
	leader.SetPreferredTransport(held)

	const uncommitted = 3
	var errs []error
	for i := 0; i < uncommitted; i++ {
		if err := leader.Propose([]byte(fmt.Sprintf("held-%d", i)), func(err error) {
			errs = append(errs, err)
		}); err != nil {
			t.Fatal(err)
		}
	}
	c.k.RunFor(100 * sim.Microsecond)
	if held.writes != uncommitted || len(errs) != 0 {
		t.Fatalf("setup: %d writes held, %d completions; want %d and 0", held.writes, len(errs), uncommitted)
	}

	// The reset drops every direct path; the accelerated transport's
	// error handler then falls back, as core.Engine's does.
	leader.NIC().Reset()
	if !leader.IsLeader() {
		t.Fatal("setup: the reset alone deposed the leader")
	}
	leader.Fallback()

	if leader.IsLeader() {
		t.Fatal("leader kept its role without a quorum of paths")
	}
	if len(errs) != uncommitted {
		t.Fatalf("%d of %d uncommitted proposals completed", len(errs), uncommitted)
	}
	for i, err := range errs {
		if !errors.Is(err, mu.ErrLostQuorum) {
			t.Fatalf("proposal %d failed with %v, want ErrLostQuorum", i, err)
		}
	}
	c.k.RunFor(20 * sim.Millisecond) // the cluster carries on without a panic
}

package main

import (
	"math"
	"math/rand"
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	s := []int64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
	for _, c := range []struct {
		q    float64
		want int64
	}{{0.5, 50}, {0.9, 90}, {0.91, 100}, {0.999, 100}, {0, 10}} {
		if got := percentile(s, c.q); got != c.want {
			t.Errorf("percentile(%v) = %d, want %d", c.q, got, c.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of no samples = %d, want 0", got)
	}
}

func TestTailNeedsTenBeyond(t *testing.T) {
	if got := beyond(10000, 0.999); got != 10 {
		t.Fatalf("beyond(10000, p99.9) = %d, want 10", got)
	}
	if got := beyond(9999, 0.999); got != 9 {
		t.Fatalf("beyond(9999, p99.9) = %d, want 9", got)
	}
	ok := make([]int64, 10000)
	for i := range ok {
		ok[i] = int64(i)
	}
	v, err := tailPercentile(ok, 0.999)
	if err != nil || v != 9989 {
		t.Fatalf("tailPercentile over 10000 = %d, %v; want 9989, nil", v, err)
	}
	if _, err := tailPercentile(ok[:9999], 0.999); err == nil {
		t.Fatal("tailPercentile over 9999 samples accepted a tail with 9 beyond it")
	}
}

func TestMissedRequestsSortLast(t *testing.T) {
	s := []int64{5, 6, 7, missed}
	if got := percentile(s, 1); got != missed {
		t.Fatalf("a failed request must sit beyond every latency, got %d", got)
	}
}

func TestChunkCostsMedianAndP90(t *testing.T) {
	// 100 chunks costing 1..100 ns per op, plus chunks with no commits,
	// which carry no per-op cost and are left out.
	var host []int64
	var ops []int
	for i := 100; i >= 1; i-- {
		host = append(host, int64(i)*4)
		ops = append(ops, 4)
		host = append(host, 1000)
		ops = append(ops, 0)
	}
	costs := chunkCosts(host, ops)
	if len(costs) != 100 {
		t.Fatalf("%d chunk costs, want 100", len(costs))
	}
	if got := quantileF(costs, 0.5); got != 50 {
		t.Errorf("median = %v, want 50", got)
	}
	if got := quantileF(costs, 0.9); got != 90 {
		t.Errorf("p90 = %v, want 90", got)
	}
}

func TestMedianF(t *testing.T) {
	if got := medianF([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median of 3 = %v, want 2", got)
	}
	xs := []float64{4, 1, 3, 2}
	if got := medianF(xs); got != 2.5 {
		t.Errorf("median of 4 = %v, want 2.5", got)
	}
	if xs[0] != 4 {
		t.Error("medianF reordered its input")
	}
}

func TestLongestStall(t *testing.T) {
	cases := []struct {
		name     string
		due, ack []int64
		end      int64
		want     int64
	}{
		// One request at a time: each is outstanding from due to ack.
		{"serial", []int64{0, 100}, []int64{10, 130}, 200, 30},
		// Overlapping requests: the gap between acks counts only once
		// something is outstanding.
		{"overlap", []int64{0, 5, 50}, []int64{20, 30, 55}, 100, 20},
		// Acks out of order: request 1 completes before request 0, so
		// request 0 stays outstanding across the gap 15..40.
		{"reordered", []int64{0, 10}, []int64{40, 15}, 100, 25},
		// A request never acknowledged stalls until the end.
		{"lost", []int64{0, 10}, []int64{5, -1}, 60, 50},
		{"idle", nil, nil, 100, 0},
	}
	for _, c := range cases {
		if got := longestStall(c.due, c.ack, c.end); got != c.want {
			t.Errorf("%s: longestStall = %d, want %d", c.name, got, c.want)
		}
	}
}

func TestPoissonArrivalsAreSeeded(t *testing.T) {
	draw := func(seed int64) *requests {
		return poissonArrivals(rand.New(rand.NewSource(seed)), 1e6, 10*time.Millisecond, 8, func() int32 { return 0 })
	}
	a, b, c := draw(1), draw(1), draw(2)
	if len(a.due) != len(b.due) {
		t.Fatal("same seed drew different arrival counts")
	}
	for i := range a.due {
		if a.due[i] != b.due[i] || a.val[i] != b.val[i] {
			t.Fatal("same seed drew different arrivals")
		}
	}
	if len(a.due) == len(c.due) && a.due[len(a.due)/2] == c.due[len(c.due)/2] {
		t.Error("different seeds drew the same arrivals")
	}
	// About rate x span arrivals (10 ms at 1 M/s), sorted.
	if n := len(a.due); math.Abs(float64(n)-10000) > 400 {
		t.Errorf("%d arrivals in 10 ms at 1 M/s", n)
	}
	for i := 1; i < len(a.due); i++ {
		if a.due[i] < a.due[i-1] {
			t.Fatal("arrivals not in time order")
		}
	}
}

package main

import (
	"fmt"
	"math"
	"sort"
)

// missed marks a request that failed or was never acknowledged: it
// sorts after every real latency, so it misses any latency limit.
const missed = math.MaxInt64

// percentile returns the nearest-rank q-quantile of sorted (ascending).
func percentile(sorted []int64, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(q * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

// beyond reports how many samples rank above the nearest-rank
// q-quantile of n samples.
func beyond(n int, q float64) int {
	return n - int(math.Ceil(q*float64(n)))
}

// tailPercentile returns the q-quantile of sorted and fails unless at
// least ten samples lie beyond it, the smallest tail a percentile may
// rest on.
func tailPercentile(sorted []int64, q float64) (int64, error) {
	if b := beyond(len(sorted), q); b < 10 {
		return 0, fmt.Errorf("p%g over %d samples has %d beyond it, want >= 10", q*100, len(sorted), b)
	}
	return percentile(sorted, q), nil
}

// chunkCosts turns per-chunk host time and committed ops into host ns
// per op for every chunk that committed anything, sorted ascending.
func chunkCosts(hostNs []int64, ops []int) []float64 {
	var out []float64
	for i, h := range hostNs {
		if ops[i] > 0 {
			out = append(out, float64(h)/float64(ops[i]))
		}
	}
	sort.Float64s(out)
	return out
}

// quantileF is the nearest-rank q-quantile of sorted float samples.
func quantileF(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(q * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

// medianF returns the median of xs (mean of the middle pair for even
// counts); xs is not modified.
func medianF(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// longestStall returns the longest interval during which at least one
// request was outstanding and no request was acknowledged. due and ack
// are per-request times (ack < 0: never acknowledged); due must be
// sorted ascending. end closes the observation: a request still
// outstanding then stalls until end.
func longestStall(due, ack []int64, end int64) int64 {
	acks := make([]int64, 0, len(ack))
	for _, a := range ack {
		if a >= 0 {
			acks = append(acks, a)
		}
	}
	sort.Slice(acks, func(i, j int) bool { return acks[i] < acks[j] })
	acks = append(acks, end)
	var (
		longest int64
		prev    int64 = math.MinInt64
		p       int   // earliest-due request not acknowledged before b
	)
	for _, b := range acks {
		// A request acknowledged before b stays acknowledged before
		// every later b, so p only moves forward.
		for p < len(due) && ack[p] >= 0 && ack[p] < b {
			p++
		}
		if p < len(due) && due[p] < b {
			start := due[p]
			if prev > start {
				start = prev
			}
			if b-start > longest {
				longest = b - start
			}
		}
		prev = b
	}
	return longest
}

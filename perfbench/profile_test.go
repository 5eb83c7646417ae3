package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"math"
	"runtime/pprof"
	"testing"
	"time"
)

// pb is a minimal protobuf encoder for building test profiles.
type pb struct{ b []byte }

func (p *pb) varint(field int, v uint64) *pb {
	p.b = binary.AppendUvarint(p.b, uint64(field)<<3)
	p.b = binary.AppendUvarint(p.b, v)
	return p
}

func (p *pb) bytes(field int, v []byte) *pb {
	p.b = binary.AppendUvarint(p.b, uint64(field)<<3|2)
	p.b = binary.AppendUvarint(p.b, uint64(len(v)))
	p.b = append(p.b, v...)
	return p
}

func (p *pb) packed(field int, vs ...uint64) *pb {
	var body []byte
	for _, v := range vs {
		body = binary.AppendUvarint(body, v)
	}
	return p.bytes(field, body)
}

// testProfile builds a gzipped CPU profile. Functions are numbered from
// 1 in the order of funcs; each location holds the listed function ids,
// innermost first (inlining); each sample lists location ids, leaf
// first, with its CPU value.
func testProfile(funcs []string, locs [][]uint64, samples []struct {
	locs  []uint64
	value uint64
}) []byte {
	var prof pb
	strs := append([]string{""}, funcs...)
	for i, s := range samples {
		var sp pb
		if i%2 == 0 {
			sp.packed(1, s.locs...)
			sp.packed(2, 1, s.value)
		} else { // unpacked repeated fields are legal too
			for _, l := range s.locs {
				sp.varint(1, l)
			}
			sp.varint(2, 1).varint(2, s.value)
		}
		prof.bytes(2, sp.b)
	}
	for i, fns := range locs {
		var lp pb
		lp.varint(1, uint64(i+1))
		for _, f := range fns {
			var line pb
			line.varint(1, f).varint(2, 42)
			lp.bytes(4, line.b)
		}
		prof.bytes(4, lp.b)
	}
	for i := range funcs {
		var fp pb
		fp.varint(1, uint64(i+1)).varint(2, uint64(i+1)).varint(4, 0)
		prof.bytes(5, fp.b)
	}
	for _, s := range strs {
		prof.bytes(6, []byte(s))
	}
	var gz bytes.Buffer
	w := gzip.NewWriter(&gz)
	w.Write(prof.b)
	w.Close()
	return gz.Bytes()
}

func TestHostSharesInnermostRepoFrame(t *testing.T) {
	funcs := []string{
		"container/heap.Push",                    // 1
		"p4ce/internal/sim.(*Kernel).Step",       // 2
		"hash/crc32.Update",                      // 3
		"p4ce/internal/roce.icrc",                // 4
		"runtime.gcBgMarkWorker",                 // 5
		"p4ce.(*Cluster).Run",                    // 6
		"p4ce/perfbench.(*gen).tick",             // 7
		"p4ce/internal/tofino.(*Table[...]).Get", // 8
	}
	locs := [][]uint64{
		{1},    // 1: heap.Push
		{2},    // 2: sim.Step
		{3, 4}, // 3: crc32 inlined into roce.icrc
		{5},    // 4: GC worker
		{6},    // 5: root package
		{7},    // 6: this benchmark
		{8},    // 7: generic method in tofino
		{3},    // 8: crc32, not inlined
		{4},    // 9: roce.icrc
	}
	samples := []struct {
		locs  []uint64
		value uint64
	}{
		{[]uint64{1, 2}, 300},   // container/heap under the event queue: sim
		{[]uint64{3, 2}, 150},   // inlined crc32 inside roce: roce
		{[]uint64{8, 9, 2}, 50}, // crc32 called from roce: roce
		{[]uint64{4}, 100},      // no repository frame: runtime
		{[]uint64{5}, 50},       // root
		{[]uint64{6, 5}, 250},   // the benchmark frame is innermost
		{[]uint64{7, 2}, 100},   // generic instantiation: tofino
	}
	shares, n, err := hostShares(testProfile(funcs, locs, samples))
	if err != nil {
		t.Fatal(err)
	}
	if n != len(samples) {
		t.Fatalf("decoded %d samples, want %d", n, len(samples))
	}
	want := map[string]float64{"sim": 30, "roce": 20, "runtime": 10, "root": 5, "bench": 25, "tofino": 10}
	sum := 0.0
	for _, l := range hostLayers {
		sum += shares[l]
		if math.Abs(shares[l]-want[l]) > 1e-9 {
			t.Errorf("%s = %v%%, want %v%%", l, shares[l], want[l])
		}
	}
	if math.Abs(sum-100) > 1e-9 {
		t.Errorf("shares sum to %v%%, want 100%%", sum)
	}
	if len(shares) != len(hostLayers) {
		t.Errorf("%d layers reported, want every one of %d", len(shares), len(hostLayers))
	}
}

func TestHostSharesRejectsUnlistedPackage(t *testing.T) {
	prof := testProfile([]string{"p4ce/internal/newlayer.f"}, [][]uint64{{1}},
		[]struct {
			locs  []uint64
			value uint64
		}{{[]uint64{1}, 10}})
	if _, _, err := hostShares(prof); err == nil {
		t.Fatal("a sample in a package outside hostLayers was accepted")
	}
}

//go:noinline
func spin(d time.Duration) (x uint64) {
	for end := time.Now().Add(d); time.Now().Before(end); {
		for i := 0; i < 1000; i++ {
			x = x*6364136223846793005 + 1
		}
	}
	return x
}

// TestHostSharesRealProfile decodes a profile written by runtime/pprof.
func TestHostSharesRealProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("CPU profiler unavailable: %v", err)
	}
	spin(300 * time.Millisecond)
	pprof.StopCPUProfile()
	shares, n, err := hostShares(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Skip("profile holds no samples")
	}
	sum := 0.0
	for _, v := range shares {
		sum += v
	}
	if math.Abs(sum-100) > 1e-6 {
		t.Errorf("shares sum to %v%%, want 100%%", sum)
	}
	if shares["bench"] < 50 {
		t.Errorf("bench share %v%% of a profile spent spinning in the benchmark", shares["bench"])
	}
}

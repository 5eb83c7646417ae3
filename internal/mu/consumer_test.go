package mu

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"testing"
)

// TestConsumerPollRejectsWithoutMoving pins the slot-rejection rules:
// whatever sits at the read offset, if it is not the expected next
// entry of this log, Poll consumes nothing and leaves the read offset,
// expected index and chain term where they were.
func TestConsumerPollRejectsWithoutMoving(t *testing.T) {
	const ringSize = 8 << 20
	const readOff = 96
	const next, last = uint64(7), uint32(3)
	cases := []struct {
		name string
		slot func(buf []byte)
	}{
		{"stale lap claiming a multi-MiB length", func(buf []byte) {
			// The header of an older lap, misaligned by the entries
			// written since: its length field is whatever bytes now sit
			// there, here 6 MiB of claimed payload.
			binary.BigEndian.PutUint32(buf[readOff:], 6<<20)
			binary.BigEndian.PutUint64(buf[readOff+12:], 0x0102030405060708)
		}},
		{"valid entry with the wrong index", func(buf []byte) {
			copy(buf[readOff:], EncodeEntry(&Entry{Term: last, PrevTerm: last, Index: next - 2, Data: []byte("old lap")}))
		}},
		{"valid entry with the wrong PrevTerm", func(buf []byte) {
			copy(buf[readOff:], EncodeEntry(&Entry{Term: last, PrevTerm: last - 1, Index: next, Data: []byte("forked")}))
		}},
		{"expected entry with a torn payload", func(buf []byte) {
			enc := EncodeEntry(&Entry{Term: last, PrevTerm: last, Index: next, Data: []byte("half written")})
			enc[entryHeaderBytes] ^= 0xFF
			copy(buf[readOff:], enc)
		}},
		{"length running past the ring", func(buf []byte) {
			binary.BigEndian.PutUint32(buf[readOff:], ringSize-readOff-entryHeaderBytes)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			buf := make([]byte, ringSize)
			tc.slot(buf)
			c := NewConsumer(buf, next)
			c.readOff, c.lastTerm = readOff, last
			c.OnReceive = func(e Entry) { t.Fatalf("delivered entry %d", e.Index) }
			if n := c.Poll(); n != 0 {
				t.Fatalf("Poll consumed %d entries", n)
			}
			if c.ReadOffset() != readOff || c.NextIndex() != next || c.LastTerm() != last {
				t.Fatalf("consumer moved: readOff=%d nextIndex=%d lastTerm=%d",
					c.ReadOffset(), c.NextIndex(), c.LastTerm())
			}
		})
	}
}

// BenchmarkConsumerPollStale measures one Poll that finds a stale
// header at the expected slot. Its ns/op must not grow with the length
// the stale header claims: the header is rejected before any byte of
// the claimed extent is checksummed.
func BenchmarkConsumerPollStale(b *testing.B) {
	const ringSize = 4 << 20
	for _, claim := range []int{64, 64 << 10, ringSize - entryHeaderBytes - entryTrailerBytes} {
		b.Run(fmt.Sprintf("claim=%d", claim), func(b *testing.B) {
			buf := make([]byte, ringSize)
			binary.BigEndian.PutUint32(buf, uint32(claim))
			binary.BigEndian.PutUint64(buf[12:], 1) // an index from an earlier lap
			c := NewConsumer(buf, 1<<20)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if c.Poll() != 0 {
					b.Fatal("consumed a stale entry")
				}
			}
		})
	}
}

// BenchmarkConsumerPollEntry measures the accept path: one 64-byte
// entry decoded, CRC-verified and delivered per Poll.
func BenchmarkConsumerPollEntry(b *testing.B) {
	buf := make([]byte, 4<<20)
	enc := EncodeEntry(&Entry{Term: 1, PrevTerm: 1, Index: 1, Data: make([]byte, 64)})
	copy(buf, enc)
	c := NewConsumer(buf, 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.readOff, c.nextIndex, c.lastTerm = 0, 1, 1
		if c.Poll() != 1 {
			b.Fatal("entry not consumed")
		}
	}
}

// refConsumer is the reference the differential fuzz target checks
// Poll against: the consumer as it was before the header-first
// ordering, which decodes (and so CRCs) every slot in full before
// comparing its index and PrevTerm with what it expects.
type refConsumer struct {
	buf               []byte
	readOff           int
	nextIndex         uint64
	lastTerm          uint32
	allowRewind       bool
	markTerm, markSeq uint32
}

func (r *refConsumer) poll(onEntry func(Entry, int), onRewind func(uint64, uint32, int)) int {
	n := 0
	for {
		if r.allowRewind && len(r.buf)-r.readOff >= rewindMarkBytes &&
			binary.BigEndian.Uint32(r.buf[r.readOff:]) == rewindMark {
			rec := r.buf[r.readOff : r.readOff+rewindMarkBytes]
			if crc32.ChecksumIEEE(rec[:28]) != binary.BigEndian.Uint32(rec[28:]) {
				return n
			}
			term, seq := binary.BigEndian.Uint32(rec[20:]), binary.BigEndian.Uint32(rec[24:])
			if term < r.markTerm || (term == r.markTerm && seq <= r.markSeq) {
				return n
			}
			r.markTerm, r.markSeq = term, seq
			r.nextIndex = binary.BigEndian.Uint64(rec[4:])
			r.lastTerm = binary.BigEndian.Uint32(rec[12:])
			r.readOff = int(binary.BigEndian.Uint32(rec[16:]))
			onRewind(r.nextIndex, r.lastTerm, r.readOff)
			continue
		}
		e, next, wrapped, ok := DecodeEntryAt(r.buf, r.readOff)
		if wrapped {
			if r.readOff == 0 {
				return n
			}
			r.readOff = 0
			continue
		}
		if !ok || e.Index != r.nextIndex || e.PrevTerm != r.lastTerm {
			return n
		}
		onEntry(e, r.readOff)
		r.readOff = next
		r.nextIndex++
		r.lastTerm = e.Term
		n++
	}
}

// consumerEvent is one observable step of a consumer: an accepted entry
// or an acted-on rewind marker.
type consumerEvent struct {
	rewind   bool
	index    uint64
	term     uint32
	prevTerm uint32
	commit   uint64
	flags    uint8
	off      int
	data     string
}

// FuzzConsumerPoll runs Poll and the CRC-first reference over arbitrary
// ring bytes, then over the same ring with a patch written into it (a
// later RDMA write landing), and requires the same accepted entries,
// the same rewinds and the same final position from both — and no
// panic from either.
func FuzzConsumerPoll(f *testing.F) {
	for _, s := range consumerFuzzSeeds() {
		f.Add(s.ring, s.patch, s.patchOff, s.start, s.first, s.lastTerm, s.rewind)
	}
	f.Fuzz(func(t *testing.T, ring, patch []byte, patchOff, start uint16, first uint64, lastTerm uint32, rewind bool) {
		if len(ring) > 1<<16 {
			ring = ring[:1<<16]
		}
		buf := append([]byte(nil), ring...)
		off := 0
		if len(buf) > 0 {
			off = int(start) % len(buf)
		}
		c := NewConsumer(buf, first)
		c.readOff, c.lastTerm, c.allowRewind = off, lastTerm, rewind
		ref := &refConsumer{buf: buf, readOff: off, nextIndex: first, lastTerm: lastTerm, allowRewind: rewind}

		var got, want []consumerEvent
		entry := func(dst *[]consumerEvent) func(Entry, int) {
			return func(e Entry, off int) {
				*dst = append(*dst, consumerEvent{index: e.Index, term: e.Term, prevTerm: e.PrevTerm,
					commit: e.CommitIndex, flags: e.Flags, off: off, data: string(e.Data)})
			}
		}
		rewound := func(dst *[]consumerEvent) func(uint64, uint32, int) {
			return func(target uint64, keptTerm uint32, off int) {
				*dst = append(*dst, consumerEvent{rewind: true, index: target, term: keptTerm, off: off})
			}
		}
		c.OnReceiveAt = entry(&got)
		c.OnRewind = rewound(&got)
		for round := 0; round < 2; round++ {
			if round == 1 && len(buf) > 0 {
				copy(buf[int(patchOff)%len(buf):], patch)
			}
			n := c.Poll()
			m := ref.poll(entry(&want), rewound(&want))
			if n != m {
				t.Fatalf("round %d: Poll consumed %d entries, reference %d", round, n, m)
			}
			if len(got) != len(want) {
				t.Fatalf("round %d: Poll saw %+v, reference %+v", round, got, want)
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("round %d, event %d: Poll %+v, reference %+v", round, i, got[i], want[i])
				}
			}
			if c.readOff != ref.readOff || c.nextIndex != ref.nextIndex || c.lastTerm != ref.lastTerm {
				t.Fatalf("round %d: Poll at (off %d, index %d, term %d), reference at (%d, %d, %d)", round,
					c.readOff, c.nextIndex, c.lastTerm, ref.readOff, ref.nextIndex, ref.lastTerm)
			}
		}
	})
}

type consumerFuzzSeed struct {
	ring, patch     []byte
	patchOff, start uint16
	first           uint64
	lastTerm        uint32
	rewind          bool
}

// consumerFuzzSeeds builds rings the way the leader does — entries
// placed by Ring, wrap marks at the lap boundary, rewind marks from the
// divergence repair — so the fuzzer starts from well-formed logs and
// mutates toward the edges. The committed corpus under testdata/fuzz
// holds the same seeds.
func consumerFuzzSeeds() []consumerFuzzSeed {
	const size = 512
	lap := func(from uint64, n int, term uint32, payload int) ([]byte, *Ring) {
		buf := make([]byte, size)
		r := NewRing(size)
		prev := term
		if from == 1 {
			prev = 0
		}
		for i := 0; i < n; i++ {
			e := &Entry{Term: term, PrevTerm: prev, Index: from + uint64(i), CommitIndex: from + uint64(i) - 1,
				Data: bytes.Repeat([]byte{byte('a' + i)}, payload)}
			off, markOff, mark, _ := r.Place(e.EncodedSize())
			if mark {
				copy(buf[markOff:], WrapMarkBytes())
			}
			copy(buf[off:], EncodeEntry(e))
			prev = term
		}
		return buf, r
	}
	var seeds []consumerFuzzSeed

	// A fresh log: three entries from index 1.
	fresh, _ := lap(1, 3, 1, 16)
	seeds = append(seeds, consumerFuzzSeed{ring: fresh, first: 1})

	// A log past its first wrap: the consumer sits near the end of the
	// ring, reads the wrap mark, and resumes at offset zero, where the
	// new lap overwrote the head of the old one.
	wrapped, _ := lap(1, 7, 2, 44)
	second := (&Entry{Data: make([]byte, 44)}).EncodedSize()
	seeds = append(seeds, consumerFuzzSeed{ring: wrapped, start: uint16(second), first: 2, lastTerm: 2})

	// A stale lap: a second lap of larger entries has overwritten part
	// of the first, so the slot after the last new entry holds the
	// misaligned middle of an old one. The patch then writes the entry
	// the consumer expects there.
	stale, _ := lap(1, 8, 1, 20)
	newer, r := lap(9, 2, 1, 60)
	copy(stale, newer[:r.Offset()])
	next := &Entry{Term: 1, PrevTerm: 1, Index: 11, CommitIndex: 10, Data: []byte("next")}
	seeds = append(seeds, consumerFuzzSeed{ring: stale, patch: EncodeEntry(next), patchOff: uint16(r.Offset()),
		start: uint16(r.Offset()), first: 11, lastTerm: 1})

	// A broken chain at the expected slot, then the real entry over it.
	chain, r := lap(1, 2, 2, 8)
	forked := &Entry{Term: 1, PrevTerm: 1, Index: 3, Data: []byte("forked")}
	copy(chain[r.Offset():], EncodeEntry(forked))
	fix := &Entry{Term: 2, PrevTerm: 2, Index: 3, Data: []byte("real")}
	seeds = append(seeds, consumerFuzzSeed{ring: chain, patch: EncodeEntry(fix), patchOff: uint16(r.Offset()),
		first: 1, rewind: true})

	// A divergence repair: the consumer read a stale suffix; a new
	// leader left a rewind mark at the consume position and rewrote the
	// suffix from the committed prefix on.
	rw, r := lap(1, 3, 1, 12)
	keep := (&Entry{Data: make([]byte, 12)}).EncodedSize()
	markOff := r.Offset()
	clear(rw[keep:markOff])
	copy(rw[markOff:], EncodeRewindMark(2, 1, keep, 2, 1))
	repl := &Entry{Term: 2, PrevTerm: 1, Index: 2, CommitIndex: 1, Data: []byte("replacement")}
	seeds = append(seeds, consumerFuzzSeed{ring: rw, patch: EncodeEntry(repl), patchOff: uint16(keep),
		start: uint16(markOff), first: 4, lastTerm: 1, rewind: true})
	return seeds
}

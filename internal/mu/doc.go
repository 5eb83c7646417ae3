// Package mu implements the decision plane P4CE adopts unchanged from
// Mu (Aguilera et al., OSDI '20): every machine keeps a log in RDMA-
// registered memory; the machine with the lowest identifier among the
// live ones is the leader; liveness is established through heartbeat
// counters that every machine reads over RDMA; replicas grant log-write
// permission exclusively to the machine they believe is the leader,
// which fences deposed leaders at the NIC level; and a value is decided
// once the NICs of f replicas have acknowledged the leader's write.
//
// The replication *transport* — how the leader's write physically
// reaches the replicas — is pluggable: package mu provides the direct
// per-replica transport (Mu proper), and package core provides the
// switch-accelerated transport (P4CE). A node prefers its accelerated
// transport whenever it reports Ready and falls back to the direct one
// on any acknowledged error.
//
// # Batching
//
// The leader carries an adaptive client-op batcher (batch.go): while
// the RDMA pipeline has free slots, every Propose takes the classic
// one-op-one-entry path byte for byte; past saturation, proposals queue
// and flush as one FlagBatch entry when a slot frees, a size bound is
// hit, or the oldest op has waited long enough. Appliers walk FlagBatch
// payloads with BatchIter.
//
// # Consuming the log
//
// Replicas follow the log with a Consumer. Poll inspects only the
// expected slot, and the CRC runs only on a candidate: the header at
// the read offset must carry the next index and the chained PrevTerm
// before its payload is checksummed. Once the ring has wrapped, that
// slot usually holds a stale header from an earlier lap, and rejecting
// it costs the same whatever length it claims.
//
// # Buffer ownership
//
// Propose copies the caller's bytes before returning, so callers reuse
// their buffers immediately. Internally the ring log, the
// re-replication cache and the batch queue all draw on the kernel's
// Buffers pool, and apply callbacks receive views that die when the
// callback returns — the same aliasing rule as the wire layers below.
package mu

#!/bin/sh
# Full verification gate: vet, build, the plain test suite, the
# race-detector pass, and the benchmark regression gate. CI and
# `make check` both run this.
set -eu
cd "$(dirname "$0")/.."

echo "== go vet =="
go vet ./...

echo "== go build =="
go build ./...

echo "== go test =="
# The chaos package alone runs the 32-seed sweep (~6 min); give every
# package binary headroom over the 10-minute default.
go test -timeout 20m ./...

echo "== go test -race =="
# Race multiplies each scenario run ~10x; the chaos seed sweeps skip
# themselves under race (the fixed-seed suite still runs every
# scenario twice under the detector — see seed_sweep_test.go) but the
# package still needs headroom over the default timeout.
go test -race -timeout 20m ./...

echo "== examples =="
# Every example must build; the two that exercise the public surface
# end to end (single-group and sharded) must also run clean. Each
# exits nonzero if its own invariants fail.
go build ./examples/...
go run ./examples/quickstart >/dev/null
go run ./examples/sharded >/dev/null

echo "== log consumer fuzz =="
# A short differential run of the replica log consumer against its
# CRC-first reference over arbitrary ring bytes, starting from the
# committed corpus in internal/mu/testdata/fuzz.
go test ./internal/mu -run xxx -fuzz FuzzConsumerPoll -fuzztime 10s

echo "== allocs/op gate =="
# The zero-allocation contract: one committed op on the steady-state
# P4CE path performs no heap allocations — metrics on or off, and with
# the telemetry sampler and SLO engine running on top.
go test ./internal/bench -run TestZeroAllocSteadyState -count=1

echo "== trace export gate =="
# The causal tracer must stay a pure observer with deterministic
# exports: the dedicated tests pin both properties, then a simulator
# run proves the CLI path end to end (writes and re-reads a Perfetto
# trace).
go test . -run 'TestTracingIsPureObserver|TestTraceExportDeterministic' -count=1
go run ./cmd/p4ce-sim -rate 10000 -duration 20ms -trace-out /tmp/p4ce-trace-check.json >/dev/null
grep -q traceEvents /tmp/p4ce-trace-check.json
rm -f /tmp/p4ce-trace-check.json

echo "== telemetry determinism gate =="
# The telemetry pipeline's contract: enabling it leaves consensus
# untouched, exports are byte-identical at any partition count, and
# per-shard SLO alerts stay isolated. The dedicated tests pin all
# three, then a simulator run proves the CLI path: the OpenMetrics
# export from a classic-kernel run must equal the one from a
# two-partition run of the same seed, byte for byte.
go test . -run 'TestTelemetryIsConsensusNeutral|TestTelemetryExportPartitionInvariant|TestTelemetryPerShardAlertIsolation' -count=1
go run ./cmd/p4ce-sim -rate 20000 -duration 20ms -telemetry-out /tmp/p4ce-tel-p1.om >/dev/null
go run ./cmd/p4ce-sim -rate 20000 -duration 20ms -partitions 2 -telemetry-out /tmp/p4ce-tel-p2.om >/dev/null
cmp /tmp/p4ce-tel-p1.om /tmp/p4ce-tel-p2.om
rm -f /tmp/p4ce-tel-p1.om /tmp/p4ce-tel-p2.om

echo "== parallel kernel determinism gate =="
# The partitioned scheduler's contract: same seed, any partition count,
# bit-identical commits, event totals and trace exports — checked under
# the race detector, chaos scenarios included.
go test -race -timeout 20m . -run TestParallelKernelDeterminism -count=1
go test -race -timeout 20m ./internal/chaos -run TestParallelSeedSweep -short -count=1

echo "== fabric chaos sweep gate =="
# The leaf-spine fabric's fault-tolerance contract: the three fabric
# scenarios (spine loss, rack partition, ToR failover under load) pass
# their invariant suite, the hierarchical gather is bit-identical
# across partition counts, and a standby adoption loses no commits.
go test ./internal/chaos -run 'TestScenarioSpineLoss|TestScenarioRackPartition|TestScenarioTorFailoverUnderLoad' -count=1
go test . -run 'TestFabricGatherDeterminism|TestFabricToRFailoverNoLostCommits' -count=1

echo "== bench regression gate =="
go run ./cmd/p4ce-bench -json -profile quick -out BENCH_p4ce.json
./scripts/bench_compare.sh

echo "ok"

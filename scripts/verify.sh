#!/bin/sh
# verify.sh — the tier-1 gate: build, vet, format, doc lint, tests.
# Run from the repository root. Exits non-zero on the first failure.
set -eu
cd "$(dirname "$0")/.."

echo "== go build =="
go build ./...

echo "== go vet =="
go vet ./...

echo "== gofmt =="
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "== doc lint =="
# Every package must open its canonical doc file with a package comment:
# "// Package <name> ..." for libraries, "// Command <name> ..." for mains.
missing=0
for dir in $(go list -f '{{.Dir}}' ./...); do
    name=$(go list -f '{{.Name}}' "$dir")
    if [ "$name" = main ]; then
        want="// Command "
    else
        want="// Package $name"
    fi
    ok=0
    for f in "$dir"/*.go; do
        case "$f" in *_test.go) continue ;; esac
        if grep -q "^$want" "$f"; then
            ok=1
            break
        fi
    done
    if [ "$ok" = 0 ]; then
        echo "missing package comment (want \"$want...\"): $dir" >&2
        missing=1
    fi
done
[ "$missing" = 0 ]

echo "== doc lint (exported identifiers) =="
# The hot-path packages are API surface for the load tooling, and the
# process host is the contract both live runtimes build on: every
# exported top-level identifier in internal/transport, internal/netmesh
# and internal/host must carry a doc comment.
undocumented=0
for dir in internal/transport internal/netmesh internal/host; do
    for f in "$dir"/*.go; do
        case "$f" in *_test.go) continue ;; esac
        found=$(awk '
            /^(func|type|var|const) [A-Z]/ || /^func \([a-zA-Z]+ ?\*?[A-Z][A-Za-z0-9]*\) [A-Z]/ {
                if (prev !~ /^\/\//) print FILENAME ":" FNR ": " $0
            }
            { prev = $0 }
        ' "$f")
        if [ -n "$found" ]; then
            echo "undocumented exports:" >&2
            echo "$found" >&2
            undocumented=1
        fi
    done
done
[ "$undocumented" = 0 ]

echo "== go test =="
go test ./...

echo "== go test -race (concurrency gate) =="
# The live harness, the process host it shares with the socket
# runtime, the transport sublayer, parallel explorer and the
# observability registry are the concurrent core; run their suites
# (plus the facade) under the race detector.
go test -race ./internal/sim/... ./internal/host/ ./internal/transport/... ./internal/conformance/... \
    ./internal/crash/... ./internal/dsim/... ./internal/obs/... ./internal/shard/... \
    ./internal/fleetobs/... ./internal/member/... .

echo "== go test -race (socket runtime gate) =="
# The TCP mesh, its RPC layer and the mod daemon are real-concurrency
# code (listener/dialer goroutines, reconnect loops, OS-process tests);
# their suites run under the race detector too.
go test -race ./internal/netmesh/ ./internal/chanmux/ ./internal/modrpc/ ./cmd/mod/ ./cmd/mostat/

echo "== fault-matrix smoke (short mode) =="
# A quick seeded-loss pass over the fault-injection paths.
go test -short -run 'Fault|Lossy|Partition' ./internal/sim/... ./internal/conformance/...

echo "== crash smoke (recovery gate) =="
# One seeded crash-restart run per protocol class — tagless, tagged
# (causal-rst), general (sync) — under the race detector: each must
# crash, restore its checkpoint, replay its journal, and still deliver
# every message exactly once.
go test -race -run 'TestCrashRestartRecoversEveryProtocol/^(tagless|causal-rst|sync)$' ./internal/sim/

echo "== trace smoke (observability gate) =="
# Run an instrumented causal-order scenario through mobench and validate
# the emitted Chrome trace: well-formed JSON, monotone per-track
# timestamps, every deliver preceded by its send (-validate re-reads the
# file and checks all three).
tracetmp=$(mktemp -d)
trap 'rm -rf "$tracetmp"' EXIT
go run ./cmd/mobench trace -proto causal-rst -o "$tracetmp/trace.json" -validate 2>/dev/null
go run ./cmd/mobench trace -proto causal-rst -lossy -o "$tracetmp/lossy.json" -validate 2>/dev/null

echo "== net smoke (real-process gate) =="
# Build the mod daemon, spawn three of them on loopback, drive the
# seeded causal workload over their client sockets, and diff the
# reassembled user view against the in-memory sim's (mobench exits
# non-zero on any divergence or daemon failure).
go build -o "$tracetmp/mod" ./cmd/mod
go run ./cmd/mobench net -smoke -modbin "$tracetmp/mod"

echo "== keyed-load smoke (open-loop sharded-mesh gate) =="
# The benchmark's keyed-1k workload at smoke size: open-loop traffic
# over 1000 ordering domains on the sharded runtime across a loopback
# mesh, every run's user view validated before a number is printed. It
# is the one workload the benchmark's own TestSmoke does not boot.
go run -C benchmark . -smoke --workload keyed-1k -history "$tracetmp/keyed.ndjson" >/dev/null

echo "== obs-fleet smoke (observability-plane gate) =="
# A short E15 pass: traced-vs-untraced overhead rows, a live scraped
# 3-daemon fleet whose merged timeline must validate causally with zero
# orphaned receives, and a named contention table. The subcommand
# checks the rows it just built and exits non-zero on any violation,
# or on tracing overhead above 50 %.
go run ./cmd/mobench obs -msgs 800 -runs 1 -fleet-msgs 120 >/dev/null

echo "== churn smoke (membership gate) =="
# E16's fast sub-matrix: fifo through a state-transfer join and a
# detector-driven eviction on clean loopback meshes with per-node WALs.
# The subcommand exits non-zero unless every cell passes
# conformance.ChurnCell.Err: surviving views match the sim reference,
# epochs are the operation's, and the eviction names exactly the silent
# process.
go run ./cmd/mobench churn -smoke >/dev/null

echo "== mux smoke (multi-tenant gate) =="
# E17's fast sub-matrix: three channels with distinct guarantee levels
# (tagless / fifo / causal-rst) multiplexed over one 3-process loopback
# mesh, each channel's user view diffed byte-for-byte against its
# standalone sim run across clean, lossy and crash-restart cells. The
# subcommand exits non-zero on any cell failing conformance.MuxCell.Err:
# a divergence, an unknown-channel drop, an unshared mesh, or
# tagless-channel overhead.
go run ./cmd/mobench mux -smoke >/dev/null

echo "== allocation budget (steady-path gate) =="
# The pooled encode, outbox pop and frame read paths must be
# allocation-free once warm, and a connection's decode arena (tags and
# VC stamps) must span its frames. So must the receive path: a frame
# of tagged envelopes decoded into the connection's kept slice, the
# inbox's push and take, handleBatch's ack bookkeeping, and chanmux's
# per-channel demux of a mixed frame. So must the reliable sublayer's
# Wrap → Accept → CumAckFor → Ack cycle, whose pending records live in a
# slab it keeps. And so must a checkpoint, layer by layer: shard's blob
# assembly (nothing per clean domain), the transport's SnapshotState,
# the WAL's copy of the blob, and the host's whole checkpoint of a
# 1000-domain sharded process. Per-message storage costs what it holds:
# a node's user log allocates one chunk per chunk filled, and fifo
# carves its tags from an arena (≤ 1/64 allocation per invoke). So does
# RST at n = 8, whose tags are read where they lie: 32 invoke → receive
# → deliver round trips allocate at most one arena chunk, the receive →
# deliver half nothing, and a warm RST, SES or BSS Snapshot nothing. Run
# without -race (the detector's instrumentation allocates; the tests
# are build-tagged !race).
go test -run 'AllocationBudget|ArenaSpansFrames|SnapshotAllocsScaleWithDirtyDomains|CheckpointCycleReusesJournalArray' \
	./internal/netmesh/ ./internal/chanmux/ ./internal/host/ ./internal/shard/ ./internal/crash/ ./internal/transport/ \
	./internal/protocols/fifo/ ./internal/protocols/causal/

echo "== benchmark module (stack signature gate) =="
# benchmark/ is its own module compiled against this one (replace
# msgorder => ../): a signature change under its stack.go must fail
# here, not when the driver builds the benchmark.
go vet -C benchmark ./...
go test -C benchmark ./...

echo "== idle-hop gate (self-clocked sender) =="
# A mesh sender writes as soon as its socket is free; nothing below the
# protocol may wait for company. sync-n3 crosses three hops per message
# on an idle mesh, so a per-hop timer of any size, reintroduced anywhere
# on the path, multiplies into idle_mid_us (it read ~3000 us with the
# old 100 us flush window, ~50 us without).
if grep -n 'time\.AfterFunc' internal/netmesh/mesh.go; then
    echo "internal/netmesh/mesh.go arms a timer: the send path must clock itself" >&2
    exit 1
fi
idle=$(go run -C benchmark . -smoke --workload sync-n3 -history "$tracetmp/history.ndjson" |
    sed -n '$s/.*"idle_mid_us":{"value":\([0-9.eE+-]*\).*/\1/p')
if ! awk -v v="$idle" 'BEGIN { exit !(v != "" && v + 0 < 500) }'; then
    echo "sync-n3 smoke idle_mid_us = '$idle' us, want < 500" >&2
    exit 1
fi

echo "== nil-tracer overhead smoke =="
# One pass over the explorer benchmarks, uninstrumented and traced: the
# nil-tracer fast path must not break the hot loop (the /traced variant
# asserts records flow; timing comparisons are for humans via -bench).
go test -run '^$' -bench 'BenchmarkExplore/causal-rst-4msg' -benchtime 1x . >/dev/null

echo "verify: OK"

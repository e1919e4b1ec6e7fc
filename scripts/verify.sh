#!/bin/sh
# Full pre-merge verification: vet, build, an arm64 cross-build, a
# no-FMA lint of nn's assembly, the perfbench module's vet and
# self-test, race-enabled tests, the bitwise and golden tests at
# GOMAXPROCS 1, 2 and 3 (the modelled benchmark numbers among them), one
# iteration of every paper benchmark, a run of every example, a
# same-host A/B of the host-timed benchmark rows, and gofmt. The CLI's
# end-to-end checks (same-seed traces, fault tallies, span trees,
# scenario probes) are Go tests in cmd/autolearn, which the race step
# runs.
# Run from the repo root: ./scripts/verify.sh
set -eu

cd "$(dirname "$0")/.."
# Every transcript the steps below write lands in one directory that
# goes whether the run passes or fails.
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
trap 'exit 130' INT TERM HUP

echo "==> go vet ./..."
go vet ./...

echo "==> go build ./..."
go build ./...

# nn's AVX2 kernels are amd64 assembly chosen at run time; every other
# architecture must still vet and build on the portable kernels alone.
echo "==> arm64 cross-build (portable nn kernels)"
GOARCH=arm64 go vet ./internal/nn/...
GOARCH=arm64 go build ./...

# A fused multiply-add rounds once where the portable kernels round
# twice, so a single FMA in nn's assembly would move every golden.
echo "==> no fused multiply-add in internal/nn assembly"
if grep -nE 'VFN?M(ADD|SUB)' internal/nn/*.s; then
    echo "internal/nn/*.s uses a fused multiply-add; keep separate VMULPD/VADDPD" >&2
    exit 1
fi

# perfbench is its own module, so ./... above skips it; building it here
# makes a program API change that breaks the benchmark fail verify.
echo "==> perfbench: go vet ./... && go test ./..."
(cd perfbench && go vet ./... && go test ./...)

echo "==> go test -race ./..."
go test -race ./...

# nn's kernels split their work across GOMAXPROCS workers by default,
# and so does the fleet's trainer pool, and no output may depend on the
# split (README, "invariant to SetMaxWorkers"): the bitwise kernel tests,
# the clone tests, the serving replicas and the goldens run at
# GOMAXPROCS 1, 2 and 3.
echo "==> bitwise and golden tests at -cpu 1,2,3"
go test -count=1 -cpu 1,2,3 \
    -run 'Bitwise|Golden|Determinis|MatchReference|MatchesPortable|KBlocks|ChaosPipeline|FromCheckpoint' \
    . ./internal/nn/... ./internal/core ./internal/scenario ./internal/pilot \
    ./internal/fed ./internal/gossip ./internal/serve

# The paper's experiments are benchmarks, and a benchmark that no longer
# runs is a figure that no longer reproduces: each runs once.
echo "==> every root benchmark, one iteration"
bout=$tmp/bench.txt
go test -run '^$' -bench . -benchtime 1x . >"$bout" 2>&1 || {
    echo "a benchmark failed:" >&2; cat "$bout" >&2; exit 1; }

# The examples are programs too, and nothing else runs them: each must
# exit 0.
echo "==> examples: go run ./examples/NAME"
for dir in examples/*/; do
    name=$(basename "$dir")
    eout=$tmp/example.txt
    go run "./examples/$name" >"$eout" 2>&1 || {
        echo "example $name failed:" >&2; cat "$eout" >&2; exit 1; }
done

# Timed rows are judged on this host alone, in one run: the change
# against its parent and against one pinned baseline commit, so a
# regression that creeps in over several changes still shows. The
# modelled numbers are TestModelledGolden's, exact, in the steps above.
echo "==> same-host A/B of the timed benchmark rows (scripts/ab.sh)"
baseline=81d7daf
if [ -n "$(git status --porcelain)" ]; then parent=HEAD; else parent=HEAD^; fi
./scripts/ab.sh "$parent" "$baseline"

echo "==> gofmt -l ."
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "OK: vet, build, arm64 cross-build, FMA lint, perfbench vet and self-test, race tests, bitwise and golden tests at -cpu 1,2,3, every benchmark, examples, timed-row A/B, and gofmt all clean."

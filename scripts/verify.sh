#!/bin/sh
# Full pre-merge verification: vet, build, an arm64 cross-build, a
# no-FMA lint of nn's assembly, race-enabled tests, the bitwise and
# golden tests at GOMAXPROCS 1, 2 and 3 (the modelled benchmark numbers
# among them), one iteration of every paper benchmark, the perfbench
# module's vet and self-test, a run of every example, fault-profile and
# fault-free pipeline smoke runs (byte-identical same-seed traces), a
# cross-subsystem trace smoke (byte-identical same-seed exports), a
# scenario smoke (library checks, replay determinism, probe tolerance),
# a gossip smoke (byte-identical same-seed overlay runs, partition
# survival vs the star control), a same-host A/B of the host-timed
# benchmark rows, and gofmt.
# Run from the repo root: ./scripts/verify.sh
set -eu

cd "$(dirname "$0")/.."
# Every transcript and trace the steps below write lands in one directory
# that goes whether the run passes or fails.
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

echo "==> pipeline smoke runs (lossy-wan and fault-free, byte-identical same-seed traces)"
metrics=$tmp/pipeline.prom out=$tmp/pipeline.txt
pt1=$tmp/pipeline1.jsonl pt2=$tmp/pipeline2.jsonl
go run ./cmd/autolearn pipeline -faults lossy-wan -metrics "$metrics" -trace "$pt1" >"$out" 2>&1 || {
    echo "fault-profile pipeline failed:" >&2
    cat "$out" >&2
    exit 1
}
if ! grep -q '^== faults:' "$out"; then
    echo "fault-profile pipeline did not complete (no fault summary):" >&2
    cat "$out" >&2
    exit 1
fi
fallbacks=$(awk '$1 == "hybrid_fallbacks_total" {print $2}' "$metrics")
if [ -z "$fallbacks" ] || [ "$fallbacks" -eq 0 ]; then
    echo "hybrid_fallbacks_total missing or zero under lossy-wan (got '${fallbacks:-absent}')" >&2
    exit 1
fi
# A profile is a generated scenario on the virtual clock, so the
# pipeline's fault-run trace is part of the determinism contract too.
go run ./cmd/autolearn pipeline -faults lossy-wan -trace "$pt2" >/dev/null 2>&1 || {
    echo "second traced fault-profile pipeline failed" >&2; exit 1; }
cmp -s "$pt1" "$pt2" || {
    echo "fault-profile smoke: same-seed pipeline runs exported different trace bytes" >&2
    exit 1
}
# Without flags the pipeline runs the empty scenario: the same runtime,
# tally and virtual clock, so its trace replays byte-identically too.
go run ./cmd/autolearn pipeline -trace "$pt1" >"$out" 2>&1 || {
    echo "fault-free pipeline failed:" >&2; cat "$out" >&2; exit 1; }
if ! grep -q '^== faults:' "$out"; then
    echo "fault-free pipeline printed no fault summary (not run as the empty scenario):" >&2
    cat "$out" >&2
    exit 1
fi
go run ./cmd/autolearn pipeline -trace "$pt2" >/dev/null 2>&1 || {
    echo "second traced fault-free pipeline failed" >&2; exit 1; }
cmp -s "$pt1" "$pt2" || {
    echo "fault-free smoke: same-seed pipeline runs exported different trace bytes" >&2
    exit 1
}

echo "==> fed-train trace smoke (cross-subsystem spans, byte-identical runs)"
t1=$tmp/fed1.jsonl t2=$tmp/fed2.jsonl rout=$tmp/report.txt
go run ./cmd/autolearn fed-train -workers 3 -rounds 2 -ticks 240 \
    -faults lossy-wan -seed 1 -trace "$t1" >/dev/null 2>&1 || {
    echo "traced fed-train run failed" >&2; exit 1; }
go run ./cmd/autolearn fed-train -workers 3 -rounds 2 -ticks 240 \
    -faults lossy-wan -seed 1 -trace "$t2" >/dev/null 2>&1 || {
    echo "second traced fed-train run failed" >&2; exit 1; }
cmp -s "$t1" "$t2" || {
    echo "trace smoke: same-seed fed-train runs exported different trace bytes" >&2
    exit 1
}
go run ./cmd/autolearn obs report -trace "$t1" >"$rout" 2>&1 || {
    echo "obs report failed:" >&2; cat "$rout" >&2; exit 1; }
for stage in fed-train fed-round fed_local_train fed_upload fed_aggregate \
    fed_checkpoint netem_transfer objstore_put serve_reload "orphans: 0"; do
    if ! grep -q "$stage" "$rout"; then
        echo "trace smoke: obs report missing \"$stage\":" >&2
        cat "$rout" >&2
        exit 1
    fi
done

echo "==> scenario smoke (library checks, byte-identical replay, probe tolerance)"
# Every checked-in library file must parse, and its canonical form must
# survive a check round-trip (a file the parser rejects or reorders is a
# broken exemplar).
for scn in scenarios/*.scn; do
    go run ./cmd/autolearn scenario check -file "$scn" >/dev/null 2>&1 || {
        echo "scenario smoke: $scn failed scenario check" >&2
        exit 1
    }
done
s1=$tmp/scenario1.jsonl s2=$tmp/scenario2.jsonl
go run ./cmd/autolearn fed-train -workers 3 -rounds 2 -ticks 240 \
    -scenario scenarios/lossy-wan.scn -seed 1 -trace "$s1" >/dev/null 2>&1 || {
    echo "scenario smoke: scenario-scripted fed-train failed" >&2; exit 1; }
go run ./cmd/autolearn fed-train -workers 3 -rounds 2 -ticks 240 \
    -scenario scenarios/lossy-wan.scn -seed 1 -trace "$s2" >/dev/null 2>&1 || {
    echo "scenario smoke: second scenario-scripted fed-train failed" >&2; exit 1; }
cmp -s "$s1" "$s2" || {
    echo "scenario smoke: same-seed scenario runs exported different trace bytes" >&2
    exit 1
}
# lossy-wan declares 3 phases; each must land in the trace as one
# scenario_phase span (fewer means the scheduler dropped a transition).
phases=$(grep -c '"scenario_phase"' "$s1" || true)
if [ "$phases" -ne 3 ]; then
    echo "scenario smoke: trace has $phases scenario_phase spans, want 3" >&2
    exit 1
fi
# The throughput probe must agree with what the scenario declares: stock
# profiles on the clean file, the shaped sag mid-window on lossy-wan.
go run ./cmd/autolearn scenario probe -file scenarios/clean.scn -at 60s >/dev/null || {
    echo "scenario smoke: clean.scn probe out of tolerance" >&2
    exit 1
}
go run ./cmd/autolearn scenario probe -file scenarios/lossy-wan.scn -at 90s >/dev/null || {
    echo "scenario smoke: lossy-wan.scn probe out of tolerance at 90s" >&2
    exit 1
}

echo "==> gossip smoke (byte-identical same-seed traces, partition survival)"
# Same-seed gossip runs must export byte-identical traces: the overlay's
# whole determinism story (canonical parcel-set merges, seeded peer
# selection, billed clocks) collapses to one cmp.
g1=$tmp/gossip1.jsonl g2=$tmp/gossip2.jsonl gout=$tmp/gossip.txt stout=$tmp/star.txt
go run ./cmd/autolearn fed-train -topology gossip -workers 3 -rounds 2 -ticks 240 \
    -faults lossy-wan -seed 1 -trace "$g1" >/dev/null 2>&1 || {
    echo "gossip smoke: traced gossip fed-train run failed" >&2; exit 1; }
go run ./cmd/autolearn fed-train -topology gossip -workers 3 -rounds 2 -ticks 240 \
    -faults lossy-wan -seed 1 -trace "$g2" >/dev/null 2>&1 || {
    echo "gossip smoke: second traced gossip run failed" >&2; exit 1; }
cmp -s "$g1" "$g2" || {
    echo "gossip smoke: same-seed gossip runs exported different trace bytes" >&2
    exit 1
}
for span in gossip-train gossip-round gossip_local_train gossip_exchange \
    gossip_validate netem_transfer; do
    if ! grep -q "\"$span\"" "$g1"; then
        echo "gossip smoke: trace missing \"$span\" spans" >&2
        exit 1
    fi
done
# The headline partition claim, end to end through the CLI: under
# cloud-partition.scn the star fleet stalls (its last round aggregates
# nobody and its loss freezes at the last pre-partition value) while the
# gossip overlay goes headless but keeps converging peer-to-peer.
go run ./cmd/autolearn fed-train -topology gossip -workers 4 -rounds 6 -ticks 400 \
    -seed 7 -scenario scenarios/cloud-partition.scn >"$gout" 2>&1 || {
    echo "gossip smoke: partitioned gossip run failed:" >&2; cat "$gout" >&2; exit 1; }
go run ./cmd/autolearn fed-train -workers 4 -rounds 6 -ticks 400 \
    -seed 7 -scenario scenarios/cloud-partition.scn >"$stout" 2>&1 || {
    echo "gossip smoke: partitioned star run failed:" >&2; cat "$stout" >&2; exit 1; }
grep -q 'headless' "$gout" || {
    echo "gossip smoke: partitioned gossip run reports no headless rounds" >&2
    cat "$gout" >&2
    exit 1
}
g3=$(awk '/^   round 3:/ { print $NF }' "$gout")
g6=$(awk '/^   round 6:/ { print $NF }' "$gout")
s3=$(awk '/^   round 3:/ { print $NF }' "$stout")
s6=$(awk '/^   round 6:/ { print $NF }' "$stout")
if [ -z "$g3" ] || [ -z "$g6" ] || [ -z "$s3" ] || [ -z "$s6" ]; then
    echo "gossip smoke: missing per-round losses (gossip '$g3'/'$g6', star '$s3'/'$s6')" >&2
    exit 1
fi
awk -v a="$g6" -v b="$g3" 'BEGIN { exit !(a + 0 < b + 0) }' || {
    echo "gossip smoke: gossip loss did not improve through the partition ($g3 -> $g6)" >&2
    exit 1
}
[ "$s6" = "$s3" ] || {
    echo "gossip smoke: star loss moved through the partition ($s3 -> $s6); the control is broken" >&2
    exit 1
}
grep -q '0 aggregated' "$stout" || {
    echo "gossip smoke: partitioned star run still aggregated workers" >&2
    exit 1
}

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

echo "OK: vet, build, arm64 cross-build, FMA lint, race tests, bitwise and golden tests at -cpu 1,2,3, every benchmark, perfbench vet and self-test, examples, fault smoke, trace smoke, scenario smoke, gossip smoke, timed-row A/B, and gofmt all clean."

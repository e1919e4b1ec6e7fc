#!/bin/sh
# Reproducible benchmark runner: runs the paper-experiment benchmarks
# (F1-F3, E1-E7, E10-E15) plus the GEMM and pilot.Load micro-benchmarks under
# pinned GOMAXPROCS, and emits a machine-readable BENCH_pr10.json recording
# ns/op, bytes/op, allocs/op and — for the serving rows — req/s, and for
# the federated rows — simulated round wall-clock (round_ms), WAN bytes
# (bytes_on_wire), and final validation loss (final_valloss) — for
# the scenario-replay rows the count of scripted phase transitions that
# actually fired (transitions) — and for the quantized-inference rows the
# max control drift against float64 (quant_maxdelta) — and for the
# dissemination-topology rows the convergence round count
# (rounds_to_converge) and whether the run kept improving through the
# cloud partition (partition_survived) — one datapoint per benchmark of
# the repo's performance trajectory.
#
# Usage: ./scripts/bench.sh
#   BENCH_OUT=path        output file (default BENCH_pr10.json)
#   BENCH_GOMAXPROCS=n    pinned worker count (default 1, the contract
#                         baseline: results are deterministic at any
#                         fixed value, but timings only compare at the
#                         same one)
#   BENCH_TIME_HEAVY=t    -benchtime for the pipeline-scale benchmarks
#                         (default 2x)
# The model seeds are pinned inside the benchmarks themselves, so two
# runs on the same machine differ only by scheduler/IO noise.
set -eu

cd "$(dirname "$0")/.."

OUT=${BENCH_OUT:-BENCH_pr10.json}
export GOMAXPROCS=${BENCH_GOMAXPROCS:-1}
HEAVY_TIME=${BENCH_TIME_HEAVY:-2x}

raw=$(mktemp)
trap 'rm -f "$raw"' EXIT

echo "==> heavy benchmarks (F1-F3, E1) -benchtime=$HEAVY_TIME"
go test -run '^$' -bench \
    '^(BenchmarkFig1Pipeline|BenchmarkFig2Collection|BenchmarkFig3Tracks|BenchmarkE1SixModels)$' \
    -benchmem -benchtime "$HEAVY_TIME" . | tee -a "$raw"

echo "==> steady-state benchmarks (E2-E7)"
go test -run '^$' -bench \
    '^(BenchmarkE2GPUSweep|BenchmarkE3Placement|BenchmarkE4DigitalTwin|BenchmarkE5Trovi|BenchmarkE6ZeroToReady|BenchmarkE7Reservations)$' \
    -benchmem . | tee -a "$raw"

echo "==> serving benchmarks (E10)"
go test -run '^$' -bench '^BenchmarkE10Serving$' . | tee -a "$raw"

echo "==> federated benchmarks (E11)"
go test -run '^$' -bench '^BenchmarkE11Federated$' -benchtime 1x . | tee -a "$raw"

echo "==> fleet-scale benchmarks (E12)"
go test -run '^$' -bench '^BenchmarkE12FleetScale$' -benchmem -benchtime 1x . | tee -a "$raw"

echo "==> scenario-replay benchmarks (E13)"
go test -run '^$' -bench '^BenchmarkE13Scenario$' -benchtime 1x . | tee -a "$raw"

echo "==> dissemination-topology benchmarks (E15)"
go test -run '^$' -bench '^BenchmarkE15Gossip$' -benchtime 1x . | tee -a "$raw"

echo "==> quantized-inference benchmarks (E14)"
go test -run '^$' -bench '^BenchmarkE14Quantized$' -benchtime 2x . | tee -a "$raw"

# The replica sweep pins GOMAXPROCS inside each row (procsN runs at N),
# so the global pin does not apply; req/s compares rows to each other.
echo "==> multicore serving scale-out (E14)"
go test -run '^$' -bench '^BenchmarkE14Serving$' -benchtime 2000x . | tee -a "$raw"

echo "==> GEMM kernel micro-benchmarks"
go test -run '^$' -bench '^BenchmarkGEMM$' -benchmem \
    ./internal/nn/kerneltest/ | tee -a "$raw"

# Every serve register and hot swap, core evaluate and CLI load pays
# this decode; B/op tracks the checkpoint's allocation cost.
echo "==> checkpoint decode (pilot.Load)"
go test -run '^$' -bench '^BenchmarkPilotLoad$' -benchmem . | tee -a "$raw"

# The registry contention benchmark needs real parallelism to mean
# anything, so it pins its own GOMAXPROCS=8 regardless of the global
# setting (the goroutine count is the g* suffix, not GOMAXPROCS).
echo "==> metrics registry contention (GOMAXPROCS=8)"
GOMAXPROCS=8 go test -run '^$' -bench '^BenchmarkRegistryContention$' \
    -benchmem ./internal/obs/ | tee -a "$raw"

# POSIX sh has no pipefail, so a crashing benchmark binary exits 0
# through the tee pipelines above; refuse to emit JSON from a transcript
# that records a failure.
if grep -q '^FAIL' "$raw"; then
    echo "bench: a benchmark run failed; not writing $OUT" >&2
    exit 1
fi

awk -v gomaxprocs="$GOMAXPROCS" '
/^Benchmark/ {
    name = $1
    sub(/-[0-9]+$/, "", name)   # strip the GOMAXPROCS suffix
    ns = ""; bytes = ""; allocs = ""; reqs = ""
    roundms = ""; wire = ""; valloss = ""; transitions = ""; qdelta = ""
    converge = ""; survived = ""
    for (i = 2; i < NF; i++) {
        if ($(i+1) == "ns/op") ns = $i
        if ($(i+1) == "B/op") bytes = $i
        if ($(i+1) == "allocs/op") allocs = $i
        if ($(i+1) == "req/s") reqs = $i
        if ($(i+1) == "round_ms") roundms = $i
        if ($(i+1) == "bytes_on_wire") wire = $i
        if ($(i+1) == "final_valloss") valloss = $i
        if ($(i+1) == "transitions") transitions = $i
        if ($(i+1) == "quant_maxdelta") qdelta = $i
        if ($(i+1) == "rounds_to_converge") converge = $i
        if ($(i+1) == "partition_survived") survived = $i
    }
    if (ns == "") next
    if (n++) printf ",\n"
    printf "    \"%s\": {\"iterations\": %s, \"ns_per_op\": %s, \"bytes_per_op\": %s, \"allocs_per_op\": %s", \
        name, $2, ns, (bytes == "" ? 0 : bytes), (allocs == "" ? 0 : allocs)
    if (reqs != "") printf ", \"req_per_s\": %s", reqs
    if (roundms != "") printf ", \"round_ms\": %s", roundms
    if (wire != "") printf ", \"bytes_on_wire\": %s", wire
    if (valloss != "") printf ", \"final_valloss\": %s", valloss
    if (transitions != "") printf ", \"transitions\": %s", transitions
    if (qdelta != "") printf ", \"quant_maxdelta\": %s", qdelta
    if (converge != "") printf ", \"rounds_to_converge\": %s", converge
    if (survived != "") printf ", \"partition_survived\": %s", survived
    printf "}"
}
BEGIN {
    printf "{\n  \"pr\": 10,\n  \"gomaxprocs\": %s,\n  \"benchmarks\": {\n", gomaxprocs
}
END { printf "\n  }\n}\n" }
' "$raw" > "$OUT"

echo "==> wrote $OUT"

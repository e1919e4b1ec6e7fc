#!/bin/sh
# Same-host A/B of the host-timed benchmark rows: the working tree (the
# change) against each BASE commit, judged by cmd/benchcmp against the
# guards in scripts/ab.rules. Exits 1 when a guard fails.
#
# Each side's test binaries (the root package's experiments and
# internal/obs's registry benchmarks) are built once, each BASE in a
# temporary git worktree, and each binary runs from its own tree. Ten
# rounds then sample each row on every side back to back, alternating
# which side goes first, so a slow spell of the host lands on every side
# alike; a row's i-th samples on two sides form a pair. Fig. 1, E2 and
# the E14 quantized rows run at GOMAXPROCS 1, the registry rows at 8, and
# the E14 serving rows set their own. Each side's samples open with a
# stamp: CPU model, nproc, GOMAXPROCS, Go version, the side's SHA and the
# type of the filesystem mounted at TMPDIR. A BASE named twice runs once.
#
# Run from the repo root: ./scripts/ab.sh BASE...
set -eu
cd "$(dirname "$0")/.."
[ $# -gt 0 ] || { echo "usage: scripts/ab.sh BASE..." >&2; exit 2; }

pairs=10
tmp=$(mktemp -d)
trees=""
cleanup() {
	for t in $trees; do git worktree remove --force "$t" || true; done
	git worktree prune
	rm -rf "$tmp"
}
trap cleanup EXIT
trap 'exit 130' INT TERM HUP

cpu=$(sed -n 's/^model name[[:space:]]*: //p' /proc/cpuinfo 2>/dev/null | head -1 | tr -d '"\\')
# The filesystem type of the mount holding TMPDIR, read from mountinfo
# (statfs cannot tell ext2, ext3 and ext4 apart): the longest mount point
# that prefixes the directory wins, and a later mount over the same point
# shadows an earlier one.
fs=$(d=$(cd "${TMPDIR:-/tmp}" && pwd -P) && awk -v d="${d%/}/" '{
	mp = ($5 == "/") ? "/" : $5 "/"
	for (i = 7; $i != "-"; i++) {}
	if (index(d, mp) == 1 && length(mp) >= best) { best = length(mp); t = $(i + 1) }
} END { print (t == "" ? "unknown" : t) }' /proc/self/mountinfo 2>/dev/null) || fs=unknown
stamp() {
	printf '# stamp {"cpu_model":"%s","nproc":%s,"gomaxprocs":"%s","go_version":"%s","git_sha":"%s","work_fs":"%s"}\n' \
		"${cpu:-unknown}" "$(getconf _NPROCESSORS_ONLN)" \
		"1 (Fig1, E2, E14Quantized), 8 (RegistryContention), per row (E14Serving)" \
		"$(go env GOVERSION)" "$1" "$fs"
}

# side NAME TREE SHA: builds NAME's binaries from TREE.
sides=""
side() {
	mkdir "$tmp/$1"
	echo "$2" >"$tmp/$1/tree"
	stamp "$3" >"$tmp/$1/samples.txt"
	echo "==> building $1 ($3)"
	(cd "$2" && go test -c -o "$tmp/$1/repro.test" . && go test -c -o "$tmp/$1/obs.test" ./internal/obs)
	sides="$sides $1"
}

sha=$(git rev-parse HEAD)
[ -z "$(git status --porcelain)" ] || sha="$sha+dirty"
side change "$(pwd)" "$sha"
n=0 seen=""
for b in "$@"; do
	s=$(git rev-parse --verify "$b^{commit}")
	case " $seen " in *" $s "*) continue ;; esac
	seen="$seen $s" n=$((n + 1))
	git worktree add --detach -q "$tmp/base$n-tree" "$s"
	trees="$trees $tmp/base$n-tree"
	side "base$n" "$tmp/base$n-tree" "$s"
done

# row ROW: the test binary, GOMAXPROCS ("" leaves it to the rows),
# pattern, bench time and samples per round of ROW. The short rows take
# several samples a round to steady their medians.
row() {
	case $1 in
	fig1) set -- repro.test 1 '^BenchmarkFig1Pipeline$' 1x 1 ;;
	e2) set -- repro.test 1 '^BenchmarkE2GPUSweep$' 1000000x 5 ;;
	quant) set -- repro.test 1 '^BenchmarkE14Quantized$' 5x 2 ;;
	serving) set -- repro.test "" '^BenchmarkE14Serving/(procs1|procs8)$' 2000x 1 ;;
	registry) set -- obs.test 8 '^BenchmarkRegistryContention/(mutex|sharded)/g8$' 500000x 3 ;;
	esac
	bin=$1 procs=$2 pattern=$3 benchtime=$4 reps=$5
}

# sample SIDE: one sample of the current row on SIDE, from SIDE's tree.
sample() {
	d=$tmp/$1
	(
		cd "$(cat "$d/tree")" &&
		if [ -n "$procs" ]; then export GOMAXPROCS="$procs"; fi &&
		"$d/$bin" -test.run '^$' -test.bench "$pattern" -test.benchtime "$benchtime"
	) >>"$d/samples.txt" 2>&1 || {
		echo "ab: a benchmark failed on $1:" >&2
		tail -20 "$d/samples.txt" >&2
		exit 1
	}
}

reversed=""
for s in $sides; do reversed="$s $reversed"; done
i=1
while [ "$i" -le "$pairs" ]; do
	echo "==> round $i of $pairs"
	for r in fig1 e2 quant serving registry; do
		row "$r"
		k=1
		while [ "$k" -le "$reps" ]; do
			if [ $(((i + k) % 2)) -eq 0 ]; then order=$sides; else order=$reversed; fi
			for s in $order; do sample "$s"; done
			k=$((k + 1))
		done
	done
	i=$((i + 1))
done

head -1 "$tmp/change/samples.txt"
go build -o "$tmp/benchcmp" ./cmd/benchcmp
bases=""
for s in $sides; do [ "$s" = change ] || bases="$bases $tmp/$s/samples.txt"; done
# $bases is split on purpose: mktemp paths hold no spaces.
"$tmp/benchcmp" scripts/ab.rules "$tmp/change/samples.txt" $bases

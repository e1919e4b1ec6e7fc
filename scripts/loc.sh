#!/bin/sh
# Net non-test Go lines per directory and in total between two commits,
# from git diff --numstat with *_test.go excluded. HEAD defaults to the
# working tree; stage new files first so git sees them.
# Run from the repo root: ./scripts/loc.sh BASE [HEAD]
set -eu
base=${1:?usage: scripts/loc.sh BASE [HEAD]}
git diff --numstat --no-renames "$base" ${2:+"$2"} -- '*.go' ':(exclude)*_test.go' |
	awk '{ d = $3; if (!sub(/\/[^\/]*$/, "", d)) d = "."; net[d] += $1 - $2; total += $1 - $2 }
	END { for (d in net) printf "%+6d  %s\n", net[d], d | "sort -k2"; close("sort -k2")
		printf "%+6d  total\n", total }'

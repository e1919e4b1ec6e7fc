#!/bin/sh
# Functions that no program and no paper experiment links. The roots are
# every main package in the module, perfbench (its own module, built from
# its own directory) and the root package's test binary, which holds the
# F1-F3 and E1-E15 experiments. Each is built with -gcflags=all=-l so a
# call keeps its callee's symbol, and the linker's dead-code pass has
# already dropped whatever no root calls. A declared function whose
# symbol is in no root's `go tool nm` listing is unreached.
#
# Declarations come from `go list`'s GoFiles (host build tags, no tests);
# a top-level func runs to the first line that is "}", counted with the
# doc comment right above it. Bodiless (assembly) declarations and init
# are skipped. The linker keeps every method of a type that reaches an
# interface or a type switch, and every exported method once reflect's
# method lookup is linked, so the list under-reports and never
# over-reports.
#
# Prints "file:line name lines" per unreached function, then functions
# and lines per package and in total. It reports and does not gate.
# Run from the repo root: ./scripts/reach.sh
set -eu
cd "$(dirname "$0")/.."
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

# A main package's symbols are named main.X; name them by import path.
for pkg in $(go list -f '{{if eq .Name "main"}}{{.ImportPath}}{{end}}' ./...); do
	bin=$tmp/$(echo "$pkg" | tr / _)
	go build -gcflags=all=-l -o "$bin" "$pkg"
	go tool nm "$bin" | awk -v p="$pkg" '$2 ~ /^[Tt]$/ { sub(/^ *[0-9a-f]+ [Tt] /, ""); sub(/^main\./, p "."); print }' >>"$tmp/syms"
done
(cd perfbench && go build -gcflags=all=-l -o "$tmp/perfbench" .)
go test -c -gcflags=all=-l -o "$tmp/root.test" .
for bin in "$tmp/perfbench" "$tmp/root.test"; do
	go tool nm "$bin" | awk '$2 ~ /^[Tt]$/ { sub(/^ *[0-9a-f]+ [Tt] /, ""); print }' >>"$tmp/syms"
done

go list -f '{{$p := .ImportPath}}{{$d := .Dir}}{{range .GoFiles}}{{$p}} {{$d}}/{{.}}{{"\n"}}{{end}}' ./... |
	sed "s|$(pwd)/||" >"$tmp/files"

awk '
	# Strip generic brackets (they nest), then receivers to "T.M" form:
	# pkg.(*T).M and pkg.T.M both become pkg.T.M.
	function norm(s,   out, i, c, depth) {
		out = ""; depth = 0
		for (i = 1; i <= length(s); i++) {
			c = substr(s, i, 1)
			if (c == "[") depth++
			else if (c == "]") depth--
			else if (depth == 0) out = out c
		}
		gsub(/\(\*/, "", out); gsub(/\)/, "", out)
		return out
	}
	FILENAME == ARGV[1] { linked[norm($0)] = 1; next }
	FILENAME == ARGV[2] { files[++nf] = $2; pkgof[$2] = $1; next }
	END {
		for (f = 1; f <= nf; f++) {
			file = files[f]; pkg = pkgof[file]; line = 0; doc = 0; start = 0
			while ((getline s < file) > 0) {
				line++
				if (start) {
					if (s == "}") { report(file, start, name, line - first + 1); start = 0 }
					continue
				}
				if (s ~ /^\/\//) { if (!doc) doc = line; continue }
				if (s !~ /^func /) { doc = 0; continue }
				first = doc ? doc : line; doc = 0
				sig = substr(s, 6); recv = ""
				if (sig ~ /^\(/) {
					recv = substr(sig, 2, index(sig, ")") - 2)
					sig = substr(sig, index(sig, ")") + 1); sub(/^ +/, "", sig)
					sub(/\[.*/, "", recv); sub(/.* /, "", recv); sub(/^\*/, "", recv)
					recv = recv "."
				}
				match(sig, /^[A-Za-z_][A-Za-z0-9_]*/)
				name = recv substr(sig, 1, RLENGTH)
				if (name == "init" || (pkg ".") name in linked) continue
				if (s ~ /}$/) { report(file, line, name, line - first + 1); continue }
				if (s !~ /\{/ && s !~ /[,(]$/) continue  # assembly stub
				start = line
			}
			close(file)
		}
		for (d in nfun) printf "%5d funcs %6d lines  %s\n", nfun[d], nline[d], d | "sort -k5"
		close("sort -k5")
		printf "%5d funcs %6d lines  total\n", tfun, tline
	}
	function report(file, at, name, n,   d) {
		printf "%s:%d %s %d\n", file, at, name, n
		d = file; sub(/\/[^\/]*$/, "", d)
		nfun[d]++; nline[d] += n; tfun++; tline += n
	}
' "$tmp/syms" "$tmp/files"

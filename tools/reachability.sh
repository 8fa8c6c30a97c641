#!/usr/bin/env bash
# Reachability audit: lists the non-test functions that no program of the
# repository links. It builds every cmd/, example, tools/beaconlint,
# perfbench and a main naming every exported beacon function, all with
# inlining off, reads the linked symbols with `go tool nm`, and prints each
# defined function none of them contains (symbol, length in lines,
# file:line), then a "N functions, M lines" total.
#
# Blind spot: the linker keeps every exported method of a type that reaches
# an interface when some linked code calls an interface method of the same
# name, whether or not anything calls the method itself (`go build
# -ldflags=-dumpdep ./cmd/beaconsim` prints such edges as
# `type:*T <UsedInIface> -> T.M`). Such a method counts as reached here even
# when nothing calls it; sim.(*Resource).Reset was one.
#
# Run from the repository root of a git checkout: `make reachability`.
set -euo pipefail

root=$PWD
d=$(mktemp -d)
trap 'rm -rf "$d"' EXIT
mkdir "$d/bin" "$d/api"

for p in ./cmd/* ./examples/* ./tools/beaconlint; do
	go build -gcflags=all=-l -o "$d/bin/" "$p"
done
(cd perfbench && go build -gcflags=all=-l -o "$d/bin/" .)

# A main that takes the address of every exported function and method
# of the root package, so the public API counts as reached.
{
	echo 'package main; import "beacon"; var sink []any; func main() {'
	git grep -hE '^func (\([a-z]+ \*?[A-Z][A-Za-z]*\) )?[A-Z]' -- '*.go' ':!*/*' ':!*_test.go' |
		sed -E 's/^func \([a-z]+ \*([A-Za-z]+)\) ([A-Za-z0-9]+).*/sink = append(sink, (*beacon.\1).\2)/;
			s/^func \([a-z]+ ([A-Za-z]+)\) ([A-Za-z0-9]+).*/sink = append(sink, beacon.\1.\2)/;
			s/^func ([A-Za-z0-9]+).*/sink = append(sink, beacon.\1)/'
	echo '}'
} > "$d/api/main.go"
printf 'module api\ngo %s\nrequire beacon v0.0.0\nreplace beacon => %s\n' \
	"$(awk '/^go /{print $2}' go.mod)" "$root" > "$d/api/go.mod"
(cd "$d/api" && go build -gcflags=all=-l -o "$d/bin/" .)

for b in "$d"/bin/*; do go tool nm "$b"; done |
	awk '{$1=$2=""; print substr($0, 3)}' | sed -E 's/\[.*\]//' | sort -u > "$d/reached"

# Every top-level function and method outside tests, perfbench, testdata
# and main packages, as "symbol lines file:line".
git ls-files '*.go' ':!*_test.go' ':!perfbench/*' ':!*/testdata/*' | xargs grep -L '^package main' |
	xargs awk 'FNR == 1 { dir = FILENAME; sub(/\/?[^\/]*$/, "", dir); pkg = "beacon" (dir == "" ? "" : "/" dir) }
		/^func / { s = $0; sym = pkg "."
			if (match(s, /^func \([^)]*\) /)) { rc = substr(s, 7, RLENGTH - 8); sub(/\[.*/, "", rc); n = split(rc, r, " "); t = r[n]; sym = sym (t ~ /^\*/ ? "(" t ")." : t "."); s = substr(s, RLENGTH + 1) } else s = substr(s, 6)
			sub(/[^A-Za-z0-9_].*/, "", s); sym = sym s; start = FNR }
		start && (/^}/ || (FNR == start && /}$/)) { print sym, FNR - start + 1, FILENAME ":" start; start = 0 }' |
	sort > "$d/funcs"

awk 'NR == FNR { r[$0]; next } !($1 in r)' "$d/reached" "$d/funcs" > "$d/unreached"
cat "$d/unreached"
awk '{ n += $2 } END { print NR " functions, " n " lines" }' "$d/unreached"

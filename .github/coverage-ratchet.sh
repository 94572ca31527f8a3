#!/usr/bin/env bash
# Coverage ratchet: lists the functions a fixed set of runs never
# executes and fails when that list differs from
# .github/coverage-unreached.txt, in either direction.
#
#   bash .github/coverage-ratchet.sh
#
# Run from the repository root. It builds tables and perfbench with
# coverage counters for every repro package; runs a small -all sweep,
# a two-worker Table I sweep with a manifest, one worker-mode cell and
# short paper-b14 and daemon-mix benchmark runs; and lists each function
# at 0.0% as path:Func (methods as path:(*T).Name), one a line, sorted.
# This run's list is left in .cover_build/unreached.txt: after deleting
# code, or when a run reaches more, copy it over the checked-in file.
# A listed function that is now executed or gone fails the step too, so
# no stale entry can later hide a function that becomes unreached
# again, and the list only shrinks. perfbench's own package is left
# out: it is a nested module, which `go tool cover -func` cannot
# resolve from here.
set -euo pipefail
root=$(pwd)
out=$root/.cover_build
want=$root/.github/coverage-unreached.txt
rm -rf "$out"
mkdir -p "$out/data" "$out/merged" "$root/.bench_build/tmp"

go build -cover -coverpkg=repro/... -o "$out/tables" ./cmd/tables
go -C perfbench build -cover -coverpkg=repro/... -o "$out/perfbench" .

export GOCOVERDIR=$out/data
"$out/tables" -all -scale 0.05 -keybits 32 -patterns 4096 -seed 3 > /dev/null
"$out/tables" -table 1 -workers 2 -manifest "$out/run.json" \
  -scale 0.05 -keybits 32 -patterns 4096 -seed 3 > /dev/null 2>&1
# The coordinator kills a local worker process once it has read its
# result line, mostly before the worker writes its counters, so the
# worker half is counted from one direct -worker run of a sweep cell.
echo '{"bench":"b14","layer":4,"scale":0.05,"keybits":32,"patterns":4096,"seed":3}' |
  "$out/tables" -worker -workerid 1 > /dev/null
"$out/perfbench" -root "$root" -workload paper-b14 -seed 1 > "$out/paper-b14.txt"
"$out/perfbench" -root "$root" -workload daemon-mix -seed 1 > "$out/daemon-mix.txt"
unset GOCOVERDIR
for r in paper-b14 daemon-mix; do
  if ! tail -n 1 "$out/$r.txt" | grep -q '"correct":true'; then
    echo "perfbench $r did not run correctly:" >&2
    cat "$out/$r.txt" >&2
    exit 1
  fi
done

go tool covdata merge -i "$out/data" -o "$out/merged"
go tool covdata textfmt -i "$out/merged" -o "$out/all.txt"
grep -v '^repro/perfbench/' "$out/all.txt" > "$out/profile.txt"
# cover -func prints "repro/<dir>/<file>.go:<line>:<tab>Name<tabs>pct";
# the declaration line gives a method its receiver type.
go tool cover -func "$out/profile.txt" | awk '$NF == "0.0%"' |
  while IFS=$' \t' read -r loc name _; do
    file=${loc%%:*}
    line=${loc#*:}
    line=${line%:}
    decl=$(sed -n "${line}p" "${file#repro/}")
    recv=$(sed -nE 's/^func \([[:alnum:]_]* *(\*?[[:alnum:]_]+)(\[[^]]*\])?\).*/\1/p' <<< "$decl")
    if [ -n "$recv" ]; then
      name="($recv).$name"
    fi
    echo "$file:$name"
  done | sed -E 's/\((\w+)\)\./\1./' | LC_ALL=C sort -u > "$out/unreached.txt"

added=$(LC_ALL=C comm -13 "$want" "$out/unreached.txt")
gone=$(LC_ALL=C comm -23 "$want" "$out/unreached.txt")
echo "$(wc -l < "$out/unreached.txt") functions never executed ($(wc -l < "$want") listed)"
if [ -n "$gone" ]; then
  echo "listed in $want but now executed or deleted; drop them:" >&2
  echo "$gone" >&2
fi
if [ -n "$added" ]; then
  echo "functions the runs never execute that $want does not list:" >&2
  echo "$added" >&2
fi
if [ -n "$gone$added" ]; then
  echo "copy .cover_build/unreached.txt over $want once the change is intended" >&2
  exit 1
fi

#!/bin/sh
# Pinned daemon answers: the responses `iglrd --serial` gives to the
# first 400 stream requests (after set-up and warm-up) of each perfbench
# workload at seed 1, with any "ms" timing field stripped.
#
#   pinned_answers.sh LOADGEN IGLRD
#       print "WORKLOAD RESPONSES MD5" for each workload; `dune build
#       @answers-smoke` diffs this against bin/pinned_answers.golden.
#   pinned_answers.sh LOADGEN IGLRD PARENT_IGLRD
#       run both daemons on the same streams and print, for each
#       workload, the first response that differs (or "identical").
#
# e.g. from the repo root, against a built copy of the parent commit:
#   sh bin/pinned_answers.sh _build/default/perfbench/loadgen.exe \
#     _build/default/bin/iglrd.exe PARENT/_build/default/bin/iglrd.exe
set -eu

loadgen=$1
iglrd=$2

answers() {
  "$loadgen" --iglrd "$1" --workload "$2" --seed 1 --dump 400 \
    | "$1" --serial \
    | sed -E 's/,"ms":[-0-9.eE+]+//g; s/"ms":[-0-9.eE+]+,?//g'
}

for w in edit-large many-docs open-project; do
  if [ $# -lt 3 ]; then
    out=$(answers "$iglrd" "$w")
    printf '%s %s %s\n' "$w" "$(printf '%s\n' "$out" | wc -l)" \
      "$(printf '%s\n' "$out" | md5sum | cut -d' ' -f1)"
  else
    tmp=$(mktemp -d)
    answers "$3" "$w" > "$tmp/parent"
    answers "$iglrd" "$w" > "$tmp/this"
    n=$(cmp "$tmp/parent" "$tmp/this" 2>&1 | sed -nE 's/.*differ:.* line ([0-9]+).*/\1/p')
    if cmp -s "$tmp/parent" "$tmp/this"; then
      echo "$w: identical ($(wc -l < "$tmp/this") responses)"
    elif [ -z "$n" ]; then
      echo "$w: one stream is a prefix of the other:" \
        "$(wc -l < "$tmp/parent") against $(wc -l < "$tmp/this") responses"
    else
      echo "$w: response $n differs"
      echo "< $(sed -n "${n}p" "$tmp/parent")"
      echo "> $(sed -n "${n}p" "$tmp/this")"
    fi
    rm -rf "$tmp"
  fi
done

#!/bin/sh
# `chaos --replay SPEC --spec-index N` must reproduce campaign spec #N: its
# verdict line equals the line spec #N got in a --verbose campaign run
# with the same options.  A malformed index is a usage error (exit 2).
#
# Usage: chaos_replay_index.sh <chaos> <system> <index> <campaign options>...
chaos=$1
system=$2
index=$3
shift 3
tag=$(printf '#%04d' "$index")
want=$("$chaos" "$@" --verbose 2>/dev/null | grep "^$tag $system ")
if [ -z "$want" ]; then
  echo "campaign printed no ledger line for $tag $system"
  exit 1
fi
spec=$(printf '%s\n' "$want" | sed 's/^.* spec="\([^"]*\)".*$/\1/')
got=$("$chaos" "$@" --replay "$spec" --system "$system" \
      --spec-index "$index" 2>/dev/null | head -n 1)
if [ "$got" != "$want" ]; then
  echo "campaign: $want"
  echo "replay:   $got"
  exit 1
fi
"$chaos" "$@" --replay "$spec" --system "$system" --spec-index x \
    >/dev/null 2>&1
status=$?
if [ "$status" -ne 2 ]; then
  echo "--spec-index x: exit $status, expected 2"
  exit 1
fi
echo "ok: $got"

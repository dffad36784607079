#!/bin/sh
# A numeric option given a value that is not a number ("abc") must be a
# usage error (exit 2) that names the option, never a silent zero that
# runs with a default.
#
# Usage: cli_bad_number.sh "<options>" <command> [<leading args>...]
# Runs `<command> <leading args> <option> abc` for each option in turn.
opts=$1
shift
for opt in $opts; do
  msg=$("$@" "$opt" abc 2>&1)
  status=$?
  if [ "$status" -ne 2 ]; then
    echo "$opt abc: exit $status, expected 2"
    exit 1
  fi
  case $msg in
    *"$opt: invalid value"*) ;;
    *) echo "$opt abc: no diagnostic in: $msg"; exit 1 ;;
  esac
done
echo "ok"

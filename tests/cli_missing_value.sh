#!/bin/sh
# An option given as the last argument without its value must be a usage
# error (exit 2) that names the option, never a silent default.
#
# Usage: cli_missing_value.sh "<options>" <command> [<leading args>...]
# Runs `<command> <leading args> <option>` for each option in turn.
opts=$1
shift
for opt in $opts; do
  msg=$("$@" "$opt" 2>&1)
  status=$?
  if [ "$status" -ne 2 ]; then
    echo "$opt given last: exit $status, expected 2"
    exit 1
  fi
  case $msg in
    *"$opt requires a value"*) ;;
    *) echo "$opt given last: no diagnostic in: $msg"; exit 1 ;;
  esac
done
echo "ok"

#!/bin/sh
# Renders every subcommand's --help=plain and fails if cmdliner reports
# an error in a doc string (cmdliner prints it and carries on, so the
# exit status alone would not catch it).
# Usage: help_plain.sh path/to/yewpar.exe
bin=$1
status=0
for cmd in "" list solve dimacs tsplib knapsack serve analyze top; do
  out=$("$bin" $cmd --help=plain 2>&1) || {
    echo "yewpar $cmd --help=plain exited nonzero"
    status=1
  }
  case $out in
  *"cmdliner error"*)
    echo "yewpar $cmd --help=plain:"
    printf '%s\n' "$out" | grep "cmdliner error"
    status=1
    ;;
  esac
done
exit $status

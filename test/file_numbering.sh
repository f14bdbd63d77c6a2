#!/bin/sh
# Solves the DIMACS and TSPLIB files in data/ and fails unless each
# witness is printed in the file's own numbering, which starts at 1.
# data/tiny.clq is Figure 1 of the paper: its maximum clique is
# {a, d, f, g} = {1, 4, 6, 7}.
# Usage: file_numbering.sh path/to/yewpar.exe path/to/tiny.clq path/to/square5.tsp
bin=$1
clq=$2
tsp=$3
status=0
expect() {
  want=$1
  shift
  got=$("$bin" "$@" --runtime seq 2>&1 | sed -n 's/^result: *//p')
  if [ "$got" != "$want" ]; then
    echo "yewpar $*: expected \"$want\", got \"$got\""
    status=1
  fi
}
expect "maximum clique of size 4: {1, 4, 6, 7}" dimacs -f "$clq"
expect "found a 4-clique: {1, 4, 6, 7}" dimacs -f "$clq" -k 4
expect "tour of length 44: 1 -> 5 -> 2 -> 3 -> 4" tsplib -f "$tsp"
expect "found a tour of length 44: 1 -> 5 -> 2 -> 3 -> 4" tsplib -f "$tsp" -L 44
exit $status

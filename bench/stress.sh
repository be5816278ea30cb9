#!/bin/sh
# Multi-domain termination and determinism check for `dune build @stress`.
#
#   bench/stress.sh ALTUNE
#
# Runs the two-benchmark smoke Table 1 once at --jobs 1 for the reference
# stdout, then 10 times each at --jobs 2 and --jobs 4.  Every
# run is bounded by `timeout 120` (a normal run takes seconds) and its
# stdout must match the reference byte for byte.  Exits non-zero, naming
# the job count and run index, on a crash, a hang or any output difference.
set -u
altune=$1
runs=10

run() {
  timeout 120 "$altune" table1 --scale smoke --benchmarks hessian,lu \
    --jobs "$1" > "$2"
}

run 1 stress-1.out || { echo "stress: jobs 1 reference run exited $?" >&2; exit 1; }
for j in 2 4; do
  i=1
  while [ "$i" -le "$runs" ]; do
    run "$j" "stress-$j.out"
    status=$?
    if [ "$status" -ne 0 ]; then
      echo "stress: jobs $j run $i exited $status (124 = timed out)" >&2
      exit 1
    fi
    if ! diff stress-1.out "stress-$j.out" >&2; then
      echo "stress: jobs $j run $i stdout differs from jobs 1" >&2
      exit 1
    fi
    i=$((i + 1))
  done
  echo "stress: $runs/$runs runs at jobs $j terminated with jobs-1 output"
done

#!/bin/sh
# Regenerates the EXPERIMENTS.md data set at the paper's scale: n=100,
# W=10000, Delta=20, 10 seeded instances per point, node sweep to n=300,
# Fig 10a to n=1000 and Fig 10b at n=1000 (mhsim -fig -scale full). Builds its
# own mhsim from the checkout it sits in and writes the CSVs and
# campaign.log beside itself (or into $OUT). An hour on a 2-vCPU host,
# most of it Fig 10b; internal/experiment's TestQuickTablesGolden is the
# sub-second pin of the same code.
set -e
here=$(cd "$(dirname "$0")" && pwd)
root=$(cd "$here/.." && pwd)
OUT=${OUT:-$here}
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
(cd "$root" && go build -o "$tmp/mhsim" ./cmd/mhsim)

cpus=$(nproc)
start=$(date +%s)
commit=$(git -C "$root" rev-parse --short HEAD)
[ -z "$(git -C "$root" status --porcelain)" ] || commit="$commit+uncommitted"
{
  echo "host: $(uname -n), $(uname -srm), $(sed -n 's/^model name[^:]*: //p' /proc/cpuinfo | head -1)"
  echo "nproc: $cpus  GOMAXPROCS: ${GOMAXPROCS:-$cpus}"
  echo "go: $(go version)"
  echo "commit: $commit"
  echo "started: $(date -u +%Y-%m-%dT%H:%M:%SZ)"
  echo "wall time per figure:"
} > "$tmp/head"
# The log is this header (wall times appended as figures finish) then the
# tables; it is written on any exit so a failed run shows how far it got.
trap 'cat "$tmp/head" "$tmp/body" > "$OUT/campaign.log"; rm -rf "$tmp"' EXIT

# run <figure> [mhsim -fig flags]: one figure at full scale, as many
# instances in flight as there are CPUs (the mean does not depend on it).
run() {
  fig=$1
  shift
  t0=$(date +%s)
  echo "=== fig $fig ==="
  "$tmp/mhsim" -scale full -workers "$cpus" -out "$OUT" -fig "$fig" "$@"
  echo "  fig $fig: $(($(date +%s) - t0)) s" >> "$tmp/head"
}
{
  # Fig 10a is wall-clock: one instance at a time, first, on a quiet machine.
  run 10a -workers 1
  # Fig 10b last: at n=1000 its 10 instances of 6 points are 90 CPU-seconds
  # each, 49 of the campaign's 62 minutes on two cores.
  for fig in 4b 4c 4d 5b 5c 5d 6 7a 7b 8 9a 9b 4a 5a \
    ext-ports ext-backtrack ext-makespan ext-eclipsepp ext-buffers \
    ext-epsilon ext-redundancy 10b; do
    run "$fig"
  done
} > "$tmp/body" 2>&1
echo "  total: $(($(date +%s) - start)) s" >> "$tmp/head"

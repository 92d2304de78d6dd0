#!/usr/bin/env bash
# Compare each benchmark workload's output digest at a base commit with the
# checked-out tree's, one line per workload:
#
#   <workload> digest base=<sha256> head=<sha256> same|differs
#
#   tools/digest_diff.sh <base-commit> [seed]
#
# The base commit runs in a temporary git worktree of this repository, each
# side with its own perfbench/run.py and src/. A declared output change makes
# a digest differ, so the script only reports and always exits 0.
set -u
base_rev=$1
seed=${2:-12}
root=$(git rev-parse --show-toplevel)
tmp=$(mktemp -d)
tree=$tmp/base
if ! git -C "$root" worktree add --quiet --detach "$tree" "$base_rev"; then
  echo "no worktree of $base_rev; digests not compared"
  rmdir "$tmp"
  exit 0
fi

digest() {  # digest <checkout> <workload>: the run's output digest, or "unavailable"
  (cd "$1" && python perfbench/run.py --workload "$2" --seed "$seed" --seconds 3 | tail -n 2 | head -n 1 |
    python -c 'import json, sys; print(json.loads(sys.stdin.read())["output_digest"])') 2>/dev/null ||
    echo unavailable
}

for w in stream_short stream_long train; do
  base=$(digest "$tree" "$w")
  head=$(digest "$root" "$w")
  if [ "$base" = "$head" ] && [ "$base" != unavailable ]; then verdict=same; else verdict=differs; fi
  echo "$w digest base=$base head=$head $verdict"
done
git -C "$root" worktree remove --force "$tree"
rmdir "$tmp"
exit 0

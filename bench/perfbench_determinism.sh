#!/bin/sh
# Print perfbench's `determinism` line for every workload at seeds 1-3,
# one "<workload> <seed> <line>" row each. Run from the root of a
# checkout:
#
#   sh bench/perfbench_determinism.sh > determinism.txt
#   diff bench/perfbench_determinism.txt determinism.txt
#
# A line holds the digests of the plans served, the requests sent and
# the kernel outputs, the vendor speedup, the model MSE and the cache
# counts at a fixed op. It depends only on the seed and on the profiles
# perfbench prepares (fixed seed, one domain), so any difference from
# the committed file is a change in behaviour, never timing noise. The
# first run in a checkout builds perfbench and prepares its profiles.
set -e
for workload in cold_plan warm_serve tune execute; do
  for seed in 1 2 3; do
    line=$(python3 perfbench/run.py --workload "$workload" --seed "$seed" \
             --seconds 1 --trace 0 | grep '^{"determinism"')
    echo "$workload $seed $line"
  done
done

#!/bin/sh
# Measure every workload once, untraced and traced, and keep the results:
#   perf/baseline.sh <outdir> [seed]
# writes <outdir>/<workload>.json (end-to-end) and <outdir>/<workload>.layers.json
# (per-layer).  Two such directories are what `perf_all --compare <a> <b>` takes.
# Run from the repository root, with nothing else running on the host.
set -eu
out=${1:?usage: perf/baseline.sh <outdir> [seed]}
seed=${2:-1990}
mkdir -p "$out"
for workload in grid-compute mesh-halo mesh-cyclic cg-reduce adapt-replan phase-redist; do
    for trace in 0 1; do
        if [ "$trace" = 0 ]; then file="$out/$workload.json"; else file="$out/$workload.layers.json"; fi
        cargo run --release --offline --quiet --manifest-path perf/Cargo.toml -- \
            --workload "$workload" --seed "$seed" --trace "$trace" --out "$file" | tail -n 1
    done
done

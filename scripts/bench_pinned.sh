#!/usr/bin/env bash
# Runs one checksum-pinned bench and stores its JSON lines, plus a
# checksum of the deterministic part.
#
#   ./scripts/bench_pinned.sh <name>             # writes BENCH_<name>.json
#   ./scripts/bench_pinned.sh <name> out.json    # writes elsewhere
#
#   <name>        bench            seeds  what it sweeps
#   resilience    resilience       3      degradation vs injected fault rate
#   cluster       cluster_sweep    2      offered load vs fleet tail latency,
#                                         static SMP against vScale
#   migration     migration_sweep  2      live migration over a dirty-rate ×
#                                         link-latency grid, a rolling host
#                                         upgrade, a hot-spot evacuation
#   elastic       elastic_sweep    2      five fleets through one flash crowd
#   backend_grid  backend_grid     2      reduced fig6/fig11/fig14 on every
#                                         scheduler backend
#   attacks       attack_grid      2      {tick_evade, boost_farm, ipi_storm,
#                                         oscillate} × {credit, credit2,
#                                         dynfrac} × {baseline, attacked,
#                                         defended}, plus the IPI-storm ladder
#
# Scale (quick), seeds and thread count (4) are pinned so the output —
# everything except the wall-clock session line — is bit-identical on
# every machine. scripts/verify.sh re-runs the same pinned bench and
# compares its checksum against scripts/<name>.sha256; regenerate that
# file with this script whenever a deliberate behaviour change moves the
# bench's numbers.
set -euo pipefail
cd "$(dirname "$0")/.."

case "${1:-}" in
    resilience)   bench=resilience;      seeds=3 ;;
    cluster)      bench=cluster_sweep;   seeds=2 ;;
    migration)    bench=migration_sweep; seeds=2 ;;
    elastic)      bench=elastic_sweep;   seeds=2 ;;
    backend_grid) bench=backend_grid;    seeds=2 ;;
    attacks)      bench=attack_grid;     seeds=2 ;;
    *)
        echo "usage: $0 {resilience|cluster|migration|elastic|backend_grid|attacks} [out.json]" >&2
        exit 2
        ;;
esac
name="$1"
out="${2:-BENCH_$name.json}"

echo "== $bench (pinned: quick scale, $seeds seeds, 4 threads) -> $out =="
VSCALE_BENCH_SCALE=quick VSCALE_BENCH_SEEDS="$seeds" VSCALE_THREADS=4 \
    cargo bench -q --offline -p vscale-bench --bench "$bench" \
    | tee /dev/stderr | grep '^{' > "$out"

grep -v wall_ms "$out" | sha256sum | cut -d' ' -f1 > "scripts/$name.sha256"
echo "== wrote $(wc -l < "$out") records to $out =="
echo "== $name checksum: $(cat "scripts/$name.sha256") =="

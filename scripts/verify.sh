#!/usr/bin/env bash
# Hermetic tier-1 verification, usable as CI. The workspace has zero
# external dependencies, so everything runs with --offline: no registry,
# no network, no vendor directory.
#
#   ./scripts/verify.sh          # build + full test suite + bench smoke
#   VSCALE_BENCH_SCALE=full ./scripts/verify.sh   # paper-length smoke
#   ./scripts/verify.sh differential_smoke   # just the differential gate
#   ./scripts/verify.sh backend_grid         # just the grid checksum gate
#   ./scripts/verify.sh attack_grid          # just the adversarial-grid gate
#   ./scripts/verify.sh elastic              # just the autoscaler interplay gate
#   ./scripts/verify.sh machine_bench        # just the throughput floor gate
set -euo pipefail
cd "$(dirname "$0")/.."

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

# 256 seeded op streams per backend (invariants) and per backend pair
# (shared conservation laws), offline, fixed seed; divergences arrive
# pre-shrunk to a minimal op sequence. See tests/differential.rs.
differential_smoke() {
    echo "== differential: 256 seeded op streams × 3 backends × 3 pairs =="
    cargo test -q --offline --test differential
    echo "   per-backend invariants and cross-backend conservation OK"
}

# Runs <bench> at the pinned quick scale with <seeds> seeds on <threads>
# stepping threads and prints its JSON lines minus the wall-clock session
# line — the deterministic part the checksums pin.
run_pinned() {
    VSCALE_BENCH_SCALE=quick VSCALE_BENCH_SEEDS="$2" VSCALE_THREADS="$3" \
        cargo bench -q --offline -p vscale-bench --bench "$1" \
        | grep '^{' | grep -v wall_ms
}

# One checksum-pinned bench gate:
#
#   pinned_gate <bench> <name> <seeds> [check...]
#
# Runs <bench> pinned (4 threads) and compares the output's checksum
# against scripts/<name>.sha256; regenerate that file deliberately with
# scripts/bench_pinned.sh <name>. Each further argument is one more check
# on the same output, applied in order:
#
#   has:<regex>    some line must match (grep basic regex)
#   none:<regex>   no line may match; the offending lines are printed
#   t1             a rerun at VSCALE_THREADS=1 must be byte-identical
pinned_gate() {
    local bench="$1" name="$2" seeds="$3"
    shift 3
    local out="$tmp/$name.t4" want got check
    run_pinned "$bench" "$seeds" 4 > "$out"
    want="$(cat "scripts/$name.sha256")"
    got="$(sha256sum "$out" | cut -d' ' -f1)"
    if [ "$want" != "$got" ]; then
        echo "$bench drifted from scripts/$name.sha256: want $want got $got" >&2
        cat "$out" >&2
        exit 1
    fi
    echo "   checksum OK ($got)"
    for check in "$@"; do
        case "$check" in
            has:*)
                if ! grep -q -- "${check#has:}" "$out"; then
                    echo "$bench gate: no line matches ${check#has:}" >&2
                    exit 1
                fi
                echo "   has ${check#has:}"
                ;;
            none:*)
                if grep -q -- "${check#none:}" "$out"; then
                    echo "$bench gate: lines match forbidden ${check#none:}:" >&2
                    grep -- "${check#none:}" "$out" >&2
                    exit 1
                fi
                echo "   none ${check#none:}"
                ;;
            t1)
                run_pinned "$bench" "$seeds" 1 > "$tmp/$name.t1"
                diff -u "$out" "$tmp/$name.t1"
                echo "   byte-identical at VSCALE_THREADS=1 and =4"
                ;;
            *)
                echo "pinned_gate: unknown check $check" >&2
                exit 2
                ;;
        esac
    done
}

# The per-backend figure grid (reduced fig6/fig11/fig14 on every
# scheduler backend) under the same pinning discipline as the resilience
# gate, plus all three backends present.
backend_grid_gate() {
    echo "== backend grid: per-backend fig6/fig11/fig14 must match the committed checksum =="
    pinned_gate backend_grid backend_grid 2 \
        'has:"backend":"credit"' 'has:"backend":"credit2"' 'has:"backend":"dynfrac"'
}

# Whole-machine dispatch cost must stay within 2x of the committed
# snapshot (BENCH_baseline.json). Compared on min_ns — the mean (and
# thus events_per_sec) is wrecked by millisecond outliers from ambient
# load, while the best-of-200 call is stable. The 2x headroom absorbs
# machine noise — the gate exists to catch structural regressions (an
# accidental O(n) scan or per-event allocation doubles the per-call
# floor), not to police single-digit percentages; refresh the snapshot
# deliberately with scripts/bench_snapshot.sh when the hot core
# genuinely changes.
machine_bench_gate() {
    echo "== machine bench: per-call floor must stay within 2x of BENCH_baseline.json =="
    local out="$tmp/microcosts"
    cargo bench -q --offline -p vscale-bench --bench microcosts | grep '^{' > "$out"
    local bench base fresh
    for bench in machine_dispatch_supervised machine_steps_steady; do
        base="$(grep "\"bench\":\"$bench\"" BENCH_baseline.json \
            | sed -E 's/.*"min_ns":([0-9]+).*/\1/;s/\..*//')"
        fresh="$(grep "\"bench\":\"$bench\"" "$out" \
            | sed -E 's/.*"min_ns":([0-9]+).*/\1/;s/\..*//')"
        if [ -z "$base" ] || [ -z "$fresh" ]; then
            echo "machine bench gate: missing $bench record" >&2
            exit 1
        fi
        if [ "$fresh" -gt $((base * 2)) ]; then
            echo "$bench regressed: ${fresh}ns/call vs baseline ${base}ns (ceiling $((base * 2))ns)" >&2
            exit 1
        fi
        echo "   $bench: ${fresh}ns/call min (baseline ${base}ns) OK"
    done
}

# The adversarial-tenant grid: checksum-pinned like the other bench
# gates, plus the acceptance criteria the grid exists for — on the
# vulnerable (sampled-burn) credit backend every attack class inflates
# victim waiting by ≥ 10%, and every matching defense restores
# completion time to within 1.25× of the no-attack baseline, on every
# backend. The grid must also replay byte-identically across thread
# counts: attack phase-locking rides the timing wheel, never wall time.
attack_grid_gate() {
    echo "== attack grid: 4 attacks × 3 backends × {baseline,attacked,defended} =="
    pinned_gate attack_grid attacks 2 \
        'none:"defended_ok":false' \
        'has:"credit_all_inflated":true' 'has:"all_defended_ok":true' \
        t1
}

# The elastic interplay study: five fleets (static/vScale minimal,
# over-provisioned static, autoscaled static and vScale) through the
# same flash crowd, pinned like the other bench gates. Beyond the
# checksum, the closing gate line must attest the headline of the
# study: the autoscaled vScale fleet holds the fleet-p99 SLO with zero
# request loss through at least one scale-out AND scale-in, the minimal
# static fleet breaches, no fleet anywhere loses a request across scale
# events, and vScale spends fewer host-seconds than the cheapest static
# fleet that also held. The sweep must replay byte-identically across
# thread counts: sampling rides the cluster's timing wheel and
# actuation lands between lockstep epochs.
elastic_gate() {
    echo "== elastic: interplay study must match the committed curves and hold the SLO =="
    local field checks=()
    for field in vscale_auto_held vscale_auto_scaled_out vscale_auto_scaled_in \
                 static_min_breached all_zero_loss vscale_fewer_host_seconds; do
        checks+=("has:\"elastic_gate\".*\"$field\":true")
    done
    pinned_gate elastic_sweep elastic 2 "${checks[@]}" 'none:"drops":[1-9]' t1
}

case "${1:-all}" in
    differential_smoke) differential_smoke; exit 0 ;;
    backend_grid) backend_grid_gate; exit 0 ;;
    attack_grid) attack_grid_gate; exit 0 ;;
    elastic) elastic_gate; exit 0 ;;
    machine_bench) machine_bench_gate; exit 0 ;;
    all) ;;
    *) echo "unknown verify target: $1" >&2; exit 2 ;;
esac

echo "== tier-1: release build (offline) =="
cargo build --release --offline

echo "== tier-1: tests (offline) =="
cargo test -q --offline
cargo test -q --offline --workspace

echo "== tier-1: clippy (offline, -D warnings) =="
cargo clippy --workspace --offline --all-targets -- -D warnings

echo "== tier-1: rustfmt (--check) =="
cargo fmt --check

echo "== tier-1: perfbench builds and tests against the current crates (offline) =="
# perfbench is a cargo workspace of its own over the repository crates by
# path; building it here makes a shared-crate API change that breaks the
# benchmark fail locally. Same target dir as perfbench/README.md.
CARGO_TARGET_DIR=.bench_build cargo build --release --offline --manifest-path perfbench/Cargo.toml
CARGO_TARGET_DIR=.bench_build cargo test -q --offline --manifest-path perfbench/Cargo.toml

echo "== bench smoke: table1_channel + fig6_npb (quick scale) =="
VSCALE_BENCH_SCALE="${VSCALE_BENCH_SCALE:-quick}" VSCALE_BENCH_SEEDS="${VSCALE_BENCH_SEEDS:-1}" \
    cargo bench -q --offline -p vscale-bench --bench table1_channel
VSCALE_BENCH_SCALE="${VSCALE_BENCH_SCALE:-quick}" VSCALE_BENCH_SEEDS="${VSCALE_BENCH_SEEDS:-1}" \
    cargo bench -q --offline -p vscale-bench --bench fig6_npb

echo "== parallel smoke: seed sweep must be byte-stable across thread counts =="
# Same 4-seed sweep at 1 and 4 threads; everything except the wall-clock
# session line (wall_ms, which also carries the thread count) must match
# byte for byte.
sweep_t1="$tmp/sweep.t1"; sweep_t4="$tmp/sweep.t4"
VSCALE_THREADS=1 VSCALE_BENCH_SEEDS=4 \
    cargo bench -q --offline -p vscale-bench --bench seed_sweep_smoke \
    | grep -v wall_ms > "$sweep_t1"
VSCALE_THREADS=4 VSCALE_BENCH_SEEDS=4 \
    cargo bench -q --offline -p vscale-bench --bench seed_sweep_smoke \
    | grep -v wall_ms > "$sweep_t4"
diff -u "$sweep_t1" "$sweep_t4"
echo "   byte-identical at VSCALE_THREADS=1 and =4"

echo "== chaos: fault-injection suite + fixed-plan replay smoke =="
# Every fault class must terminate cleanly or with a typed error — never
# hang or panic (tests/chaos.rs, watchdog-enforced).
cargo test -q --offline --test chaos
# A fixed fault plan swept over seeds must be byte-stable across thread
# counts too: fault draws ride the plan's private RNG, not wall clock.
chaos_t1="$tmp/chaos.t1"; chaos_t4="$tmp/chaos.t4"
VSCALE_THREADS=1 VSCALE_BENCH_SEEDS=4 \
    cargo bench -q --offline -p vscale-bench --bench chaos_smoke \
    | grep -v wall_ms > "$chaos_t1"
VSCALE_THREADS=4 VSCALE_BENCH_SEEDS=4 \
    cargo bench -q --offline -p vscale-bench --bench chaos_smoke \
    | grep -v wall_ms > "$chaos_t4"
diff -u "$chaos_t1" "$chaos_t4"
echo "   fault-plan replay byte-identical at VSCALE_THREADS=1 and =4"

echo "== resilience: fixed-plan sweep must match the committed degradation curve =="
# The pinned sweep (quick scale, 3 seeds, 4 threads) is fully
# deterministic once wall_ms is stripped. A checksum mismatch means a
# behavior change moved the degradation curve — regenerate deliberately
# with scripts/bench_pinned.sh resilience and review the new curve in
# the diff. The curve must also stay monotone with recovery active.
pinned_gate resilience resilience 3 \
    'has:"recovery_active":true' 'has:"monotone_within_50000ppm":true'

echo "== cluster: fleet sweep must match the committed curves and separate the modes =="
# Same pinning discipline as the resilience gate (2 seeds), and the
# closing gate line must show vScale sustaining strictly more offered
# load than static SMP at the fleet p99 SLO.
pinned_gate cluster_sweep cluster 2 'has:"vscale_gt_static":true'

echo "== migration: failover sweep must match the committed numbers and lose nothing =="
# Live migration across a dirty-rate × link-latency grid plus two
# failover scenarios (rolling host upgrade, hot-spot evacuation), under
# the same pinning discipline as the other bench gates. Beyond the
# checksum, the closing gate line must attest zero request loss across
# every scenario and that both cutover and capped-retry abort paths
# actually ran, and no scenario may report a loss; the whole sweep must
# also replay byte-identically across thread counts, because crashes,
# restores, and blackout cutovers all land at epoch boundaries of the
# threaded stepper.
pinned_gate migration_sweep migration 2 \
    'has:"migration_gate".*"zero_loss":true' \
    'has:"migration_gate".*"abort_and_cutover_seen":true' \
    'none:"zero_loss":false' \
    t1

elastic_gate

differential_smoke

backend_grid_gate

attack_grid_gate

machine_bench_gate

echo "== verify: OK =="

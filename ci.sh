#!/usr/bin/env sh
# Repo CI gate: formatting, lints (warnings are errors), docs, build,
# tests, and an end-to-end smoke test against the release binary.
#
#   ./ci.sh                     full gate
#   ./ci.sh --bench             release loadgen + kernel + cold-load gates
#   ./ci.sh --update-baselines  regenerate bench/kernels-baseline.json,
#                               bench/serve-baseline.json and
#                               bench/load-baseline.json
#
# Baseline rules (written by --update-baselines, read by --bench):
#   * bench/kernels-baseline.json is a verbatim `hg bench --kernels`
#     report at --reps 5: per engine the best and median of 5 timed
#     runs are recorded, and the gates compare best-of (the minimum is
#     the low-noise estimator for a deterministic kernel). The --bench
#     gate allows +50% over the recorded gate_msbfs_us/gate_kcore_us:
#     the baseline is a quiet-window noise floor, and wall-time jitter
#     of +-35-50% between windows is routine on shared-VM runners
#     (measured across 13 windows in EXPERIMENTS.md A8), so a tighter
#     band flakes on noise while 50% still catches any real kernel
#     regression of the 2x class the gates exist for. When the report's
#     "threads" (the par_msbfs splitter width) is 2 or more, the
#     par_msbfs median on the scaled instance must also be >= 1.3x
#     faster than the msbfs median (a ratio within one run, so it needs
#     no baseline). Beside that floor the gate prints, and puts in its
#     failure message, how much more work two concurrent copies of a
#     fixed CPU loop get done than one in the same wall time (2.00x on
#     two free cores, 1.00x when the host runs both on one): a floor
#     failure with a burn near 1x is the host, one near 2x is the code.
#     A run that trips any of these is retried once: noise spikes clear
#     on the second attempt, real regressions fail both.
#   * bench/serve-baseline.json stores the loadgen p99 ceiling: the
#     steady-state p99 (400 requests, concurrency 4, warmed cache) is
#     measured three times and the WORST pass is stored x3 for runner
#     noise; the gate allows +25% on top. Microsecond-scale p99s swing
#     up to 8x between windows, so a single quiet measurement would
#     produce a ceiling that trips on the next noisy one.
#   * bench/load-baseline.json is a verbatim `hg bench --coldload`
#     report at --reps 5: the mmap cold-open of the cached
#     hypergen-u1000000 `.hgb` plus its first stats answer, best-of.
#     The --bench gate allows +50% over gate_load_us (same noise band
#     as the kernel gates, same single retry) and additionally requires
#     the cold load to stay >= 10x faster than parsing the equivalent
#     `.hgr` text. The dataset pair is generated once per runner into
#     target/hgb-cache and reused by later runs.
#   Regenerate on a quiet machine only, and commit the refreshed JSON
#   together with the change that moved the numbers.
#
# The smoke/bench servers bind an ephemeral port (--addr 127.0.0.1:0)
# and the scripts parse the machine-readable `ADDR=` line from the
# server log, so parallel CI jobs never fight over a fixed port.
set -eu

cd "$(dirname "$0")" || exit 1

# Start `hg serve` in the background on an ephemeral port; extra
# arguments (e.g. --par-threshold 1 --relabel) are passed through. Sets
# the globals $ADDR (the bound address, parsed from the machine-readable
# `ADDR=` log line) and $SERVE_PID; the log lands in smoke.log. Must
# not be called from a command substitution — the globals would die
# with the subshell.
start_server() {
    ./target/release/hg serve --addr 127.0.0.1:0 --threads 2 --cache-mb 8 \
        "$@" --preload data/cellzome-2004.hgr >smoke.log 2>&1 &
    SERVE_PID=$!
    trap 'kill "$SERVE_PID" 2>/dev/null || true' EXIT
    i=0
    ADDR=""
    while [ -z "$ADDR" ]; do
        i=$((i + 1))
        if [ "$i" -ge 100 ]; then
            echo "server did not print its address" >&2
            cat smoke.log >&2
            exit 1
        fi
        ADDR=$(sed -n 's/^ADDR=//p' smoke.log | head -n 1)
        [ -n "$ADDR" ] || sleep 0.1
    done
    i=0
    until curl -sf "http://$ADDR/healthz" >/dev/null 2>&1; do
        i=$((i + 1))
        if [ "$i" -ge 50 ]; then
            echo "server did not come up on $ADDR" >&2
            cat smoke.log >&2
            exit 1
        fi
        sleep 0.1
    done
}

stop_server() {
    curl -sf -X POST "http://$ADDR/admin/shutdown" >/dev/null
    wait "$SERVE_PID"
    trap - EXIT
}

# Decide how many idle keep-alive connections the loadgen passes may
# hold: 2048 when the fd limit allows (fleet + sockets + headroom in
# both the server and the loadgen process), else 0 with a note. Raises
# a low soft limit in place — must run in the script shell, not a
# subshell, so the new limit reaches the child processes. Sets
# $IDLE_CONNS.
set_idle_conns() {
    FDS=$(ulimit -n 2>/dev/null || echo 0)
    case "$FDS" in
        unlimited) FDS=1048576 ;;
    esac
    if [ "$FDS" -lt 4500 ]; then
        ulimit -n 4500 2>/dev/null || true
        FDS=$(ulimit -n 2>/dev/null || echo 0)
        case "$FDS" in
            unlimited) FDS=1048576 ;;
        esac
    fi
    if [ "$FDS" -ge 4500 ]; then
        IDLE_CONNS=2048
    else
        IDLE_CONNS=0
        echo "fd limit $FDS cannot hold the 2048-connection fleet; skipping it"
    fi
}

# One fixed CPU-bound loop, about a second on one core.
burn_cpu() {
    awk 'BEGIN { s = 0; for (i = 0; i < 20000000; i++) s += i; print s }' >/dev/null
}

# Print the two-copy CPU burn ratio as a decimal, e.g. `1.97`: twice the
# wall time of one burn_cpu over that of two concurrent copies.
cpu_burn_ratio() {
    T0=$(date +%s%N)
    burn_cpu
    T1=$(date +%s%N)
    burn_cpu &
    BURN_A=$!
    burn_cpu &
    BURN_B=$!
    wait "$BURN_A" "$BURN_B"
    T2=$(date +%s%N)
    RATIO=$((200 * (T1 - T0) / (T2 - T1)))
    printf '%d.%02d\n' $((RATIO / 100)) $((RATIO % 100))
}

run_bench() {
    echo "==> cargo build --release (bench)"
    cargo build --workspace --release -q

    echo "==> hg loadgen benchmark"
    set_idle_conns
    start_server
    # Warm the cache so the gate measures steady-state serving, then
    # run the measured pass while an idle keep-alive fleet is parked on
    # the event loop: the p99 gate below also proves the parked
    # connections are free.
    ./target/release/hg loadgen --addr "$ADDR" --dataset cellzome-2004 \
        --concurrency 4 --requests 100 >/dev/null
    ./target/release/hg loadgen --addr "$ADDR" --dataset cellzome-2004 \
        --concurrency 4 --requests 400 --connections "$IDLE_CONNS" \
        --json BENCH_serve.json
    stop_server
    rm -f smoke.log

    if [ "$IDLE_CONNS" -gt 0 ]; then
        grep -q "\"idle_connections\":{\"requested\":$IDLE_CONNS,\"connected\":$IDLE_CONNS,\"connect_errors\":0,\"resets\":0}" BENCH_serve.json || {
            echo "BENCH FAIL: idle fleet had connect errors or resets:" >&2
            sed -n 's/.*\("idle_connections":{[^}]*}\).*/\1/p' BENCH_serve.json >&2
            exit 1
        }
    fi
    P99=$(sed -n 's/.*"p99_us":\([0-9]*\).*/\1/p' BENCH_serve.json)
    BASE=$(sed -n 's/.*"p99_us":\([0-9]*\).*/\1/p' bench/serve-baseline.json)
    if [ -z "$P99" ] || [ -z "$BASE" ]; then
        echo "cannot extract p99_us (got p99='$P99' baseline='$BASE')" >&2
        exit 1
    fi
    LIMIT=$((BASE * 125 / 100))
    echo "bench: p99 ${P99}us (baseline ${BASE}us, limit ${LIMIT}us)"
    if [ "$P99" -gt "$LIMIT" ]; then
        echo "BENCH FAIL: p99 ${P99}us regressed >25% over baseline ${BASE}us" >&2
        exit 1
    fi

    echo "==> hg bench --kernels (MS-BFS + kcore wall-time gates, par_msbfs speedup floor)"
    # One retry on gate failure: a noise spike on a shared runner clears
    # on the second attempt, a real kernel regression fails both.
    ATTEMPT=1
    while :; do
        ./target/release/hg bench --kernels --json BENCH_kernels.json
        OVER=""
        for GATE in gate_msbfs_us gate_kcore_us; do
            KUS=$(sed -n "s/.*\"$GATE\":\([0-9]*\).*/\1/p" BENCH_kernels.json)
            KBASE=$(sed -n "s/.*\"$GATE\":\([0-9]*\).*/\1/p" bench/kernels-baseline.json)
            if [ -z "$KUS" ] || [ -z "$KBASE" ]; then
                echo "cannot extract $GATE (got run='$KUS' baseline='$KBASE')" >&2
                exit 1
            fi
            KLIMIT=$((KBASE * 150 / 100))
            echo "bench: $GATE ${KUS}us (baseline ${KBASE}us, limit ${KLIMIT}us)"
            if [ "$KUS" -gt "$KLIMIT" ]; then
                OVER="$OVER $GATE=${KUS}us(>${KLIMIT}us)"
            fi
        done
        THREADS=$(sed -n 's/.*"threads":\([0-9]*\).*/\1/p' BENCH_kernels.json)
        SCALED=$(sed 's/.*"name":"hypergen-u[0-9]*"//' BENCH_kernels.json)
        MS_MED=$(printf '%s\n' "$SCALED" | sed -n 's/.*"engine":"msbfs","best_us":[0-9]*,"median_us":\([0-9]*\).*/\1/p')
        PAR_MED=$(printf '%s\n' "$SCALED" | sed -n 's/.*"engine":"par_msbfs","best_us":[0-9]*,"median_us":\([0-9]*\).*/\1/p')
        if [ -z "$THREADS" ] || [ -z "$MS_MED" ] || [ -z "$PAR_MED" ]; then
            echo "cannot extract the par_msbfs speedup inputs (threads='$THREADS' msbfs='$MS_MED' par_msbfs='$PAR_MED')" >&2
            exit 1
        fi
        if [ "$THREADS" -ge 2 ]; then
            BURN=$(cpu_burn_ratio)
            echo "bench: par_msbfs median ${PAR_MED}us vs msbfs ${MS_MED}us on $THREADS threads (floor 1.3x; two-copy CPU burn ${BURN}x)"
            if [ $((PAR_MED * 13)) -gt $((MS_MED * 10)) ]; then
                OVER="$OVER par_msbfs_speedup<1.3x(par_msbfs=${PAR_MED}us,msbfs=${MS_MED}us,cpu_burn=${BURN}x)"
            fi
        else
            echo "bench: threads=1, skipping the par_msbfs speedup floor"
        fi
        if [ -z "$OVER" ]; then
            break
        fi
        if [ "$ATTEMPT" -ge 2 ]; then
            echo "BENCH FAIL: kernel gates failed on both attempts:$OVER" >&2
            exit 1
        fi
        echo "bench: over limit:$OVER — retrying once for runner noise"
        ATTEMPT=2
    done

    echo "==> hg bench --coldload (.hgb mmap cold-load gate)"
    # First run on a fresh runner generates the hypergen-u1000000 pair
    # into target/hgb-cache; every later run reuses the cached files and
    # only the timed loads execute. Same retry rule as the kernel gates.
    ATTEMPT=1
    while :; do
        ./target/release/hg bench --coldload --json BENCH_coldload.json
        LUS=$(sed -n 's/.*"gate_load_us":\([0-9]*\).*/\1/p' BENCH_coldload.json)
        PUS=$(sed -n 's/.*"parse_us":\([0-9]*\).*/\1/p' BENCH_coldload.json)
        LBASE=$(sed -n 's/.*"gate_load_us":\([0-9]*\).*/\1/p' bench/load-baseline.json)
        if [ -z "$LUS" ] || [ -z "$PUS" ] || [ -z "$LBASE" ]; then
            echo "cannot extract cold-load gate (run='$LUS' parse='$PUS' baseline='$LBASE')" >&2
            exit 1
        fi
        LLIMIT=$((LBASE * 150 / 100))
        echo "bench: gate_load_us ${LUS}us (baseline ${LBASE}us, limit ${LLIMIT}us; text parse ${PUS}us)"
        OVER=""
        if [ "$LUS" -gt "$LLIMIT" ]; then
            OVER=" gate_load_us=${LUS}us(>${LLIMIT}us)"
        fi
        if [ "$PUS" -lt $((LUS * 10)) ]; then
            OVER="$OVER speedup<10x(parse=${PUS}us,load=${LUS}us)"
        fi
        if [ -z "$OVER" ]; then
            break
        fi
        if [ "$ATTEMPT" -ge 2 ]; then
            echo "BENCH FAIL: cold-load gate failed on both attempts:$OVER" >&2
            exit 1
        fi
        echo "bench: cold-load over limit:$OVER — retrying once for runner noise"
        ATTEMPT=2
    done
    echo "BENCH OK"
}

# Regenerate both checked-in baselines; see the header for the rules.
run_update_baselines() {
    echo "==> cargo build --release (baselines)"
    cargo build --workspace --release -q

    echo "==> regenerating bench/kernels-baseline.json (best/median of 5 reps)"
    ./target/release/hg bench --kernels --reps 5 --json bench/kernels-baseline.json

    echo "==> regenerating bench/serve-baseline.json (worst of 3 steady-state p99s, x3)"
    set_idle_conns
    start_server
    ./target/release/hg loadgen --addr "$ADDR" --dataset cellzome-2004 \
        --concurrency 4 --requests 100 >/dev/null
    P99=0
    for PASS in 1 2 3; do
        ./target/release/hg loadgen --addr "$ADDR" --dataset cellzome-2004 \
            --concurrency 4 --requests 400 --connections "$IDLE_CONNS" \
            --json BENCH_serve.json
        PASS_P99=$(sed -n 's/.*"p99_us":\([0-9]*\).*/\1/p' BENCH_serve.json)
        if [ -z "$PASS_P99" ]; then
            echo "cannot extract p99_us from BENCH_serve.json (pass $PASS)" >&2
            exit 1
        fi
        [ "$PASS_P99" -gt "$P99" ] && P99=$PASS_P99
    done
    stop_server
    rm -f smoke.log
    CEIL=$((P99 * 3))
    printf '{"schema":"hg-loadgen-baseline/1","note":"p99 latency ceiling for ci.sh --bench; worst of 3 measured steady-state p99s (%sus) stored x3 for runner noise (regenerated by ci.sh --update-baselines)","dataset":"cellzome-2004","concurrency":4,"requests":400,"idle_connections":%s,"p99_us":%s}\n' \
        "$P99" "$IDLE_CONNS" "$CEIL" >bench/serve-baseline.json
    echo "==> regenerating bench/load-baseline.json (best of 5 cold loads)"
    ./target/release/hg bench --coldload --reps 5 --json bench/load-baseline.json

    GATE_MSBFS=$(sed -n 's/.*"gate_msbfs_us":\([0-9]*\).*/\1/p' bench/kernels-baseline.json)
    GATE_KCORE=$(sed -n 's/.*"gate_kcore_us":\([0-9]*\).*/\1/p' bench/kernels-baseline.json)
    GATE_LOAD=$(sed -n 's/.*"gate_load_us":\([0-9]*\).*/\1/p' bench/load-baseline.json)
    echo "baselines updated: gate_msbfs_us=${GATE_MSBFS} gate_kcore_us=${GATE_KCORE} gate_load_us=${GATE_LOAD} p99_us=${CEIL}"
}

if [ "${1:-}" = "--bench" ]; then
    run_bench
    exit 0
fi
if [ "${1:-}" = "--update-baselines" ]; then
    run_update_baselines
    exit 0
fi

echo "==> shellcheck ci.sh"
if command -v shellcheck >/dev/null 2>&1; then
    shellcheck ci.sh
else
    echo "shellcheck not installed; skipping"
fi

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> parcore stays hgperf's import shim"
# crates/parcore only re-exports hypergraph names for the hgperf
# benchmark, which builds against it by path; no workspace crate may
# depend on it.
if grep -lE '^(parcore *=|\[.*dependencies\.parcore\])' crates/*/Cargo.toml; then
    echo "the manifests above depend on parcore; only hgperf may"
    exit 1
fi

echo "==> every vendored shim has a user"
# A shim under vendor/ stands in for an external crate the workspace
# uses; once no crate depends on it, the shim goes too.
for MANIFEST in vendor/*/Cargo.toml; do
    SHIM=$(sed -n 's/^name *= *"\([^"]*\)".*/\1/p' "$MANIFEST" | head -n 1)
    if ! grep -qE "^($SHIM *=|\[.*dependencies\.$SHIM\])" crates/*/Cargo.toml; then
        echo "no crates/*/Cargo.toml depends on $SHIM; delete ${MANIFEST%/Cargo.toml}"
        exit 1
    fi
done

echo "==> cargo clippy (deny warnings)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo doc (deny warnings)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps -q

echo "==> cargo build --release"
cargo build --workspace --release

echo "==> hgr reader smoke (a reformatted cellzome reads the same)"
# The same hyperedges with CRLF line ends, tabs between the ids of every
# other line, a comment after the header, a tab-indented comment between
# two hyperedges and a no-break space (U+00A0) between two ids. The
# reader splits where char::is_whitespace does, so `hg stats` must print
# exactly what it prints on the original.
NBSP=$(printf '\302\240')
awk -v nbsp="$NBSP" '
    NR == 1 { printf "%s\r\n%% reformatted copy of cellzome-2004\r\n", $0; next }
    NR == 4 { printf "\t%% a tab-indented comment between hyperedges\r\n" }
    NR % 2 == 0 { gsub(/ /, "\t") }
    NR == 5 { sub(/ /, nbsp) }
    { printf "%s\r\n", $0 }
' data/cellzome-2004.hgr >target/cellzome-variant.hgr
./target/release/hg stats data/cellzome-2004.hgr >target/cellzome-stats.txt
./target/release/hg stats target/cellzome-variant.hgr >target/cellzome-variant-stats.txt
if ! cmp -s target/cellzome-stats.txt target/cellzome-variant-stats.txt; then
    echo "hg stats differs on the reformatted cellzome:"
    diff target/cellzome-stats.txt target/cellzome-variant-stats.txt || true
    exit 1
fi
# hMETIS fmt 1 leads each hyperedge line with a weight; read as ids, this
# file would load {1,2} and {1,2,3} without an error. The reader must
# refuse the header and name the field.
printf '2 3 1\n1 1 2\n1 2 3\n' >target/weighted.hgr
if ./target/release/hg stats target/weighted.hgr >target/weighted.out 2>&1; then
    echo "hg stats read a weighted (fmt 1) header:"
    cat target/weighted.out
    exit 1
fi
if ! grep -q 'fmt' target/weighted.out; then
    echo "hg stats refused the fmt 1 header without naming the field:"
    cat target/weighted.out
    exit 1
fi

echo "==> Pajek smoke (a .net triangle through hg convert and hg stats)"
# `hg` picks a text format by extension, as `hg serve` does: each Pajek
# edge is a 2-pin hyperedge, so the triangle's `.hgb` must read like the
# three-hyperedge `.hgr` below.
printf '*Vertices 3\n1 "a"\n2 "b"\n3 "c"\n*Edges\n1 2\n2 3\n1 3\n' >target/triangle.net
printf '3 3\n1 2\n2 3\n1 3\n' >target/triangle.hgr
./target/release/hg convert target/triangle.net -o target/triangle.hgb >/dev/null
./target/release/hg stats target/triangle.hgb >target/triangle-hgb-stats.txt
./target/release/hg stats target/triangle.hgr >target/triangle-hgr-stats.txt
if ! cmp -s target/triangle-hgb-stats.txt target/triangle-hgr-stats.txt; then
    echo "hg stats differs between the converted Pajek triangle and its .hgr:"
    diff target/triangle-hgb-stats.txt target/triangle-hgr-stats.txt || true
    exit 1
fi

echo "==> cargo test"
cargo test --workspace -q

echo "==> vendored shim lints + unit tests"
# vendor/ is excluded from the workspace, so the steps above never lint
# the shims or run their own tests. Every shim with a manifest builds
# against it into target/vendor; the Cargo.lock each run writes is
# ignored.
for MANIFEST in vendor/*/Cargo.toml; do
    cargo clippy --offline --all-targets --manifest-path "$MANIFEST" --target-dir target/vendor -- -D warnings
    cargo test --offline -q --manifest-path "$MANIFEST" --target-dir target/vendor
done

echo "==> hgperf build + unit tests"
# The benchmark is a workspace of its own that calls the kernels by
# name; building it here catches a renamed or deleted entry point
# before the benchmark runs. Its Cargo.lock and target/ are ignored.
cargo test --offline -q --manifest-path hgperf/Cargo.toml

echo "==> hgserve e2e + robustness + event loop (release)"
# The event-loop suite's hit-path tests (a hit answered while the only
# worker runs a sweep) depend on release timing.
cargo test -p hgserve --release --test e2e -q
cargo test -p hgserve --release --test robustness -q
cargo test -p hgserve --release --test event_loop -q

echo "==> hg profile smoke (MS-BFS on u6000 in traversal order)"
# hgperf's u6000, byte for byte. The sweep takes its sources in the
# discovery order of one BFS and leaves the 127 isolated vertices out:
# 5,873 sources in 23 batches (file order swept 6,000 in 24). A batch
# that spans two components never saturates a lane, so the sweep must
# still pull once a frontier is dense, and its work counters must
# repeat exactly. A CPU with AVX2, BMI1, BMI2 and LZCNT (`abm` in
# /proc/cpuinfo) runs all 23 batches in the kernel's AVX2 build; any
# other runs none there.
mkdir -p target/hgb-cache
./target/release/hg gen uniform 6000 4500 5 --seed 41 \
    -o target/hgb-cache/hypergen-u6000.hgr >/dev/null
# The same instance written as `.hgb` must read the same.
./target/release/hg gen uniform 6000 4500 5 --seed 41 \
    -o target/hgb-cache/u6000-twin.hgb >/dev/null
./target/release/hg stats target/hgb-cache/hypergen-u6000.hgr >target/hgb-cache/u6000-hgr-stats.txt
./target/release/hg stats target/hgb-cache/u6000-twin.hgb >target/hgb-cache/u6000-hgb-stats.txt
if ! cmp -s target/hgb-cache/u6000-hgr-stats.txt target/hgb-cache/u6000-hgb-stats.txt; then
    echo "hg stats differs between u6000's .hgr and .hgb:"
    diff target/hgb-cache/u6000-hgr-stats.txt target/hgb-cache/u6000-hgb-stats.txt || true
    exit 1
fi
profile_counters() {
    ./target/release/hg profile target/hgb-cache/hypergen-u6000.hgr --algo bfs |
        sed -n 's/.*"counters":\({[^}]*}\).*/\1/p'
}
C1=$(profile_counters)
C2=$(profile_counters)
if [ -z "$C1" ] || [ "$C1" != "$C2" ]; then
    echo "hg profile counters missing or differ between two runs:"
    echo "  run 1: $C1"
    echo "  run 2: $C2"
    exit 1
fi
profile_counter() {
    printf '%s\n' "$C1" | sed -n "s/.*\"$1\":\([0-9]*\).*/\1/p"
}
PULLS=$(profile_counter msbfs.sweep.pull_passes)
[ "${PULLS:-0}" -ge 1 ] || {
    echo "expected msbfs.sweep.pull_passes >= 1 on u6000, got '${PULLS:-none}': $C1"
    exit 1
}
SOURCES=$(profile_counter bfs.sources)
BATCHES=$(profile_counter msbfs.batches)
if [ "$SOURCES" != 5873 ] || [ "$BATCHES" != 23 ]; then
    echo "expected bfs.sources 5873 and msbfs.batches 23 on u6000," \
        "got '${SOURCES:-none}' and '${BATCHES:-none}': $C1"
    exit 1
fi
CPU_FLAGS=" $(grep -m1 '^flags' /proc/cpuinfo 2>/dev/null || true) "
WANT_AVX2=23
for FLAG in avx2 bmi1 bmi2 abm; do
    case "$CPU_FLAGS" in
    *" $FLAG "*) ;;
    *) WANT_AVX2=0 ;;
    esac
done
AVX2=$(profile_counter msbfs.avx2_batches)
if [ "${AVX2:-0}" != "$WANT_AVX2" ]; then
    echo "expected msbfs.avx2_batches $WANT_AVX2 on u6000, got '${AVX2:-none}': $C1"
    exit 1
fi
echo "profile smoke OK (u6000: $SOURCES sources, $BATCHES batches, $PULLS pull passes, ${AVX2:-0} AVX2 batches)"

echo "==> hg profile smoke (greedy cover on the same u6000 file)"
# One greedy loop answers the cover and the multicover. With unit
# weights it picks u6000's 1,150 cover vertices, meeting all 4,500
# hyperedges after 5,676 lazy heap refreshes; the counters must repeat
# exactly, and a change to which vertex is picked moves them.
# `covers_pin_their_size_ids_and_weight` pins the cover's ids.
cover_counters() {
    ./target/release/hg profile target/hgb-cache/hypergen-u6000.hgr --algo cover |
        sed -n 's/.*"counters":\({[^}]*}\).*/\1/p'
}
V1=$(cover_counters)
V2=$(cover_counters)
if [ -z "$V1" ] || [ "$V1" != "$V2" ]; then
    echo "hg profile cover counters missing or differ between two runs:"
    echo "  run 1: $V1"
    echo "  run 2: $V2"
    exit 1
fi
for PAIR in picks=1150 edges_covered=4500 heap_refreshes=5676; do
    GOT=$(printf '%s\n' "$V1" | sed -n "s/.*\"cover.${PAIR%%=*}\":\([0-9]*\).*/\1/p")
    [ "$GOT" = "${PAIR#*=}" ] || {
        echo "expected cover.${PAIR%%=*} ${PAIR#*=} on u6000, got '${GOT:-none}': $V1"
        exit 1
    }
done
# The paper's 2-multicover of the Cellzome complexes (each requirement
# capped at the complex's size) takes 138 baits.
./target/release/hg cover data/cellzome-2004.hgr --multicover 2 |
    grep -q '^cover: 138 vertices,' || {
    echo "expected a 138-vertex 2-multicover of cellzome:" \
        "$(./target/release/hg cover data/cellzome-2004.hgr --multicover 2)"
    exit 1
}
echo "cover smoke OK (u6000: 1150 picks, 4500 hyperedges, 5676 refreshes; cellzome 2-multicover 138)"

echo "==> hg kcore smoke (pin signatures, linear and contained bits on u6000 and stk10648s)"
# The 3-core's probes: 4,387 of the 4,500 hyperedges share at most one
# pin with any other, so while two of their pins live they are maximal
# and never probed (52 snapshot probes; the fresh hypergraph's memo
# build gives the other 113 a raw probe each), and pin signatures
# reject nearly every non-container before a sorted merge (6 merges;
# 8,182 without either and with a separate reduce). The work counters
# must repeat exactly. Rounds, vertices peeled, hyperedges deleted,
# merges and both kinds of probe are pinned, as
# `u6000_three_core_needs_few_subset_tests` pins them: a change to which
# hyperedges are probed, merged or deleted moves them, and so does a
# linear bit that is never set.
kcore_counters() {
    ./target/release/hg --metrics "target/hgb-cache/kcore-$1.json" kcore --k 3 \
        "${2:-target/hgb-cache/hypergen-u6000.hgr}" >"target/hgb-cache/kcore-$1.out"
    sed -n 's/.*"counters":\({[^}]*}\).*/\1/p' "target/hgb-cache/kcore-$1.json"
}
K1=$(kcore_counters 1)
K2=$(kcore_counters 2)
if [ -z "$K1" ] || [ "$K1" != "$K2" ]; then
    echo "hg kcore counters missing or differ between two runs:"
    echo "  run 1: $K1"
    echo "  run 2: $K2"
    exit 1
fi
for run in 1 2; do
    head -n 1 "target/hgb-cache/kcore-$run.out" |
        grep -q '^3-core: 4306 vertices, 4494 hyperedges, 19884 pins' || {
        echo "unexpected u6000 3-core (run $run): $(cat "target/hgb-cache/kcore-$run.out")"
        exit 1
    }
done
# kcore_pins NAME COUNTERS PAIR...: each PAIR is counter=value.
kcore_pins() {
    NAME=$1
    COUNTERS=$2
    shift 2
    for PAIR in "$@"; do
        GOT=$(printf '%s\n' "$COUNTERS" | sed -n "s/.*\"kcore.probe.${PAIR%%=*}\":\([0-9]*\).*/\1/p")
        [ "$GOT" = "${PAIR#*=}" ] || {
            echo "expected kcore.probe.${PAIR%%=*} ${PAIR#*=} at k = 3 on $NAME, got '${GOT:-none}': $COUNTERS"
            exit 1
        }
    done
}
kcore_pins u6000 "$K1" rounds=2 vertices_peeled=1694 edges_deleted=6 subset_tests=6 \
    edge_probes=52 raw_probes=113
# stk10648s, a Table 1 net: no hyperedge is linear, and the first 3-peel
# (32 vertices) touches none of the 2,648 that lie in another. The memo
# build's raw probes find those 2,648 (10,648 raw probes, one per
# hyperedge), and round one probes them again against the snapshot
# (2,680 probes, 5,328 merges in all).
./target/release/hg gen table1 stk10648s -o target/hgb-cache/stk10648s.hgr >/dev/null
kcore_pins stk10648s "$(kcore_counters stk target/hgb-cache/stk10648s.hgr)" rounds=2 \
    vertices_peeled=32 edges_deleted=2648 subset_tests=5328 edge_probes=2680 raw_probes=10648
echo "kcore smoke OK (u6000 3-core: 2 rounds, 1694 peeled, 6 deleted, 6 subset tests, 52 + 113 probes; stk10648s: 2648 deleted, 2680 + 10648 probes)"

echo "==> hgserve k-core memo smoke (one cache-off server on the same u6000 file)"
# A dataset keeps its hyperedges' linear and contained bits, built
# whole by its first k-core: its memo build gives the 113 non-linear
# hyperedges a raw probe each, and finds them all maximal. Each
# kcore?k=3 then probes the 52 hyperedges its first peel touches that
# are not linear or kept fewer than two pins. Both bodies must be
# byte-identical, the /metrics deltas must be the counts
# `u6000_three_core_needs_few_subset_tests` pins, and the memo's bytes
# must read 0 until the first k-core and 37,136 after it.
start_server --cache-mb 0 target/hgb-cache/hypergen-u6000.hgr
probe_counts() {
    curl -sf "http://$ADDR/metrics" | awk '
        $1 == "hg_kcore_probe_edge_probes_total" { e = $2 }
        $1 == "hg_kcore_probe_raw_probes_total" { r = $2 }
        END { print e + 0, r + 0 }'
}
memo_bytes() {
    curl -sf "http://$ADDR/metrics" |
        sed -n 's/^hgserve_dataset_memo_bytes{dataset="hypergen-u6000"} \([0-9]*\)$/\1/p'
}
M0=$(memo_bytes)
kcore_memo_run() {
    curl -sf "http://$ADDR/v1/hypergen-u6000/kcore?k=3" -o "target/hgb-cache/kcore-memo-$1.json"
}
P0=$(probe_counts)
kcore_memo_run 1
M1=$(memo_bytes)
P1=$(probe_counts)
kcore_memo_run 2
P2=$(probe_counts)
stop_server
rm -f smoke.log
cmp -s target/hgb-cache/kcore-memo-1.json target/hgb-cache/kcore-memo-2.json || {
    echo "cold and warm kcore?k=3 bodies differ on u6000"
    exit 1
}
[ "$M0" = 0 ] && [ "$M1" = 37136 ] || {
    echo "expected hgserve_dataset_memo_bytes 0 before the first kcore?k=3 on u6000 and 37136 after, got '$M0' and '$M1'"
    exit 1
}
# kcore_memo_delta PASS BEFORE AFTER WANT: "edge raw" counts added.
kcore_memo_delta() {
    GOT="$((${3% *} - ${2% *})) $((${3#* } - ${2#* }))"
    [ "$GOT" = "$4" ] || {
        echo "expected the $1 kcore?k=3 to add '$4' edge and raw probes, got '$GOT'"
        exit 1
    }
}
kcore_memo_delta "cold u6000" "$P0" "$P1" "52 113"
kcore_memo_delta "warm u6000" "$P1" "$P2" "52 0"
echo "k-core memo smoke OK (u6000 3-core: 52 probes and 113 raw probes cold, 52 probes warm; memo 0 -> $M1 B)"

echo "==> hgserve u1m deadline smoke (one fresh cache-off server on the u1m .hgb)"
# On the largest input served, a fresh server answers diameter at a
# 150 ms budget and cover at 20 ms with 504s, each within 200 ms at the
# client (one retry on a miss, as the bench gates allow). Then
# kcore?k=3 at 50 ms: a memo build the deadline cuts is continued by
# the next request, so one of at most 10 answers 200, and its memo is
# complete: a request with no budget probes only the 2,467 hyperedges
# its peel touches that are not linear or kept fewer than two pins, and
# makes no raw probe. A memo left unfinished would probe about 100,000.
[ -f target/hgb-cache/u1m.hgb ] ||
    ./target/release/hg gen uniform 1000000 250000 8 --seed 41 \
        -o target/hgb-cache/u1m.hgb >/dev/null
start_server --cache-mb 0 target/hgb-cache/u1m.hgb
# deadline_504 ENDPOINT BUDGET_MS: a 504 within 200 ms, or exit.
deadline_504() {
    for TRY in 1 2; do
        GOT=$(curl -s -o /dev/null -w '%{http_code} %{time_total}' \
            -H "X-Deadline-Ms: $2" "http://$ADDR/v1/u1m/$1")
        if [ "${GOT%% *}" = 504 ] && awk -v t="${GOT#* }" 'BEGIN { exit !(t < 0.2) }'; then
            return 0
        fi
        echo "u1m $1 at a $2 ms budget answered '$GOT' (code, seconds), try $TRY of 2"
    done
    exit 1
}
deadline_504 diameter 150
deadline_504 cover 20
TRY=1
until [ "$(curl -s -o /dev/null -w '%{http_code}' -H 'X-Deadline-Ms: 50' \
    "http://$ADDR/v1/u1m/kcore?k=3")" = 200 ]; do
    [ "$TRY" -lt 10 ] || {
        echo "no kcore?k=3 on u1m at a 50 ms budget answered 200 in 10 tries"
        exit 1
    }
    TRY=$((TRY + 1))
done
P0=$(probe_counts)
curl -sf "http://$ADDR/v1/u1m/kcore?k=3" -o /dev/null
P1=$(probe_counts)
stop_server
rm -f smoke.log
kcore_memo_delta "unbudgeted u1m" "$P0" "$P1" "2467 0"
echo "u1m deadline smoke OK (diameter and cover 504 within 200 ms; kcore?k=3 at 50 ms answered 200 on try $TRY, then 2467 probes and no raw probe)"

echo "==> hgserve smoke (hg serve on an ephemeral port + curl)"
start_server
# Robustness surface first, while the cache is cold: a 1ms deadline on
# an uncached diameter sweep answers 504 (or 200 if the box finishes the
# sweep inside the budget), and the deadline counter is exported.
CODE=$(curl -s -o /dev/null -w '%{http_code}' -H 'X-Deadline-Ms: 1' \
    "http://$ADDR/v1/cellzome-2004/diameter")
[ "$CODE" = "504" ] || [ "$CODE" = "200" ] || {
    echo "deadline probe expected 504 (or a 200 on a fast box), got $CODE"
    exit 1
}
DE=$(curl -sf "http://$ADDR/metrics" | awk '$1 == "hgserve_deadline_exceeded_total" { print $2 }')
[ -n "$DE" ] || { echo "hgserve_deadline_exceeded_total not exported"; exit 1; }
curl -sf "http://$ADDR/v1/cellzome-2004/diameter" >/dev/null
curl -sf "http://$ADDR/v1/cellzome-2004/diameter" >/dev/null
HITS=$(curl -sf "http://$ADDR/metrics" | awk '$1 == "hgserve_cache_hits" { print $2 }')
[ "${HITS:-0}" -ge 1 ] || { echo "expected a cache hit, got hits=${HITS:-none}"; exit 1; }
# Observability surface: bucketed latency series are exported, a traced
# request round-trips through `hg trace`, and the slow-query log answers.
BUCKETS=$(curl -sf "http://$ADDR/metrics" | grep -c '^hg_serve_latency_us_.*_bucket{le=')
[ "${BUCKETS:-0}" -ge 1 ] || {
    echo "expected serve.latency_us _bucket series in /metrics, got $BUCKETS"
    exit 1
}
curl -sf "http://$ADDR/v1/cellzome-2004/diameter?trace=1" >trace-sample.json
./target/release/hg trace trace-sample.json | grep -q 'msbfs.batch' || {
    echo "traced diameter did not yield msbfs.batch phases:"
    cat trace-sample.json
    exit 1
}
# A distance is answered by the bidirectional pair search, not a full BFS.
curl -sf "http://$ADDR/v1/cellzome-2004/distance?from=2&to=1000&trace=1" >trace-sample.json
./target/release/hg trace trace-sample.json | grep -q 'bfs.pair' || {
    echo "traced distance did not yield the bfs.pair phase:"
    cat trace-sample.json
    exit 1
}
# Untraced distance misses are answered on the event loop: every
# cellzome pair search fits the loop's pin budget, so none is handed to
# a worker.
for PAIR in 'from=2&to=1000' 'from=5&to=900' 'from=17&to=1200' 'from=1361&to=100'; do
    curl -sf "http://$ADDR/v1/cellzome-2004/distance?$PAIR" >/dev/null
done
METRICS=$(curl -sf "http://$ADDR/metrics")
LOOP_COMPUTED=$(printf '%s\n' "$METRICS" | awk '$1 == "hg_serve_loop_computed_total" { print $2 }')
LOOP_HANDOFFS=$(printf '%s\n' "$METRICS" | awk '$1 == "hg_serve_loop_handoffs_total" { print $2 }')
if [ "${LOOP_COMPUTED:-0}" -lt 1 ] || [ "${LOOP_HANDOFFS:-0}" -ne 0 ]; then
    echo "expected distance misses answered on the loop (hg_serve_loop_computed_total >= 1," \
        "hg_serve_loop_handoffs_total absent or 0), got '${LOOP_COMPUTED:-none}' and '${LOOP_HANDOFFS:-none}'"
    exit 1
fi
# Every k-core query runs the subset-probe engine: one level, and the
# max core without the Fig. 4 sweep or its overlap table.
for Q in 'kcore?k=3&trace=1' 'kcore?trace=1'; do
    curl -sf "http://$ADDR/v1/cellzome-2004/$Q" >trace-sample.json
    PHASES=$(./target/release/hg trace trace-sample.json)
    printf '%s\n' "$PHASES" | grep -qF 'kcore.probe.peel' || {
        echo "traced $Q did not yield the kcore.probe.peel phase:"
        cat trace-sample.json
        exit 1
    }
    if printf '%s\n' "$PHASES" | grep -qF -e 'kcore.decompose' -e 'kcore.reduce' \
        -e 'kcore.peel' -e 'overlap.build'; then
        echo "traced $Q ran the Fig. 4 sweep or built the overlap table:"
        cat trace-sample.json
        exit 1
    fi
done
# Every kernel phase also feeds a `phase_ns.<phase>` histogram: the
# k-core peels above and the earlier diameters show up, and the retired
# span series do not. Cellzome's diameters run the MS-BFS sweep on one
# thread, and the traced one leased the scratch an earlier sweep parked.
METRICS=$(curl -sf "http://$ADDR/metrics")
for SERIES in hg_phase_ns_kcore_probe_peel_count hg_phase_ns_msbfs_batch_count \
    hg_msbfs_scratch_reused_total; do
    N=$(printf '%s\n' "$METRICS" | awk -v s="$SERIES" '$1 == s { print $2 }')
    [ "${N:-0}" -ge 1 ] || {
        echo "expected $SERIES >= 1 in /metrics, got '${N:-none}'"
        exit 1
    }
done
if printf '%s\n' "$METRICS" | grep -q '^hg_span_'; then
    echo "/metrics still exports hg_span_* series:"
    printf '%s\n' "$METRICS" | grep '^hg_span_'
    exit 1
fi
curl -sf "http://$ADDR/debug/slowlog" | grep -q '"schema":"hg-slowlog/1"' || {
    echo "/debug/slowlog did not answer well-formed slowlog JSON"
    exit 1
}
# Connection-engine surface: the per-state open-connection gauges and
# the accept counter are exported (curl itself accounts for at least
# one accepted connection).
METRICS=$(curl -sf "http://$ADDR/metrics")
for STATE in idle reading dispatched writing; do
    printf '%s\n' "$METRICS" | grep -q "^hgserve_open_connections{state=\"$STATE\"} " || {
        echo "expected hgserve_open_connections{state=\"$STATE\"} in /metrics"
        printf '%s\n' "$METRICS" | grep '^hgserve_open' || true
        exit 1
    }
done
ACCEPTS=$(printf '%s\n' "$METRICS" | awk '$1 == "hgserve_accept_total" { print $2 }')
[ "${ACCEPTS:-0}" -ge 1 ] || {
    echo "expected hgserve_accept_total >= 1, got '${ACCEPTS:-none}'"
    exit 1
}
stop_server
rm -f smoke.log
echo "smoke OK (cache hits: $HITS, deadline probe: $CODE, bucket series: $BUCKETS, accepts: $ACCEPTS)"

echo "==> hgserve smoke (idle keep-alive fleet + live deadline-bounded queries)"
# Hold thousands of idle keep-alive connections on the event loop while
# deadline-bounded queries keep answering: none of the parked sockets
# may fail to connect or get dropped, and no query may fail transport.
set_idle_conns
if [ "$IDLE_CONNS" -gt 0 ]; then
    start_server
    ./target/release/hg loadgen --addr "$ADDR" --dataset cellzome-2004 \
        --concurrency 4 --requests 200 --deadline-ms 2000 \
        --connections "$IDLE_CONNS" --json SMOKE_conns.json
    grep -q "\"idle_connections\":{\"requested\":$IDLE_CONNS,\"connected\":$IDLE_CONNS,\"connect_errors\":0,\"resets\":0}" SMOKE_conns.json || {
        echo "idle fleet had connect errors or resets:"
        sed -n 's/.*\("idle_connections":{[^}]*}\).*/\1/p' SMOKE_conns.json
        exit 1
    }
    grep -q '"transport_errors":0' SMOKE_conns.json || {
        echo "live queries failed while the fleet was parked:"
        cat SMOKE_conns.json
        exit 1
    }
    ACCEPTS=$(curl -sf "http://$ADDR/metrics" | awk '$1 == "hgserve_accept_total" { print $2 }')
    [ "${ACCEPTS:-0}" -ge "$IDLE_CONNS" ] || {
        echo "expected hgserve_accept_total >= $IDLE_CONNS after the fleet, got '${ACCEPTS:-none}'"
        exit 1
    }
    stop_server
    rm -f smoke.log SMOKE_conns.json
    echo "connection smoke OK ($IDLE_CONNS idle connections held, accepts: $ACCEPTS)"
fi

echo "==> hgserve smoke (kernel counters under --par-threshold 1 --relabel)"
# Force parallel routing on the small dataset and store it relabeled:
# two uncached diameter sweeps (the second bypasses the cache via
# ?trace=1) must surface the MS-BFS pull-direction counter (relabeled
# cellzome pulls in 19 passes per sweep) and the sweep's scratch-arena
# reuse counter in /metrics.
start_server --par-threshold 1 --relabel
curl -sf "http://$ADDR/datasets" | grep -q '"relabeled":true' || {
    echo "expected /datasets to report the preload as relabeled"
    exit 1
}
curl -sf "http://$ADDR/v1/cellzome-2004/diameter" >/dev/null
curl -sf "http://$ADDR/v1/cellzome-2004/diameter?trace=1" >/dev/null
METRICS=$(curl -sf "http://$ADDR/metrics")
PULLS=$(printf '%s\n' "$METRICS" | awk '$1 == "hg_msbfs_sweep_pull_passes_total" { print $2 }')
[ "${PULLS:-0}" -ge 1 ] || {
    echo "expected hg_msbfs_sweep_pull_passes_total >= 1, got ${PULLS:-none}"
    printf '%s\n' "$METRICS" | grep '^hg_msbfs' || true
    exit 1
}
SCRATCH=$(printf '%s\n' "$METRICS" | awk '$1 == "hg_msbfs_scratch_reused_total" { print $2 }')
[ "${SCRATCH:-0}" -ge 1 ] || {
    echo "expected hg_msbfs_scratch_reused_total >= 1, got ${SCRATCH:-none}"
    printf '%s\n' "$METRICS" | grep '^hg_msbfs' || true
    exit 1
}
stop_server
rm -f smoke.log
echo "kernel-counter smoke OK (pull passes: $PULLS, scratch reuses: $SCRATCH)"

echo "==> hgserve smoke (.hgb preload served from mmap)"
# Convert the Cellzome text dataset to `.hgb` (the convert path
# re-opens the written file with full structural verification) and
# preload it next to the text twin; the binary one must come up mapped,
# report its storage in /datasets, and export resident bytes.
mkdir -p target/hgb-cache
./target/release/hg convert data/cellzome-2004.hgr \
    -o target/hgb-cache/cellzome-bin.hgb >/dev/null
start_server target/hgb-cache/cellzome-bin.hgb
grep -q '^LOAD=cellzome-bin storage=mmap' smoke.log || {
    echo "expected a 'LOAD=cellzome-bin storage=mmap' startup line, got:"
    grep '^LOAD=' smoke.log || true
    exit 1
}
DATASETS=$(curl -sf "http://$ADDR/datasets")
printf '%s' "$DATASETS" | grep -q '"name":"cellzome-bin"' || {
    echo "expected /datasets to list the .hgb preload: $DATASETS"
    exit 1
}
printf '%s' "$DATASETS" | grep -q '"storage":"mmap"' || {
    echo "expected /datasets to report storage \"mmap\": $DATASETS"
    exit 1
}
# The binary and text twins must answer identically: every endpoint
# in hgserve::query::ENDPOINTS (distance on one pair), plus kcore?k=3.
QUERIES=$(sed -n '/^pub const ENDPOINTS/,/^];/s/^ *"\([a-z]*\)",$/\1/p' \
    crates/hgserve/src/query.rs | sed 's/^distance$/distance?from=1\&to=100/')
[ "$(printf '%s\n' "$QUERIES" | wc -l)" -ge 8 ] || {
    echo "expected the endpoint list from query.rs, got: $QUERIES"
    exit 1
}
for Q in $QUERIES 'kcore?k=3'; do
    D_BIN=$(curl -sf "http://$ADDR/v1/cellzome-bin/$Q")
    D_TXT=$(curl -sf "http://$ADDR/v1/cellzome-2004/$Q")
    [ -n "$D_BIN" ] && [ "$D_BIN" = "$D_TXT" ] || {
        echo ".hgb and .hgr answers to $Q diverge:"
        echo "  bin: $D_BIN"
        echo "  txt: $D_TXT"
        exit 1
    }
done
# A mapped dataset's resident bytes are its file's length.
RESIDENT=$(curl -sf "http://$ADDR/metrics" |
    sed -n 's/^hgserve_dataset_resident_bytes{dataset="cellzome-bin",storage="mmap"} \([0-9]*\)$/\1/p')
HGB_BYTES=$(wc -c <target/hgb-cache/cellzome-bin.hgb | tr -d " ")
[ "${RESIDENT:-0}" -eq "$HGB_BYTES" ] || {
    echo "expected hgserve_dataset_resident_bytes for cellzome-bin = $HGB_BYTES (the file's length), got '${RESIDENT:-none}'"
    curl -sf "http://$ADDR/metrics" | grep '^hgserve_dataset' || true
    exit 1
}
stop_server
rm -f smoke.log
echo "mmap smoke OK (resident bytes: $RESIDENT; $(printf '%s\n' "$QUERIES" | wc -l) endpoints + kcore?k=3 identical)"

echo "CI OK"

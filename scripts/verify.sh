#!/usr/bin/env bash
# Repo verification: the tier-1 gate (ROADMAP.md), the virtual-time
# goldens, the static and model-checking gates, lint and format.
#
#   scripts/verify.sh                 run every gate, fail fast
#   scripts/verify.sh --list          print the gate names
#   scripts/verify.sh --only <gate>   run one gate
#
# Every gate prints its wall-clock seconds; a summary table follows the
# last gate that ran. Run from anywhere; operates on the repo root.
set -euo pipefail
cd "$(dirname "$0")/.."

ONLY=""
LIST=0
while [ $# -gt 0 ]; do
    case "$1" in
        --list) LIST=1 ;;
        --only)
            ONLY="${2:?--only needs a gate name}"
            shift
            ;;
        *)
            echo "usage: $0 [--list | --only <gate>]" >&2
            exit 2
            ;;
    esac
    shift
done

SMOKE_DIR="$(mktemp -d)"
# Building `perf/` (the perf-tests and perf-smoke gates) rewrites its lock
# file; a run puts back the one it found, so it leaves the tree as it was.
cp perf/Cargo.lock "$SMOKE_DIR/perf-Cargo.lock"
SUMMARY=()
summary() {
    cmp -s "$SMOKE_DIR/perf-Cargo.lock" perf/Cargo.lock ||
        cp "$SMOKE_DIR/perf-Cargo.lock" perf/Cargo.lock
    rm -rf "$SMOKE_DIR"
    if [ "${#SUMMARY[@]}" -gt 0 ]; then
        printf '\n%-36s %10s\n' "gate" "seconds"
        printf '%s\n' "${SUMMARY[@]}"
    fi
}
trap summary EXIT

# gate <name> <cmd...>: runs one named gate and records its wall time. A
# failing command exits the script (set -e), so nothing runs after it.
gate() {
    local name="$1"
    shift
    if [ "$LIST" = 1 ]; then
        echo "$name"
        return
    fi
    if [ -n "$ONLY" ] && [ "$ONLY" != "$name" ]; then
        return
    fi
    echo "==> $name"
    GATE="$name"
    local start_ns
    start_ns=$(date +%s%N)
    "$@"
    local ms=$((($(date +%s%N) - start_ns) / 1000000))
    SUMMARY+=("$(printf '%-36s %6d.%03d' "$name" $((ms / 1000)) $((ms % 1000)))")
    echo "    $name: $((ms / 1000)).$(printf '%03d' $((ms % 1000)))s"
}

# bounded <seconds> <cmd...>: runs an executable under coreutils
# `timeout`. A livelocked test prints nothing while it spins (a mutant
# once did for 16 minutes), so on expiry this names the gate and fails.
# Each bound is at least five times the gate's measured time.
bounded() {
    local secs="$1" status=0
    shift
    timeout "$secs" "$@" || status=$?
    if [ "$status" -eq 124 ]; then
        echo "verify: $GATE hung: no result after ${secs}s" >&2
    fi
    return "$status"
}

# one_cpu <cmd...>: runs a command pinned to CPU 0. On one CPU the host
# runs a Multicore's workers one after another in an order of its own
# choosing — the schedule on which worker-count identity failed every time
# while shards drained their own mailboxes (DESIGN.md decision #9). The
# command may be a function of this script: a subshell pins itself and
# runs it. Without `taskset` it says so and passes: never a silent skip.
one_cpu() {
    if ! command -v taskset >/dev/null; then
        echo "    skipped, taskset is not on the PATH: $*" >&2
        return 0
    fi
    (
        taskset -cp 0 "$BASHPID" >/dev/null
        "$@"
    )
}

# emits <bin> <file...>: runs a bench bin with --json in the scratch dir
# (under $PIN, if set) and requires each named report to be written.
emits() {
    local bin="$1"
    shift
    (cd "$SMOKE_DIR" && ${PIN:-} cargo run -q --release --manifest-path "$OLDPWD/Cargo.toml" \
        -p spin-bench --bin "$bin" -- --json >/dev/null)
    local file
    for file in "$@"; do
        test -s "$SMOKE_DIR/$file" || {
            echo "verify: $bin emitted no $file" >&2
            return 1
        }
    done
}

# golden <bin> <name> [again]: BENCH_<name>.json holds virtual-time numbers
# only and must match the checked-in golden byte for byte — the cost-model
# invariant: no instrumentation, containment, shard, swap or quota
# machinery may move a reported number. The storm bins also exit nonzero
# on a dropped packet, an unreconciled ledger or any divergence between
# 1, 2 and 4 workers. `again` names a wrapper (`one_cpu`) under which the
# bin is run and diffed a second time.
golden() {
    local bin="$1" name="$2" again="${3:-}" pin
    for pin in "" $again; do
        PIN="$pin" emits "$bin" "BENCH_$name.json"
        diff -u "scripts/goldens/BENCH_$name.json" "$SMOKE_DIR/BENCH_$name.json" || {
            echo "verify: $bin diverged from scripts/goldens/BENCH_$name.json" >&2
            return 1
        }
    done
}

# The eight-rule verifier (D1 determinism, D2 hash iteration, F1 sync
# facade, O1 ordering justifications, U1 unsafe containment, C1 charge
# coverage, P1 dead `pub` surface, P2 unused dependencies) must report
# zero findings, and its machine-readable report (with the per-crate
# `pub`-item and `Ordering::`-site counts) must match the golden byte for
# byte — so an allowlist entry, surface growth or a new hand-argued
# memory ordering can never slip in silently. P1 is
# the ratchet: a new `pub` item that nothing outside its crate names,
# and no `// paper:` line keeps, is a finding.
lint_gate() {
    cargo build -q --release -p spin-check --bin spin-lint
    local start_ns
    start_ns=$(date +%s%N)
    ./target/release/spin-lint --json >"$SMOKE_DIR/lint_report.json"
    local ms=$((($(date +%s%N) - start_ns) / 1000000))
    diff -u scripts/goldens/lint_report.json "$SMOKE_DIR/lint_report.json" || {
        echo "verify: spin-lint diverged from scripts/goldens/lint_report.json" >&2
        return 1
    }
    local allow_entries
    allow_entries=$(grep -c '^\[\[allow\]\]' lint.toml)
    if [ "$allow_entries" -gt 2 ]; then
        echo "verify: lint.toml has $allow_entries allow entries (cap: 2)" >&2
        return 1
    fi
    # The full-workspace lint must stay an instant pre-commit check, or it
    # stops being run.
    if [ "$ms" -ge 2000 ]; then
        echo "verify: spin-lint took ${ms}ms (budget: 2000ms)" >&2
        return 1
    fi
    echo "    spin-lint: clean in ${ms}ms ($allow_entries allow entries)"
}

gate tier1-build cargo build --release
# The test gates' bounds are seconds, each at least five times the gate's
# measured time (a cold build included) on a 2-vCPU guest.
gate tier1-test bounded 600 cargo test -q
# Every crate's suites, among them the invariance matrix, the chaos and
# multicore storms, and the sharded net/dsm rigs.
gate workspace-test bounded 600 cargo test --workspace -q
gate multicore-1cpu one_cpu bounded 600 cargo test -q --test multicore_shards
# `perf/` is a package of its own, so nothing above builds it: without
# this a kernel-crate API change breaks the benchmark unnoticed.
gate perf-tests bounded 600 cargo test -q --manifest-path perf/Cargo.toml
# One short untraced run of every benchmark workload at full size: exit 0
# means `correct: true` and, at the default seed, the virtual digest pinned
# in perf/digests.json — perf-tests only runs miniature instances. Never a
# timing assertion: shared CI cannot resolve one. Each run's result line
# (`correct`, `attempted`, `failed` and the four end-to-end metrics) is
# printed, so a memory or set-up regression shows in every verify log; a
# failed run prints all of its output.
perf_smoke() {
    local workload out
    for workload in http_storm udp_forward dispatch_steady dispatch_churn; do
        out=$(cargo run --release --quiet --manifest-path perf/Cargo.toml -- \
            run --workload "$workload" --seconds 3 --trace 0) || {
            printf '%s\n' "$out"
            return 1
        }
        echo "    $workload: ${out##*$'\n'}"
    done
}
gate perf-smoke perf_smoke

# bin:golden[:again]. table1_sizes counts source lines and
# s7_multicore reports wall-clock speedup, so neither has a golden; they
# only have to run clean and emit.
for pair in \
    table2_comm:table2_comm \
    table3_threads:table3_threads \
    table4_vm:table4_vm \
    table5_net:table5_net \
    table6_forward:table6_forward \
    fig5_stack:fig5_stack \
    fig6_video:fig6_video \
    s3_web:s3_web \
    s1_dispatcher_scaling:s1_dispatcher_scaling \
    s8_hotswap:hotswap \
    s9_overload:overload:one_cpu \
    s10_webscale:webscale; do
    IFS=: read -r bin name again <<<"$pair"
    gate "golden:$bin" golden "$bin" "$name" "$again"
done
# The eight examples put real frames on the wire and self-assert; clippy
# compiles them and nothing else runs them.
examples_gate() {
    local example
    for example in quickstart video_system protocol_forwarder fault_handling \
        custom_scheduler dsm_counter unix_server web_server; do
        cargo run --release -q --example "$example" | tail -n 1 | grep -q ' OK' || {
            echo "verify: example $example did not finish with its OK line" >&2
            return 1
        }
    done
}
gate examples examples_gate
gate smoke:table1_sizes emits table1_sizes BENCH_table1_sizes.json
gate smoke:s7_multicore emits s7_multicore BENCH_multicore.json

gate spin-lint lint_gate
# Model-check the kernel's concurrent paths (bound 2, exhaustive), then
# require the two planted publication-order bugs to be caught.
gate spin-check bounded 300 env RUSTFLAGS="--cfg spin_check" CARGO_TARGET_DIR=target/spin-check \
    cargo test -q -p spin-check --tests
# The raise-prologue and quota-cell models again at preemption bound 3
# (well under a second; same build as spin-check, selected by test name).
gate spin-check-b3 bounded 300 env RUSTFLAGS="--cfg spin_check" CARGO_TARGET_DIR=target/spin-check \
    cargo test -q -p spin-check --test checks raise_prologue_models_at_bound3 -- --ignored
gate spin-check-mutants bounded 300 env RUSTFLAGS="--cfg spin_check --cfg spin_check_mutant" \
    CARGO_TARGET_DIR=target/spin-check-mutant cargo test -q -p spin-check --test mutants
# --all-targets: the Criterion bench and the examples are compiled by no
# other gate, so without it a kernel-crate refactor can rot them unseen.
gate clippy cargo clippy --workspace --all-targets -- -D warnings
# Every public doc resolves: an intra-doc link to a moved or narrowed item
# (or to a private module, now that each crate root is its interface)
# fails here instead of rendering as plain text.
gate rustdoc env RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps
gate fmt cargo fmt --check

if [ "$LIST" = 0 ]; then
    if [ "${#SUMMARY[@]}" -eq 0 ]; then
        echo "verify: no gate named '$ONLY' (see --list)" >&2
        exit 2
    fi
    echo "verify: OK"
fi
